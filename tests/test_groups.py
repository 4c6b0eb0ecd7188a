import copy
import functools
import json
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf
from hypothesis import given, settings
from hypothesis import strategies as st

from nonzero_cycles import groups
from nonzero_cycles.groups import (
    GroupParseError,
    cyclic,
    decode_element,
    direct_sum,
    element,
    encode_element,
    format_descriptor,
    free_abelian,
    free_group,
    identity,
    integers,
    inv,
    is_zero,
    op,
    parse_descriptor,
    project,
    quotient,
    quotient_with_projection,
    smith_normal_form,
)

DESCRIPTORS = [
    integers(),
    cyclic(2),
    cyclic(5),
    free_abelian(3),
    free_group(2),
    direct_sum(cyclic(2), cyclic(3)),
    direct_sum(free_group(2), integers()),
    quotient([2, 4, 0]),
]


def random_elements(desc, count=40, seed=7):
    rng = random.Random(seed)
    return [groups.random_element(desc, rng) for _ in range(count)]


@pytest.mark.parametrize("desc", DESCRIPTORS, ids=str)
def test_group_axioms(desc):
    xs = random_elements(desc)
    e = identity(desc)
    for a in xs:
        assert op(a, e) == a
        assert op(e, a) == a
        assert is_zero(op(a, inv(a)))
        assert is_zero(op(inv(a), a))
    for a, b, c in zip(xs, xs[1:], xs[2:]):
        assert op(op(a, b), c) == op(a, op(b, c))


@pytest.mark.parametrize("desc", DESCRIPTORS, ids=str)
def test_inverse_is_antihomomorphism(desc):
    xs = random_elements(desc, seed=11)
    for a, b in zip(xs, xs[1:]):
        assert inv(op(a, b)) == op(inv(b), inv(a))


def test_free_group_is_not_abelian():
    desc = free_group(2)
    a = element(desc, [1])
    b = element(desc, [2])
    assert op(a, b) != op(b, a)
    assert not desc.is_abelian
    assert free_group(1).is_abelian


@pytest.mark.parametrize(
    "text, trivial",
    [
        ("z", False), ("z1", True), ("z2", False), ("za0", True), ("za2", False),
        ("free0", True), ("free1", False), ("q()", True), ("q(1)", True), ("q(1,1)", True),
        ("q(2)", False), ("q(0)", False), ("sum(z1,q())", True), ("sum(z1,z2)", False),
        ("sum(free0,za0)", True),
    ],
)
def test_is_trivial_exactly_when_every_random_element_is_zero(text, trivial):
    desc = parse_descriptor(text)
    assert desc.is_trivial == trivial
    rng = random.Random(3)
    draws = [groups.random_element(desc, rng) for _ in range(30)]
    assert all(is_zero(x) for x in draws) == trivial


def test_free_group_reduction():
    desc = free_group(2)
    assert element(desc, [1, -1]).payload == ()
    assert element(desc, [1, 2, -2, -1, 1]).payload == (1,)
    assert op(element(desc, [1, 2]), element(desc, [-2, -1])).payload == ()


def test_cyclic_wraps():
    desc = cyclic(5)
    assert element(desc, 7).payload == 2
    assert op(element(desc, 3), element(desc, 4)).payload == 2


def test_direct_sum_projection():
    desc = direct_sum(cyclic(2), cyclic(3))
    a = element(desc, (1, 2))
    assert project(a, 0).payload == 1
    assert project(a, 1).payload == 2
    with pytest.raises(GroupParseError):
        project(element(cyclic(2), 1), 0)


def test_quotient_canonicalisation():
    # factors equal to 1 vanish; equal invariant factors mean equal groups
    assert quotient([1, 2, 6]) == quotient([2, 6])
    assert quotient([1, 1]) == quotient([])
    with pytest.raises(GroupParseError):
        quotient([2, 3])  # not a divisibility chain


@pytest.mark.parametrize("text", ["q(a)", "q(2.5)", "q(2,)", "sum(z2,q(x))"])
def test_grammar_rejects_non_integer_quotient_factors(text):
    # a parse error, not a bare ValueError from int()
    with pytest.raises(GroupParseError, match=r"q\(\.\.\.\) takes comma-separated integers"):
        parse_descriptor(text)


@pytest.mark.parametrize(
    "text", ["z\u0663", "za\u0662", "free\u0661", "sum(z2,z\u0663)", "q(1_0)", "q(\u0662)", "q(2, 1_0)"]
)
def test_grammar_reads_numbers_by_the_one_integer_rule(text):
    # int() and str.isdigit accept these; `as_integer` and ASCII digits do not
    match = r"q\(\.\.\.\) takes comma-separated integers" if text.startswith("q(") else None
    with pytest.raises(GroupParseError, match=match):
        parse_descriptor(text)


def test_grammar_keeps_reading_the_quotient_factors_int_reads():
    assert parse_descriptor("q(2,4)") == quotient([2, 4])
    assert parse_descriptor("q( 2,+4)") == quotient([2, 4])
    assert parse_descriptor("q()") == quotient([])


@pytest.mark.parametrize("desc", DESCRIPTORS, ids=str)
def test_grammar_round_trip(desc):
    assert parse_descriptor(format_descriptor(desc)) == desc


def test_grammar_examples():
    assert parse_descriptor("z") == integers()
    assert parse_descriptor("z5") == cyclic(5)
    assert parse_descriptor("za3") == free_abelian(3)
    assert parse_descriptor("free2") == free_group(2)
    assert parse_descriptor("sum(z2,sum(z,free1))") == direct_sum(
        cyclic(2), direct_sum(integers(), free_group(1))
    )
    with pytest.raises(GroupParseError):
        parse_descriptor("nope")
    with pytest.raises(GroupParseError):
        parse_descriptor("z2junk")


@pytest.mark.parametrize("desc", DESCRIPTORS, ids=str)
def test_element_json_round_trip(desc):
    for a in random_elements(desc, seed=3):
        assert decode_element(desc, encode_element(a)) == a


@pytest.mark.parametrize(
    "text, data",
    [
        ("za2", "12"),
        ("za2", 12),
        ("free2", "12"),
        ("q(2,6,0)", "120"),
        ("sum(z2,z3)", "10"),
        ("sum(z2,z3)", [1, 2, 5]),
        ("sum(z2,z3)", [1]),
        ("sum(za2,z3)", [[1, 0], 2, 0]),
        ("sum(z2,za2)", [1, "12"]),
    ],
)
def test_decode_rejects_non_list_and_wrong_arity_payloads(text, data):
    # a string is not read character by character, and a direct sum takes
    # exactly two entries
    with pytest.raises(GroupParseError, match="bad element payload"):
        decode_element(parse_descriptor(text), data)


@pytest.mark.parametrize(
    "text, data",
    [
        ("z", 2.7),
        ("z", True),
        ("z", "2.5"),
        ("z5", 3.9),
        ("z5", False),
        ("za2", [1.5, 2]),
        ("za2", [True, 2]),
        ("free2", [1, 2.5]),
        ("q(2,4,0)", [1, 2, 0.5]),
        ("sum(z3,za2)", [2.2, [1, 0]]),
    ],
)
def test_decode_rejects_fractions_and_booleans(text, data):
    # no entry is truncated to an integer, and no boolean is read as 0 or 1
    with pytest.raises(GroupParseError, match="not an integer"):
        decode_element(parse_descriptor(text), data)


def test_decode_reads_integral_floats_and_decimal_strings():
    assert decode_element(integers(), 3.0) == element(integers(), 3)
    assert decode_element(cyclic(5), "7") == element(cyclic(5), 2)
    assert decode_element(free_abelian(2), [2.0, "-1"]) == element(free_abelian(2), (2, -1))


@pytest.mark.parametrize("text", ["sum(z2,z3)", "sum(z,free2)", "sum(za2,q(2,4,0))", "sum(sum(z2,z3),z5)"])
def test_direct_sum_make_reads_raw_element_and_mixed_entries_alike(text):
    # the summands' raw payloads come straight from their own make, and an
    # element entry gives its payload: both give the payloads of `element`
    desc = parse_descriptor(text)
    left, right = groups.coordinate_groups(desc)
    t = groups.table(desc)
    rng = random.Random(8)
    for _ in range(20):
        a, b = groups.random_element(left, rng), groups.random_element(right, rng)
        raw = (encode_element(a), encode_element(b))
        expected = (a.payload, b.payload)
        for entries in (raw, (a, b), (a, raw[1]), (raw[0], b)):
            assert t.make(list(entries)) == expected
            assert element(desc, list(entries)) == groups.GroupElement(desc, expected)
            assert decode_element(desc, list(entries)) == element(desc, (a, b))
    stranger = element(cyclic(7), 1)
    for entries in ([stranger, raw[1]], [raw[0], stranger], [b, a]):
        with pytest.raises(GroupParseError, match="direct sum components in wrong groups"):
            element(desc, entries)


# every kind, and direct sums nested and with free summands
PAYLOAD_GROUPS = [
    "z", "z1", "z5", "za0", "za2", "free0", "free2", "free3", "q()", "q(2,6,0)",
    "sum(z2,z3)", "sum(z5,za2)", "sum(z,free2)", "sum(free2,free2)", "sum(sum(z2,free2),q(2,6,0))",
]


@pytest.mark.parametrize("text", PAYLOAD_GROUPS)
def test_an_elements_payload_is_its_tables_raw_payload(text):
    # one layout: a direct sum's payload pairs its summands' raw payloads,
    # and its coordinates are elements of `coordinate_groups` built on read
    desc = parse_descriptor(text)
    t = groups.table(desc)
    parts = groups.coordinate_groups(desc)
    rng = random.Random(text)
    for _ in range(40):
        x = t.draw(rng, 3)
        a = element(desc, t.encode(x))
        assert a.payload == x
        assert decode_element(desc, encode_element(a)) == a
        coords = groups.coordinates(a)
        if len(parts) == 2:
            assert tuple(c.descriptor for c in coords) == parts
            assert tuple(c.payload for c in coords) == x
            assert (project(a, 0), project(a, 1)) == coords
        else:
            assert coords == (a, a)


ZERO_READER_GROUPS = [
    "z", "z5", "za2", "free2", "q(2,4,0)", "z1", "za0", "free0",
    "sum(z3,z3)", "sum(z,free2)", "sum(free2,free2)",
]


@pytest.mark.parametrize("text", ZERO_READER_GROUPS)
def test_zero_reader_matches_coordinates_and_is_zero(text):
    # on drawn raw payloads, small spans so that zeros come up in each
    # coordinate, and on the zero
    desc = parse_descriptor(text)
    t = groups.table(desc)
    read = groups.zero_reader(desc)
    assert read is groups.zero_reader(desc)  # compiled once per descriptor
    rng = random.Random(22)
    raws = [t.zero] + [t.draw(rng, span) for span in (0, 1, 2) for _ in range(60)]
    seen = set()
    for raw in raws:
        a = groups.GroupElement(desc, raw)
        expected = tuple(is_zero(c) for c in groups.coordinates(a))
        assert read(raw) == groups.zero_flags(a) == expected
        seen.add(expected)
    trivial = desc.is_trivial
    assert ((True, True) in seen) and (((False, False) in seen) != trivial)
    if len(groups.coordinate_groups(desc)) == 2:
        assert {(True, False), (False, True)} <= seen or trivial
    else:
        assert seen <= {(True, True), (False, False)}


def test_coordinate_groups_split_a_direct_sum_and_keep_a_single_group():
    z3 = cyclic(3)
    assert groups.coordinate_groups(direct_sum(z3, z3)) == (z3, z3)
    assert groups.coordinate_groups(direct_sum(integers(), free_group(2))) == (integers(), free_group(2))
    assert groups.coordinate_groups(z3) == (z3,)
    assert groups.coordinates(element(z3, 1)) == (element(z3, 1),) * 2


def test_integers_encode_as_strings():
    big = element(integers(), 2**200)
    assert encode_element(big) == str(2**200)
    assert decode_element(integers(), encode_element(big)) == big


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=5),
        min_size=1,
        max_size=5,
    ).filter(lambda m: len({len(r) for r in m}) == 1)
)
def test_smith_normal_form_properties(matrix):
    u, s, v = smith_normal_form(matrix)
    m = sympy.Matrix(matrix)
    su = sympy.Matrix(u)
    sv = sympy.Matrix(v)
    assert su * m * sv == sympy.Matrix(s)
    assert abs(su.det()) == 1
    assert abs(sv.det()) == 1
    diag = [s[i][i] for i in range(min(len(s), len(s[0])))]
    for i in range(len(s)):
        for j in range(len(s[0])):
            if i != j:
                assert s[i][j] == 0
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert a > 0 and b % a == 0
    # invariant factors must agree with an independent implementation
    nonzero = [d for d in diag if d != 0]
    expected = [int(x) for x in sympy_snf(m).diagonal()]
    expected_nonzero = [abs(d) for d in expected if d != 0]
    assert nonzero == expected_nonzero


# a dense matrix with invariant factors 1, 1, 1, 1, 1, 419918, on which a
# reduction that does not pivot on the smallest entry can run for minutes
DENSE_6X6 = [
    [8, -9, 0, 3, -6, 9],
    [-9, -9, -3, -4, 6, 8],
    [9, -1, 8, 7, -5, 9],
    [-3, 4, -6, -5, -4, 7],
    [7, -6, -9, -6, -7, -4],
    [7, 6, 5, 4, -8, -9],
]


def smith_forms_in_a_child(matrices, timeout):
    """`smith_normal_form` of each matrix, computed in a child process that
    is killed after `timeout` seconds, so that a reduction which never ends
    fails the test instead of hanging the suite."""
    env = dict(os.environ)
    src = str(Path(groups.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import json, sys\n"
        "from nonzero_cycles.groups import smith_normal_form\n"
        "print(json.dumps([smith_normal_form(m) for m in json.load(sys.stdin)]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], input=json.dumps(matrices), capture_output=True, text=True, env=env, timeout=timeout
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def assert_smith_form(m, u, s, v):
    """U*M*V = S, U and V unimodular with entries below 2**128, and S
    diagonal and non-negative with each diagonal entry dividing the next and
    sympy's invariant factors."""
    su, sv = sympy.Matrix(u), sympy.Matrix(v)
    assert su * sympy.Matrix(m) * sv == sympy.Matrix(s)
    assert abs(su.det()) == 1 and abs(sv.det()) == 1
    assert max(abs(x) for x in su) < 2**128 and max(abs(x) for x in sv) < 2**128
    diag = [s[i][i] for i in range(min(len(m), len(m[0])))]
    assert all(s[i][j] == 0 for i in range(len(m)) for j in range(len(m[0])) if i != j)
    assert all(d >= 0 for d in diag)
    assert all(b % a == 0 if a else b == 0 for a, b in zip(diag, diag[1:]))
    expected = [abs(int(x)) for x in sympy_snf(sympy.Matrix(m)).diagonal() if x != 0]
    assert [d for d in diag if d] == expected


def test_smith_normal_form_of_a_dense_6x6_matrix_returns():
    [(u, s, v)] = smith_forms_in_a_child([DENSE_6X6], timeout=10)
    assert [s[i][i] for i in range(6)] == [1, 1, 1, 1, 1, 419918]
    assert_smith_form(DENSE_6X6, u, s, v)


def test_smith_normal_form_on_seeded_matrices_up_to_8x8():
    rng = random.Random(37)
    matrices = []
    for _ in range(500):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        matrices.append([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
    for m, (u, s, v) in zip(matrices, smith_forms_in_a_child(matrices, timeout=30)):
        assert_smith_form(m, u, s, v)


@pytest.mark.parametrize(
    "call",
    [
        lambda: smith_normal_form([[2.5, 4]]),
        lambda: smith_normal_form([[True, 3]]),
        lambda: smith_normal_form([[1, "x"]]),
        lambda: smith_normal_form([[None]]),
        lambda: quotient_with_projection([[2.7, 0]], 2),
        lambda: quotient_with_projection([[0, False]], 2),
    ],
    ids=["float", "bool", "word", "none", "quotient-float", "quotient-bool"],
)
def test_smith_normal_form_reads_entries_by_the_one_integer_rule(call):
    # not truncated: int() read 2.5 as 2, True as 1 and 2.7 as 2
    with pytest.raises(ValueError, match="is not an integer$"):
        call()


def test_smith_normal_form_reads_integral_floats_and_decimal_strings():
    assert smith_normal_form([[2.0, "4"]]) == smith_normal_form([[2, 4]])
    assert quotient_with_projection([["2"]], 1)[0] == quotient([2])


def test_quotient_with_projection_torus_like():
    # Z^2 with no relations: free abelian of rank 2
    desc, proj = quotient_with_projection([[0, 0]], 2)
    assert desc == quotient([0, 0])
    a = proj([1, 0])
    b = proj([0, 1])
    assert not is_zero(a) and not is_zero(b) and a != b


def test_quotient_with_projection_projective_plane_like():
    # Z / <2> gives Z_2
    desc, proj = quotient_with_projection([[2]], 1)
    assert desc == quotient([2])
    a = proj([1])
    assert not is_zero(a)
    assert is_zero(op(a, a))


def test_quotient_with_projection_kills_relations():
    rng = random.Random(5)
    for _ in range(25):
        ncols = rng.randint(1, 4)
        rel = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(rng.randint(1, 4))]
        desc, proj = quotient_with_projection(rel, ncols)
        for row in rel:
            assert is_zero(proj(row))
        # projection is a homomorphism
        x = [rng.randint(-5, 5) for _ in range(ncols)]
        y = [rng.randint(-5, 5) for _ in range(ncols)]
        assert proj([a + b for a, b in zip(x, y)]) == op(proj(x), proj(y))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=8),
    st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=8),
)
def test_free_group_product_reduces_the_whole_concatenation(u, v):
    desc = free_group(3)
    a, b = element(desc, u), element(desc, v)
    assert op(a, b).payload == groups._reduce_words([a.payload + b.payload])
    assert op(a, b) == element(desc, u + v)


@pytest.mark.parametrize("desc", DESCRIPTORS, ids=str)
def test_descriptor_pickles_after_its_table_is_built(desc):
    x = random_elements(desc, count=1)[0]
    op(x, x)  # builds the compiled table on the descriptor
    back = pickle.loads(pickle.dumps(desc))
    assert back == desc and hash(back) == hash(desc)
    assert pickle.loads(pickle.dumps(op(x, x))) == op(x, x)


@pytest.mark.parametrize("desc", DESCRIPTORS, ids=str)
def test_each_group_has_one_descriptor_and_one_table(desc):
    assert parse_descriptor(format_descriptor(desc)) is desc
    assert pickle.loads(pickle.dumps(desc)) is desc
    assert groups.table(parse_descriptor(str(desc))) is groups.table(desc)


@pytest.mark.parametrize("desc", DESCRIPTORS, ids=str)
def test_descriptors_compare_and_hash_by_identity(desc):
    groups.table(desc)  # a built table must not change what a copy returns
    for again in (copy.copy(desc), copy.deepcopy(desc), pickle.loads(pickle.dumps(desc)), parse_descriptor(str(desc))):
        assert again is desc
    assert type(desc).__eq__ is object.__eq__ and type(desc).__hash__ is object.__hash__
    assert all(other != desc for other in DESCRIPTORS if other is not desc)
    names = {d: str(d) for d in DESCRIPTORS}
    assert len(names) == len(DESCRIPTORS)
    assert names[parse_descriptor(str(desc))] == str(desc)


@pytest.mark.parametrize(
    "text, zeros, nonzero",
    [
        ("z", [0, "0", 0.0], 1),
        ("z5", [5, 0], 1),
        ("za2", [[0, 0]], [0, 1]),
        ("free2", [[], [1, -1]], [1]),
        ("q(2,4,0)", [[0, 0, 0], [2, -4, 0]], [0, 0, 1]),
        ("sum(z2,z3)", [[0, 0], [2, 3]], [0, 1]),
    ],
)
def test_decode_element_returns_the_one_zero_element_for_every_zero_payload(text, zeros, nonzero):
    desc = parse_descriptor(text)
    zero = identity(desc)
    assert identity(desc) is zero and is_zero(zero)
    for data in zeros:
        assert decode_element(desc, data) is zero
    x = decode_element(desc, nonzero)
    assert x is not zero and not is_zero(x)


@pytest.mark.parametrize("text", ["1_0", " 7 ", "7 ", "\u0661\u0662", "", "+", "-", "0x10", "1e3", "+-1"])
def test_as_integer_reads_only_a_sign_and_ascii_digits(text):
    with pytest.raises(ValueError, match="not an integer"):
        groups.as_integer(text)
    with pytest.raises(GroupParseError, match="not an integer"):
        decode_element(integers(), text)


def test_as_integer_reads_signed_decimal_strings():
    assert [groups.as_integer(s) for s in ("7", "-7", "+7", "007", "-0")] == [7, -7, 7, 7, 0]


FOLD_GROUPS = [
    "z",
    "z5",
    "za2",
    "free2",
    "free3",
    "q(2,6,0)",
    "sum(z5,za2)",
    "sum(free2,free2)",
    "sum(sum(z2,free2),q(2,6,0))",
]


@pytest.mark.parametrize("text", FOLD_GROUPS)
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32), length=st.integers(min_value=0, max_value=12))
def test_fold_is_the_left_fold_of_add(text, seed, length):
    t = groups.table(parse_descriptor(text))
    rng = random.Random(seed)
    xs = [t.draw(rng, 3) for _ in range(length)]
    expected = functools.reduce(t.add, xs, t.zero)
    assert t.fold(xs) == expected
    assert t.fold(tuple(xs)) == expected  # a direct sum hands its summands tuples


@pytest.mark.parametrize("text", FOLD_GROUPS)
def test_fold_of_nothing_is_zero(text):
    t = groups.table(parse_descriptor(text))
    assert t.fold([]) == t.zero and t.fold(()) == t.zero


def test_fold_keeps_the_order_in_a_free_group():
    t = groups.table(free_group(2))
    assert t.fold([(1,), (2,)]) == (1, 2)
    assert t.fold([(2,), (1,)]) == (2, 1)
    # letters cancel across more than one seam
    assert t.fold([(1, 2), (-2,), (-1, 2), (-2, 1)]) == (1,)
    s = groups.table(parse_descriptor("sum(free2,z3)"))
    assert s.fold([((1,), 1), ((2,), 2)]) == ((1, 2), 0)
    assert s.fold([((2,), 2), ((1,), 1)]) == ((2, 1), 0)


# the groups of the CI step on `Table.fold` and `Table.klass`
KLASS_GROUPS = [
    "z", "z1", "z5", "za0", "za2", "free0", "free2", "free3", "q()", "q(2,6,0)",
    "sum(z2,z3)", "sum(z5,za2)", "sum(z,free2)", "sum(free2,free2)", "sum(sum(z2,free2),q(2,6,0))",
]


@pytest.mark.parametrize("text", KLASS_GROUPS)
def test_klass_is_the_same_for_a_value_its_inverse_and_its_conjugates(text):
    t = groups.table(parse_descriptor(text))
    rng = random.Random(text)
    for _ in range(300):
        x, p = t.draw(rng, 3), t.draw(rng, 3)
        key = t.klass(x)
        hash(key)  # a hashable key, as `Table` documents
        assert t.klass(t.neg(x)) == key
        assert t.klass(t.add(t.add(t.neg(p), x), p)) == key


ABELIAN_KLASS_GROUPS = [s for s in KLASS_GROUPS + ["free1", "sum(sum(z2,z3),z)"] if parse_descriptor(s).is_abelian]


@pytest.mark.parametrize("text", ABELIAN_KLASS_GROUPS)
def test_klass_of_an_abelian_group_is_the_value_up_to_sign(text):
    # exact: `cycles.is_robust` reads equal keys as a confusable pair
    t = groups.table(parse_descriptor(text))
    rng = random.Random(text)
    xs = [t.draw(rng, 2) for _ in range(60)]
    for x in xs:
        for y in xs:
            assert (t.klass(x) == t.klass(y)) == (y in (x, t.neg(x)))


def test_klass_of_a_free_group_separates_words_of_other_letters():
    t = groups.table(free_group(2))
    # ab, its rotation ba, its inverse and its conjugate by b
    assert t.klass((1, 2)) == t.klass((2, 1)) == t.klass((-2, -1)) == t.klass((-2, 1, 2, 2))
    keys = {t.klass(w) for w in [(1,), (2,), (1, 1), (1, 2), (1, -2), (1, 2, -1, -2)]}
    assert len(keys) == 6
    s = groups.table(parse_descriptor("sum(free2,z3)"))
    assert s.klass(((1,), 1)) == s.klass(((-1,), 2)) and s.klass(((1,), 1)) != s.klass(((2,), 1))


def test_quotient_with_no_relations_is_the_free_abelian_group():
    desc, proj = quotient_with_projection([], 2)
    assert desc is groups.quotient([0, 0])
    assert str(desc) == "q(0,0)"
    for coords in [(0, 0), (3, -2), (-5, 7)]:
        assert proj(coords) == groups.element(desc, coords)


def _bogus_kind():
    return groups._intern("bogus")


# one call per rejection of the descriptor constructors, the element
# arithmetic, the descriptor parser and the Smith-form helpers; direct sums
# of other than two summands only come from `_intern`
GROUP_REJECTIONS = {
    "cyclic(0)": (lambda: cyclic(0), GroupParseError, "cyclic modulus must be >= 1"),
    "z0": (lambda: parse_descriptor("z0"), GroupParseError, "cyclic modulus must be >= 1"),
    "free_abelian(-1)": (lambda: free_abelian(-1), GroupParseError, "free abelian rank must be >= 0"),
    "free_group(-1)": (lambda: free_group(-1), GroupParseError, "free group needs >= 0 generators"),
    "a sum of one": (
        lambda: groups._intern(groups.KIND_DIRECT_SUM, parts=(integers(),)),
        GroupParseError,
        "direct sum takes exactly two summands",
    ),
    "quotient([-2])": (lambda: quotient([-2]), GroupParseError, "invariant factors must be >= 0"),
    "letter 3 of free2": (lambda: element(free_group(2), [1, 3]), GroupParseError, "free group letter out of range"),
    "letter 0 of free2": (lambda: element(free_group(2), [0]), GroupParseError, "free group letter out of range"),
    "z2 + z3": (lambda: op(identity(cyclic(2)), identity(cyclic(3))), GroupParseError, "operands live in different groups"),
    "side 2": (lambda: project(identity(direct_sum(cyclic(2), cyclic(3))), 2), GroupParseError, "side must be 0 or 1"),
    "format an unknown kind": (lambda: format_descriptor(_bogus_kind()), GroupParseError, "unknown group kind 'bogus'"),
    "compile an unknown kind": (lambda: groups.table(_bogus_kind()), GroupParseError, "unknown group kind 'bogus'"),
    "sum(z2)": (lambda: parse_descriptor("sum(z2)"), GroupParseError, "sum(...) expects two comma-separated groups"),
    "q(2,4": (lambda: parse_descriptor("q(2,4"), GroupParseError, "unterminated q(...)"),
    "ragged matrix": (lambda: smith_normal_form([[1, 2], [3]]), ValueError, "ragged matrix"),
    "relation of length 2 in Z^3": (
        lambda: quotient_with_projection([[1, 2]], 3),
        ValueError,
        "relation rows must have length ncols",
    ),
    "coordinates of length 2 in Z^3": (
        lambda: quotient_with_projection([[1, 2, 3]], 3)[1]((1, 2)),
        ValueError,
        "coordinate vector has wrong length",
    ),
}


@pytest.mark.parametrize("case", list(GROUP_REJECTIONS))
def test_group_checks_name_each_rejection(case):
    call, error, message = GROUP_REJECTIONS[case]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
