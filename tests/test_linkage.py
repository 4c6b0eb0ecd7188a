import itertools
import random

import pytest

from nonzero_cycles.linkage import (
    CROSSING,
    LINKAGE_TYPES,
    NESTED,
    SERIES,
    LinkPath,
    LinkageError,
    classify_pair,
    _interleaved,
    crosses,
    extract_pure,
    is_pure,
    linkage_type,
    pure_linkage,
    satisfies_interval_clause,
    satisfies_separation_clause,
    separate_linkages,
)


def lp(l, r):
    return LinkPath(l, r)


def test_classify_pair():
    assert classify_pair(lp(0, 1), lp(2, 3)) == SERIES
    assert classify_pair(lp(0, 3), lp(1, 2)) == NESTED
    assert classify_pair(lp(1, 2), lp(0, 3)) == NESTED
    assert classify_pair(lp(0, 2), lp(1, 3)) == CROSSING
    with pytest.raises(LinkageError):
        classify_pair(lp(0, 1), lp(1, 2))


def test_linkage_type():
    assert linkage_type([lp(0, 1), lp(2, 3), lp(4, 5)]) == SERIES
    assert linkage_type([lp(0, 5), lp(1, 4), lp(2, 3)]) == NESTED
    assert linkage_type([lp(0, 3), lp(1, 4), lp(2, 5)]) == CROSSING
    assert linkage_type([lp(0, 3), lp(1, 2), lp(4, 5)]) is None
    assert is_pure([lp(0, 9)])


def random_linkage(rng, n, spread=1000):
    ends = rng.sample(range(spread), 2 * n)
    rng.shuffle(ends)
    return [lp(min(a, b), max(a, b)) for a, b in zip(ends[::2], ends[1::2])]


def brute_force_pure(paths, t):
    for combo in itertools.combinations(paths, t):
        if linkage_type(combo) is not None:
            return True
    return False


def test_extract_pure_small_exhaustive():
    rng = random.Random(13)
    for t in (1, 2, 3):
        for _ in range(40):
            paths = random_linkage(rng, t**3)
            kind, chosen = extract_pure(paths, t)
            assert len(chosen) == t
            assert linkage_type(chosen) == kind or len(chosen) < 2
            assert all(any(c is p for p in paths) for c in chosen)


def test_extract_pure_matches_brute_force_existence():
    # anything extract_pure returns must be confirmed pure by brute force
    rng = random.Random(14)
    paths = random_linkage(rng, 27)
    kind, chosen = extract_pure(paths, 3)
    assert linkage_type(chosen) == kind
    assert brute_force_pure(paths, 3)


def test_extract_pure_requires_cube():
    with pytest.raises(LinkageError):
        extract_pure([lp(0, 1)] , 2)


def test_extract_pure_prefers_series_then_crossing():
    # three disjoint intervals exist: series is returned
    paths = [lp(0, 1), lp(2, 3), lp(4, 5), lp(6, 7)] + [lp(8 + i, 100 - i) for i in range(4)]
    kind, chosen = extract_pure(paths, 2)
    assert kind == SERIES
    # force overlap: all intervals share a point, increasing rights available
    paths = [lp(i, 50 + i) for i in range(8)]
    kind, chosen = extract_pure(paths, 2)
    assert kind == CROSSING


def pure_family(rng, kind, n, lo, hi):
    slots = sorted(rng.sample(range(lo, hi), 2 * n))
    if kind == SERIES:
        return [lp(slots[2 * i], slots[2 * i + 1]) for i in range(n)]
    lefts, rights = slots[:n], slots[n:]
    if kind == NESTED:
        return [lp(lefts[i], rights[n - 1 - i]) for i in range(n)]
    return [lp(lefts[i], rights[i]) for i in range(n)]


def test_separate_linkages_fuzz():
    rng = random.Random(99)
    for trial in range(200):
        t = rng.choice([1, 2])
        tp = rng.choice([SERIES, NESTED, CROSSING])
        tq = rng.choice([SERIES, NESTED, CROSSING])
        # lay the two families over interleaved random slots
        slots = rng.sample(range(10000), 16 * t)
        slots_p = sorted(rng.sample(slots, 8 * t))
        slots_q = sorted(set(slots) - set(slots_p))
        ps = _family_from_slots(slots_p, tp, 4 * t)
        qs = _family_from_slots(slots_q, tq, 4 * t)
        p_sel, q_sel = separate_linkages(ps, qs, t)
        assert len(p_sel) == t and len(q_sel) == t
        assert all(any(x is p for p in ps) for x in p_sel)
        assert all(any(x is q for q in qs) for x in q_sel)
        assert linkage_type(p_sel) is not None and linkage_type(q_sel) is not None
        assert satisfies_separation_clause(p_sel, q_sel, tp, tq)


def _family_from_slots(slots, kind, n):
    if kind == SERIES:
        return [LinkPath(slots[2 * i], slots[2 * i + 1]) for i in range(n)]
    lefts, rights = slots[:n], slots[n:]
    if kind == NESTED:
        return [LinkPath(lefts[i], rights[n - 1 - i]) for i in range(n)]
    return [LinkPath(lefts[i], rights[i]) for i in range(n)]


def assert_separated(ps, qs, t, tp, tq):
    """`separate_linkages` returns a block of t consecutive paths (by left
    end) of each family, pure, and meeting the clause for the input types."""
    p_sel, q_sel = separate_linkages(ps, qs, t)
    for sel, fam in ((p_sel, ps), (q_sel, qs)):
        fam = sorted(fam, key=lambda x: x.left)
        blocks = [fam[i * t : (i + 1) * t] for i in range(4)]
        assert any(len(sel) == t and all(x is y for x, y in zip(sel, b)) for b in blocks)
        assert linkage_type(sel) is not None
    assert satisfies_separation_clause(p_sel, q_sel, tp, tq)


def test_separate_linkages_every_t1_split():
    # every way to share 16 slots between two families of 4, for all nine
    # type pairs: 12,870 splits each
    slots = range(16)
    checked = 0
    for slots_p in itertools.combinations(slots, 8):
        slots_q = sorted(set(slots) - set(slots_p))
        for tp, tq in itertools.product(LINKAGE_TYPES, repeat=2):
            ps = _family_from_slots(slots_p, tp, 4)
            qs = _family_from_slots(slots_q, tq, 4)
            assert_separated(ps, qs, 1, tp, tq)
            checked += 1
    assert checked == 115_830


def test_separate_linkages_random_up_to_t6():
    rng = random.Random(2016)
    for t in range(1, 7):
        for tp, tq in itertools.product(LINKAGE_TYPES, repeat=2):
            for _ in range(20):
                # a small spread makes the two families' slots interleave
                # closely; a large one leaves long gaps
                slots = rng.sample(range(rng.choice([16 * t, 64 * t])), 16 * t)
                slots_p = sorted(rng.sample(slots, 8 * t))
                slots_q = sorted(set(slots) - set(slots_p))
                ps = _family_from_slots(slots_p, tp, 4 * t)
                qs = _family_from_slots(slots_q, tq, 4 * t)
                assert_separated(ps, qs, t, tp, tq)


@pytest.mark.parametrize("t", [0, -1])
def test_separate_linkages_rejects_nonpositive_t(t):
    with pytest.raises(LinkageError, match="t must be positive"):
        separate_linkages([], [], t)


def test_separate_linkages_series_prefix_example():
    ps = [lp(0, 1), lp(2, 3), lp(4, 5), lp(6, 7)]
    qs = [lp(10, 11), lp(12, 13), lp(14, 15), lp(16, 17)]
    p_sel, q_sel = separate_linkages(ps, qs, 1)
    assert satisfies_separation_clause(p_sel, q_sel, SERIES, SERIES)


def test_separate_linkages_rejects_impure():
    ps = [lp(0, 3), lp(1, 2), lp(4, 5), lp(6, 7)]
    qs = [lp(10, 11), lp(12, 13), lp(14, 15), lp(16, 17)]
    with pytest.raises(LinkageError):
        separate_linkages(ps, qs, 1)


def test_interval_clause():
    ps = [lp(0, 1), lp(2, 3)]
    qs = [lp(4, 5), lp(6, 7)]
    assert satisfies_interval_clause(ps, qs)
    assert not satisfies_interval_clause(qs, ps)
    # strict interleave, neither series
    ps = [lp(0, 5), lp(1, 4)]
    qs = [lp(2, 7), lp(3, 6)]
    assert satisfies_interval_clause(ps, qs)
    # interleave with a series family fails
    ps = [lp(0, 4), lp(1, 5)]
    qs = [lp(2, 6), lp(3, 7)]
    assert satisfies_interval_clause(ps, qs)  # both crossing: fine
    qs_series = [lp(2, 3), lp(6, 7)]
    assert not satisfies_interval_clause([lp(0, 4), lp(1, 5)], qs_series)


def reference_interleaved(first, second):
    """`linkage._interleaved` as it read before it took the endpoint runs
    from `_endpoint_runs`."""
    fl = max(p.left for p in first)
    sl_min = min(p.left for p in second)
    sl_max = max(p.left for p in second)
    fr_min = min(p.right for p in first)
    fr_max = max(p.right for p in first)
    sr_min = min(p.right for p in second)
    return fl < sl_min and sl_max < fr_min and fr_max < sr_min


def reference_interval_clause(ps, qs):
    """`satisfies_interval_clause` as it read before it took the hulls from
    `_endpoint_runs`."""
    ip = (min(p.left for p in ps), max(p.right for p in ps))
    iq = (min(q.left for q in qs), max(q.right for q in qs))
    if ip[1] < iq[0]:
        return True
    if reference_interleaved(ps, qs):
        return linkage_type(ps) != SERIES and linkage_type(qs) != SERIES
    return False


def test_interval_clause_matches_the_old_formulas():
    rng = random.Random(31)
    seen = set()
    for _ in range(3000):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        tp, tq = rng.choice(LINKAGE_TYPES), rng.choice(LINKAGE_TYPES)
        # which family owns each slot: four runs in a random order (each
        # family's left half before its right half), or a random shuffle
        if rng.random() < 0.5:
            runs = [["p"] * n, ["p"] * n, ["q"] * m, ["q"] * m]
            rng.shuffle(runs)
            owners = [x for run in runs for x in run]
        else:
            owners = ["p"] * 2 * n + ["q"] * 2 * m
            rng.shuffle(owners)
        ps = _family_from_slots([i for i, o in enumerate(owners) if o == "p"], tp, n)
        qs = _family_from_slots([i for i, o in enumerate(owners) if o == "q"], tq, m)
        for a, b in ((ps, qs), (qs, ps)):
            assert _interleaved(a, b) == reference_interleaved(a, b)
            assert satisfies_interval_clause(a, b) == reference_interval_clause(a, b)
            seen.add((reference_interleaved(a, b), reference_interval_clause(a, b)))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def reference_chords_cross(a, b):
    """The chord crossing test `obstructions` kept for itself before
    `crosses` replaced it."""
    a1, a2 = sorted(a)
    inside = sum(1 for p in b if a1 < p < a2)
    return inside == 1


def test_crosses_matches_the_old_chord_test_and_classify_pair():
    chords = list(itertools.product(range(8), repeat=2))
    for a, b in itertools.product(chords, repeat=2):
        assert crosses(a, b) == reference_chords_cross(a, b)
        if len({*a, *b}) == 4:
            pair = classify_pair(LinkPath(*sorted(a)), LinkPath(*sorted(b)))
            assert crosses(a, b) == (pair == CROSSING)


def test_pure_linkage_has_its_type():
    rng = random.Random(1)
    for _ in range(200):
        h = rng.randint(2, 8)
        slots = sorted(rng.sample(range(50), 2 * h))
        for kind in LINKAGE_TYPES:
            paths = pure_linkage(kind, slots)
            assert len(paths) == h
            assert sorted(x for p in paths for x in p.interval) == slots
            assert linkage_type(paths) == kind
            assert paths == _family_from_slots(slots, kind, h)


def test_pure_linkage_hand_cases():
    assert pure_linkage(SERIES, [0, 1, 2, 3]) == [lp(0, 1), lp(2, 3)]
    assert pure_linkage(NESTED, [0, 1, 2, 3]) == [lp(0, 3), lp(1, 2)]
    assert pure_linkage(CROSSING, [0, 1, 2, 3]) == [lp(0, 2), lp(1, 3)]
    with pytest.raises(LinkageError):
        pure_linkage("spiral", [0, 1])


def test_extract_pure_returns_a_nested_linkage_when_no_run_crosses():
    # eight intervals nested in one another: no two are disjoint and no two
    # cross, so the decreasing run of right ends gives the nested linkage
    paths = [LinkPath(i, 15 - i) for i in range(8)]
    assert extract_pure(paths, 2) == (NESTED, [LinkPath(0, 15), LinkPath(1, 14)])


# one call per rejection of the linkage checks that no other test reaches
LINKAGE_REJECTIONS = {
    "left = right": (lambda: LinkPath(3, 3), "endpoints must satisfy left < right"),
    "left > right": (lambda: LinkPath(4, 1), "endpoints must satisfy left < right"),
    "a shared endpoint": (
        lambda: extract_pure([LinkPath(0, 1), LinkPath(1, 2)], 1),
        "linkage paths must have pairwise distinct endpoints",
    ),
    "extract_pure with t = 0": (lambda: extract_pure([LinkPath(0, 1)], 0), "t must be positive"),
    "separate_linkages with 3 and 4 paths": (
        lambda: separate_linkages(
            [LinkPath(2 * i, 2 * i + 1) for i in range(3)], [LinkPath(10 + 2 * i, 11 + 2 * i) for i in range(4)], 1
        ),
        "both linkages must have size exactly 4t",
    ),
}


@pytest.mark.parametrize("case", list(LINKAGE_REJECTIONS))
def test_linkage_checks_name_each_rejection(case):
    call, message = LINKAGE_REJECTIONS[case]
    with pytest.raises(LinkageError) as info:
        call()
    assert str(info.value) == message
