"""Group arithmetic for edge labels.

Supported groups: the integers, integers mod n, free abelian groups of
finite rank, free (non-abelian) groups on finitely many generators,
direct sums of two groups, and finitely generated abelian groups given
as quotients of Z^k (canonicalised through invariant factors).

Elements are immutable and hashable; all arithmetic is exact.

Each descriptor compiles once, on first use, into a `Table` over raw
payloads: add, negate, zero and fold (the sum of a list), klass (a key
shared by a value, its inverse and its conjugates), and make, encode and
draw, which check, serialise and randomly draw payloads.  A
`GroupElement`'s payload is its table's raw payload for every kind (a
direct sum's is the pair of its summands' raw payloads), so hot loops read
`a.payload` and build `GroupElement(desc, raw)` with no conversion.
`_compile` is the only place that switches on the kind of group for
elements: `op`, `inv`, `identity`, `is_zero`, `element`,
`random_element`, `encode_element` and `decode_element` all go through
the table (the descriptor grammar still reads the kind).  A free-group sum
cancels only at the seam of two reduced words, and a direct sum pairs the
tables of its summands.  A walk's value (`graphs.walk_payload`, the cycle
DFS, the rerooting prefix of `cycles.is_robust`) is one `fold` call over
its non-zero steps, the shift rule adds and negates raw values, and
`cycles.is_robust` skips a pair of cycles whose values' `klass` keys
differ, as no rerooting makes such values equal or inverse.  Only
`coordinate_groups` decides how a label splits into its two coordinates,
`coordinate_payload` reads one coordinate of a raw value, and
`zero_reader` is the one test of whether a raw value is zero in each.

Every constructor (`integers`, `cyclic`, `direct_sum`, `parse_descriptor`,
unpickling, copying, ...) goes through one intern table, so each distinct
group has one descriptor and one table per process, and descriptors compare
and hash by identity.  Each descriptor also has one zero element,
`identity(desc)`, which `decode_element` returns for every zero payload, so
a decoded zero label and a wall's zero label are the same object.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, NamedTuple, Optional, Sequence, Tuple

KIND_INTEGERS = "Z"
KIND_CYCLIC = "Zn"
KIND_FREE_ABELIAN = "ZA"
KIND_FREE_GROUP = "F"
KIND_DIRECT_SUM = "SUM"
KIND_QUOTIENT = "Q"


class GroupParseError(ValueError):
    """Raised when a group or element description cannot be parsed."""


@dataclass(frozen=True, eq=False)
class GroupDescriptor:
    """Identifies a concrete group; `n` is a modulus/rank/generator count
    depending on kind, `parts` holds summands (direct sum) or invariant
    factors (quotient).  Made only by `_intern`, so equal descriptors are
    the same object, and equality and hashing are the object's own."""

    kind: str
    n: int = 0
    parts: tuple = ()
    # compiled arithmetic, filled in by `table` on first use
    _table: Optional["Table"] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.kind == KIND_CYCLIC and self.n < 1:
            raise GroupParseError("cyclic modulus must be >= 1")
        if self.kind == KIND_FREE_ABELIAN and self.n < 0:
            raise GroupParseError("free abelian rank must be >= 0")
        if self.kind == KIND_FREE_GROUP and self.n < 0:
            raise GroupParseError("free group needs >= 0 generators")
        if self.kind == KIND_DIRECT_SUM and len(self.parts) != 2:
            raise GroupParseError("direct sum takes exactly two summands")

    @property
    def is_abelian(self) -> bool:
        if self.kind == KIND_FREE_GROUP:
            return self.n <= 1
        if self.kind == KIND_DIRECT_SUM:
            return self.parts[0].is_abelian and self.parts[1].is_abelian
        return True

    @property
    def is_trivial(self) -> bool:
        """Whether the identity is the group's only element."""
        if self.kind == KIND_DIRECT_SUM:
            return self.parts[0].is_trivial and self.parts[1].is_trivial
        if self.kind == KIND_QUOTIENT:
            return not self.parts
        if self.kind == KIND_CYCLIC:
            return self.n == 1
        return self.kind != KIND_INTEGERS and self.n == 0

    def __str__(self) -> str:
        return format_descriptor(self)

    def __reduce__(self):
        return _intern, (self.kind, self.n, self.parts)


@dataclass(frozen=True)
class GroupElement:
    """An element of the group named by `descriptor`; `payload` is the
    canonical raw payload of `table(descriptor)` (see `Table`)."""

    descriptor: GroupDescriptor
    payload: object

    def __add__(self, other: "GroupElement") -> "GroupElement":
        return op(self, other)

    def __neg__(self) -> "GroupElement":
        return inv(self)

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return op(self, inv(other))

    @property
    def is_zero(self) -> bool:
        return is_zero(self)

    def __str__(self) -> str:
        return repr(self.payload)


# every descriptor the constructors hand out, by (kind, n, parts)
_INTERNED: Dict[tuple, GroupDescriptor] = {}


def _intern(kind: str, n: int = 0, parts: tuple = ()) -> GroupDescriptor:
    """The one descriptor of this group in the process, made on first
    request.  Descriptors and their tables then live as long as the
    process, so no call leaves a descriptor-table cycle to the collector,
    and equal descriptors are identical."""
    key = (kind, n, parts)
    desc = _INTERNED.get(key)
    if desc is None:
        desc = _INTERNED[key] = GroupDescriptor(kind, n, parts)
    return desc


def integers() -> GroupDescriptor:
    return _intern(KIND_INTEGERS)


def cyclic(n: int) -> GroupDescriptor:
    return _intern(KIND_CYCLIC, n=n)


def free_abelian(k: int) -> GroupDescriptor:
    return _intern(KIND_FREE_ABELIAN, n=k)


def free_group(g: int) -> GroupDescriptor:
    return _intern(KIND_FREE_GROUP, n=g)


def direct_sum(left: GroupDescriptor, right: GroupDescriptor) -> GroupDescriptor:
    return _intern(KIND_DIRECT_SUM, parts=(left, right))


def quotient(factors: Iterable[int]) -> GroupDescriptor:
    """Abelian group with the given invariant factors (0 = a free Z summand).

    Factors equal to 1 are dropped; two quotient descriptors are equal
    exactly when their canonical factor tuples agree.
    """
    kept = tuple(d for d in factors if d != 1)
    for d in kept:
        if d < 0:
            raise GroupParseError("invariant factors must be >= 0")
    fin = [d for d in kept if d > 0]
    for a, b in zip(fin, fin[1:]):
        if b % a != 0:
            raise GroupParseError("invariant factors must form a divisibility chain")
    ordered = tuple(fin) + tuple(0 for d in kept if d == 0)
    return _intern(KIND_QUOTIENT, parts=ordered)


@functools.lru_cache(maxsize=None)
def identity(desc: GroupDescriptor) -> GroupElement:
    """The one zero element of `desc`, made on first request."""
    return GroupElement(desc, table(desc).zero)


def element(desc: GroupDescriptor, payload) -> GroupElement:
    """Build an element from a raw payload, normalising to canonical form."""
    return GroupElement(desc, table(desc).make(payload))


def _reduce_words(words: Iterable[Sequence[int]]) -> Tuple[int, ...]:
    """The reduced word of the words written one after another, in one pass
    over their letters: a letter cancels the one before it when inverse."""
    out: list[int] = []
    for word in words:
        for x in word:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
    return tuple(out)


class Table(NamedTuple):
    """The arithmetic of one group over raw payloads.

    A raw payload is an integer for the integers and a cyclic group, a
    tuple of integers for the vector kinds, a reduced word (a tuple of
    non-zero letters) for a free group, and the pair of its summands' raw
    payloads for a direct sum.  It is also the `GroupElement`'s payload.

    `fold(xs)` is the ordered sum `xs[0] + xs[1] + ...` of a list or tuple
    of raw payloads (`zero` for none) in one call: a `sum` for the
    integers, reduced once mod n for a cyclic group, a `sum` per column
    for the vector kinds, one cancelling pass over the letters for a free
    group, and one column per summand for a direct sum.  Raw payloads are
    canonical and addition is associative, so `fold(xs)` equals the
    pairwise left fold of `add` from `zero`, also in a free group, where
    the order of `xs` matters.  `make`
    checks a loose payload (an integer by `as_integer`, a list or tuple of
    them for the vector and word kinds, or a pair of loose payloads or
    summand elements for a direct sum) and returns the canonical raw
    payload, `encode` turns a raw payload into its
    JSON value, and `draw(rng, span)` draws a pseudo-random raw payload.

    `klass(x)` is a hashable key that is the same for x, for `neg(x)` and
    for every conjugate -p + x + p, so two values whose keys differ are
    neither equal nor inverse after any rerooting (see `cycles.is_robust`).
    An abelian group's key is x up to sign (`min(x, neg(x))`, or `abs` for
    the integers), which is exact: two keys agree exactly when the values
    are equal or inverse.  A free group's key is the sorted letters of the
    cyclically reduced word, taken up to sign: a conjugate's cyclically
    reduced word is a rotation of it, and the inverse's negates its
    letters.  A non-abelian direct sum pairs its summands' keys.
    """

    add: Callable[[Any, Any], Any]
    neg: Callable[[Any], Any]
    zero: Any
    fold: Callable[[Sequence[Any]], Any]
    klass: Callable[[Any], Any]
    make: Callable[[Any], Any]
    encode: Callable[[Any], Any]
    draw: Callable[[Any, int], Any]


def table(desc: GroupDescriptor) -> Table:
    """The compiled arithmetic of `desc`, built on first use and kept on
    the descriptor."""
    t = desc._table
    if t is None:
        t = _compile(desc)
        object.__setattr__(desc, "_table", t)
    return t


def as_integer(value) -> int:
    """An int, an integral float or a decimal string (an optional sign and
    ASCII digits, nothing else) as an integer, with ValueError for anything
    else (a bool, a fraction, `"1_0"`, `" 7 "`, non-ASCII digits): the one
    rule for integers in label payloads, instance files, certificates and
    vertex options."""
    if type(value) is int:  # the common case, first: instance files hold many
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, str):
        digits = value[1:] if value.startswith(("+", "-")) else value
        if digits.isascii() and digits.isdigit():
            return int(value)
    raise ValueError(f"{value!r} is not an integer")


def _entries(payload, what: str, length: Optional[int]):
    """A list or tuple payload, checked to have `length` entries unless
    `length` is None."""
    if not isinstance(payload, (list, tuple)):
        raise GroupParseError(f"{what} payload must be a list")
    if length is not None and len(payload) != length:
        raise GroupParseError(f"{what} payload has wrong length")
    return payload


def _compile(desc: GroupDescriptor) -> Table:
    k, n = desc.kind, desc.n
    if k == KIND_INTEGERS:
        # a decimal string keeps arbitrary precision portable
        return Table(
            operator.add,
            operator.neg,
            0,
            sum,
            abs,
            as_integer,
            str,
            lambda rng, span: rng.randint(-span, span),
        )
    if k == KIND_CYCLIC:
        return Table(
            lambda p, q: (p + q) % n,
            lambda p: -p % n,
            0,
            lambda xs: sum(xs) % n,
            lambda p: min(p, -p % n),
            lambda p: as_integer(p) % n,
            lambda p: p,
            lambda rng, span: rng.randrange(n),
        )
    if k == KIND_FREE_ABELIAN:
        zero = (0,) * n
        return Table(
            lambda p, q: tuple(map(operator.add, p, q)),
            lambda p: tuple(map(operator.neg, p)),
            zero,
            # the zero as a first row gives an empty list its columns
            lambda xs: tuple(map(sum, zip(zero, *xs))),
            lambda p: min(p, tuple(map(operator.neg, p))),
            lambda p: tuple(map(as_integer, _entries(p, "free abelian", n))),
            list,
            lambda rng, span: tuple(rng.randint(-span, span) for _ in range(n)),
        )
    if k == KIND_FREE_GROUP:

        def add(p, q):
            # both words are reduced, so letters cancel only at the seam
            if not p or not q or p[-1] != -q[0]:
                return p + q
            i, m = 1, min(len(p), len(q))
            while i < m and p[-1 - i] == -q[i]:
                i += 1
            return p[: len(p) - i] + q[i:]

        def make(p):
            word = tuple(map(as_integer, _entries(p, "free group", None)))
            for x in word:
                if x == 0 or abs(x) > n:
                    raise GroupParseError("free group letter out of range")
            return _reduce_words((word,))

        def draw(rng, span):
            length = rng.randint(0, span)
            word = []
            for _ in range(length if n else 0):
                g = rng.randint(1, n)
                word.append(g if rng.random() < 0.5 else -g)
            return _reduce_words((word,))

        def klass(p):
            # the cyclically reduced core: every conjugate's core is a rotation of it
            i, j = 0, len(p) - 1
            while i < j and p[i] == -p[j]:
                i += 1
                j -= 1
            core = sorted(p[i : j + 1])
            return min(tuple(core), tuple(-x for x in reversed(core)))

        # inversion reverses the word and negates each letter
        return Table(
            add, lambda p: tuple(-x for x in reversed(p)), (), _reduce_words, klass, make, list, draw
        )
    if k == KIND_DIRECT_SUM:
        parts = desc.parts
        left, right = table(parts[0]), table(parts[1])
        ladd, radd, lneg, rneg = left.add, right.add, left.neg, right.neg
        lfold, rfold, zero = left.fold, right.fold, (left.zero, right.zero)

        def summand(x, part, t):
            # a raw entry goes straight to the summand's make; an element
            # entry must already live in that summand
            if not isinstance(x, GroupElement):
                return t.make(x)
            if x.descriptor is not part:
                raise GroupParseError("direct sum components in wrong groups")
            return x.payload

        def make(p):
            a, b = _entries(p, "direct sum", 2)
            return summand(a, parts[0], left), summand(b, parts[1], right)

        def fold(xs):
            if not xs:
                return zero
            a, b = zip(*xs)  # each summand folds its own column
            return lfold(a), rfold(b)

        def neg(p):
            return lneg(p[0]), rneg(p[1])

        lklass, rklass = left.klass, right.klass
        if desc.is_abelian:  # up to sign, which is exact

            def klass(p):
                return min(p, neg(p))

        else:

            def klass(p):
                return lklass(p[0]), rklass(p[1])

        return Table(
            lambda p, q: (ladd(p[0], q[0]), radd(p[1], q[1])),
            neg,
            zero,
            fold,
            klass,
            make,
            lambda p: [left.encode(p[0]), right.encode(p[1])],
            lambda rng, span: (left.draw(rng, span), right.draw(rng, span)),
        )
    if k == KIND_QUOTIENT:
        factors = desc.parts

        def make(p):
            vec = map(as_integer, _entries(p, "quotient", len(factors)))
            return tuple(x % d if d else x for x, d in zip(vec, factors))

        def neg(p):
            return tuple(-x % d if d else -x for x, d in zip(p, factors))

        zero = (0,) * len(factors)
        return Table(
            lambda p, q: tuple((x + y) % d if d else x + y for x, y, d in zip(p, q, factors)),
            neg,
            zero,
            lambda xs: tuple(s % d if d else s for s, d in zip(map(sum, zip(zero, *xs)), factors)),
            lambda p: min(p, neg(p)),
            make,
            list,
            lambda rng, span: make(tuple(rng.randint(-span, span) for _ in factors)),
        )
    raise GroupParseError(f"unknown group kind {k!r}")


def op(a: GroupElement, b: GroupElement) -> GroupElement:
    desc = a.descriptor
    if b.descriptor is not desc:
        raise GroupParseError("operands live in different groups")
    return GroupElement(desc, table(desc).add(a.payload, b.payload))


def inv(a: GroupElement) -> GroupElement:
    return GroupElement(a.descriptor, table(a.descriptor).neg(a.payload))


def is_zero(a: GroupElement) -> bool:
    return a.payload == table(a.descriptor).zero


def coordinate_groups(desc: GroupDescriptor) -> Tuple[GroupDescriptor, ...]:
    """The groups of a label's coordinates, each once: the two summands of a
    direct sum, or `desc` alone, a single group being both coordinates."""
    return desc.parts if desc.kind == KIND_DIRECT_SUM else (desc,)


def project(a: GroupElement, side: int) -> GroupElement:
    """Coordinate projection of a direct-sum element (side 0 or 1)."""
    if len(coordinate_groups(a.descriptor)) != 2:
        raise GroupParseError("projection needs a direct-sum element")
    if side not in (0, 1):
        raise GroupParseError("side must be 0 or 1")
    return coordinates(a)[side]


def coordinates(a: GroupElement) -> Tuple[GroupElement, GroupElement]:
    """The (first, second) coordinates of a label value: the two summands
    of a direct-sum element, built on read, or the element twice for a
    single group."""
    parts = coordinate_groups(a.descriptor)
    return tuple(map(GroupElement, parts, a.payload)) if len(parts) == 2 else (a, a)


@functools.lru_cache(maxsize=None)
def coordinate_payload(desc: GroupDescriptor, i: int) -> Callable[[Any], Any]:
    """`raw -> raw payload of coordinate i` for the raw payloads of `desc`
    (see `Table`), in the table of `coordinate_groups(desc)[i]`: the raw
    counterpart of `coordinates`, compiled once per descriptor and coordinate."""
    if len(coordinate_groups(desc)) == 2:
        return operator.itemgetter(i)
    return lambda raw: raw


# `_FLAGS[z0][z1] == (z0, z1)`: a zero reader's four answers, built once
_FLAGS = (((False, False), (False, True)), ((True, False), (True, True)))


@functools.lru_cache(maxsize=None)
def zero_reader(desc: GroupDescriptor) -> Callable[[Any], Tuple[bool, bool]]:
    """`raw -> (zero in coordinate 0, zero in coordinate 1)` for the raw
    payloads of `desc` (see `Table`), read without building the element or
    any tuple; compiled once per descriptor."""
    zeros = [table(part).zero for part in coordinate_groups(desc)]
    if len(zeros) == 2:
        left, right = zeros
        return lambda raw: _FLAGS[raw[0] == left][raw[1] == right]
    zero = zeros[0]
    return lambda raw: _FLAGS[raw == zero][raw == zero]


def zero_flags(a: GroupElement) -> Tuple[bool, bool]:
    """`zero_reader` read on the element `a`."""
    return zero_reader(a.descriptor)(a.payload)


def random_element(desc: GroupDescriptor, rng, span: int = 4) -> GroupElement:
    """Draw a pseudo-random element (used by generators and fuzz tests)."""
    return GroupElement(desc, table(desc).draw(rng, span))


# ---------------------------------------------------------------------------
# descriptor grammar: z | z<n> | free<g> | za<k> | sum(<d>,<d>) | q(<d1>,...)


def format_descriptor(desc: GroupDescriptor) -> str:
    k = desc.kind
    if k == KIND_INTEGERS:
        return "z"
    if k == KIND_CYCLIC:
        return f"z{desc.n}"
    if k == KIND_FREE_ABELIAN:
        return f"za{desc.n}"
    if k == KIND_FREE_GROUP:
        return f"free{desc.n}"
    if k == KIND_DIRECT_SUM:
        return f"sum({format_descriptor(desc.parts[0])},{format_descriptor(desc.parts[1])})"
    if k == KIND_QUOTIENT:
        return "q(" + ",".join(str(d) for d in desc.parts) + ")"
    raise GroupParseError(f"unknown group kind {k!r}")


def parse_descriptor(text: str) -> GroupDescriptor:
    desc, rest = _parse_desc(text.strip().lower())
    if rest:
        raise GroupParseError(f"trailing characters in group description: {rest!r}")
    return desc


def _parse_desc(text: str) -> tuple[GroupDescriptor, str]:
    if text.startswith("sum("):
        left, rest = _parse_desc(text[4:])
        if not rest.startswith(","):
            raise GroupParseError("sum(...) expects two comma-separated groups")
        right, rest = _parse_desc(rest[1:])
        if not rest.startswith(")"):
            raise GroupParseError("unterminated sum(...)")
        return direct_sum(left, right), rest[1:]
    if text.startswith("q("):
        body, _, rest = text[2:].partition(")")
        if _ != ")":
            raise GroupParseError("unterminated q(...)")
        try:
            factors = [as_integer(x.strip()) for x in body.split(",")] if body else []
        except ValueError:
            raise GroupParseError(f"q(...) takes comma-separated integers, not {body!r}") from None
        return quotient(factors), rest
    if text.startswith("free"):
        num, rest = _take_int(text[4:])
        return free_group(num), rest
    if text.startswith("za"):
        num, rest = _take_int(text[2:])
        return free_abelian(num), rest
    if text.startswith("z"):
        body = text[1:]
        if not body or body[0] not in _DIGITS:
            return integers(), body
        num, rest = _take_int(body)
        return cyclic(num), rest
    raise GroupParseError(f"cannot parse group description: {text!r}")


_DIGITS = "0123456789"


def _take_int(text: str) -> tuple[int, str]:
    """The ASCII digits that start `text` as an integer, and the rest."""
    i = 0
    while i < len(text) and text[i] in _DIGITS:
        i += 1
    if i == 0:
        raise GroupParseError(f"expected a number at {text!r}")
    return int(text[:i]), text[i:]


# ---------------------------------------------------------------------------
# JSON payload encoding


def encode_element(a: GroupElement):
    return table(a.descriptor).encode(a.payload)


def decode_element(desc: GroupDescriptor, data) -> GroupElement:
    """The element of `desc` that the JSON value `data` encodes; a zero
    payload gives `identity(desc)` itself."""
    t = table(desc)
    try:
        raw = t.make(data)
    except (TypeError, ValueError) as exc:
        raise GroupParseError(f"bad element payload {data!r}: {exc}") from exc
    return identity(desc) if raw == t.zero else GroupElement(desc, raw)


# ---------------------------------------------------------------------------
# Smith normal form


def smith_normal_form(matrix: Sequence[Sequence[int]]):
    """Return (U, S, V) with U*M*V = S, U and V unimodular, S diagonal with
    each diagonal entry dividing the next; exact integer arithmetic."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    s = [list(map(int, row)) for row in matrix]
    for row in s:
        if len(row) != cols:
            raise ValueError("ragged matrix")
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def row_op(i, j, q):  # row_i -= q * row_j
        for c in range(cols):
            s[i][c] -= q * s[j][c]
        for c in range(rows):
            u[i][c] -= q * u[j][c]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in range(rows):
            s[r][i] -= q * s[r][j]
        for r in range(cols):
            v[r][i] -= q * v[r][j]

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in range(rows):
            s[r][i], s[r][j] = s[r][j], s[r][i]
        for r in range(cols):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    def negate_row(i):
        for c in range(cols):
            s[i][c] = -s[i][c]
        for c in range(rows):
            u[i][c] = -u[i][c]

    t = 0
    while True:
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if s[i][j] != 0 and (best is None or abs(s[i][j]) < best):
                    best = abs(s[i][j])
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            # clear column t below the pivot
            dirty = False
            for i in range(t + 1, rows):
                if s[i][t] != 0:
                    q = s[i][t] // s[t][t]
                    row_op(i, t, q)
                    if s[i][t] != 0:
                        swap_rows(i, t)
                        dirty = True
            for j in range(t + 1, cols):
                if s[t][j] != 0:
                    q = s[t][j] // s[t][t]
                    col_op(j, t, q)
                    if s[t][j] != 0:
                        swap_cols(j, t)
                        dirty = True
            if not dirty:
                break
        if s[t][t] < 0:
            negate_row(t)
        # enforce divisibility: pivot must divide every remaining entry
        fixed = False
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if s[i][j] % s[t][t] != 0:
                    row_op(t, i, -1)  # add row i to row t, then restart block
                    fixed = True
                    break
            if fixed:
                break
        if not fixed:
            t += 1
    return u, s, v


def quotient_with_projection(
    relations: Sequence[Sequence[int]], ncols: int
) -> tuple[GroupDescriptor, Callable[[Sequence[int]], GroupElement]]:
    """Group Z^ncols modulo the row span of `relations`, together with the
    projection map from raw coordinate vectors to canonical elements."""
    rel = [list(map(int, row)) for row in relations]
    for row in rel:
        if len(row) != ncols:
            raise ValueError("relation rows must have length ncols")
    if not rel:
        rel = [[0] * ncols]
    _, s, v = smith_normal_form(rel)
    diag = [s[i][i] for i in range(min(len(rel), ncols))]
    factors = [diag[i] if i < len(diag) else 0 for i in range(ncols)]
    desc = quotient(factors)
    kept = [i for i, d in enumerate(factors) if d != 1]

    def proj(coords: Sequence[int]) -> GroupElement:
        if len(coords) != ncols:
            raise ValueError("coordinate vector has wrong length")
        image = [sum(coords[r] * v[r][c] for r in range(ncols)) for c in range(ncols)]
        return element(desc, tuple(image[i] for i in kept))

    return desc, proj
