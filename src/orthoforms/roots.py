"""Root sets in positive definite lattices.

Detection enumerates all short vectors whose reflections preserve the
lattice; decomposition splits them along the non-orthogonality graph and
identifies each piece by rank, root count and norm multiset.  Modified
Coxeter numbers follow the thirteen-case table keyed by the divisor data
of the short roots and, where that data is ambiguous, an explicit subcase
tag supplied by the caller.

``TYPES`` is the single source of the facts of the nine Cartan types; the
component checks, ``_identify``, ``modified_coxeter_value``, ``realize``,
``display_name`` (both labels) and the pool of ``classify`` read it.

Dual sets are built on integers: r/m is the integer tuple r (s/m) over
s = lcm of the m in use, which sorts like the Fractions because s > 0, and
each distinct coordinate becomes one Fraction.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction as Q
from math import gcd, lcm
from operator import itemgetter, mul
from typing import Callable, Sequence

from . import linalg
from .lattice import Lattice, builtin_lattice, short_vectors


class UnrecognizedRootSystemError(ValueError):
    pass


class SubcaseRequiredError(ValueError):
    pass


class InconsistentDivProfileError(ValueError):
    pass


@dataclass(frozen=True)
class CartanType:
    """One Cartan type (Bourbaki, Lie Groups and Lie Algebras, VI, Plates I-IX).

    ``ratio`` is the long/short norm ratio, None when simply laced (long roots
    have div ratio * d); ``counts(n)`` the (short, long) root counts; ``h(n)``
    the modified Coxeter number times d at short-root div d; ``lattice(n)``
    the built-in lattice ``realize`` uses.
    """

    ranks: range
    ratio: int | None
    counts: Callable[[int], tuple[int, int]]
    h: Callable[[int], int]
    lattice: Callable[[int], str]
    scale: int = 1  # labels show scale * d


TYPES: dict[str, CartanType] = {
    "A": CartanType(range(1, 9), None, lambda n: (n * (n + 1), 0), lambda n: n + 1, lambda n: f"A{n}"),
    "B": CartanType(range(2, 9), 2, lambda n: (2 * n, 2 * n * (n - 1)), lambda n: n + 1, lambda n: f"{n}A1", 2),
    "C": CartanType(range(3, 9), 2, lambda n: (2 * n * (n - 1), 2 * n), lambda n: 2 * n - 1,
                    lambda n: f"D{n}" if n > 3 else "A3"),
    "D": CartanType(range(4, 9), None, lambda n: (2 * n * (n - 1), 0), lambda n: 2 * n - 2, lambda n: f"D{n}"),
    "E6": CartanType(range(6, 7), None, lambda n: (72, 0), lambda n: 12, lambda n: "E6"),
    "E7": CartanType(range(7, 8), None, lambda n: (126, 0), lambda n: 18, lambda n: "E7"),
    "E8": CartanType(range(8, 9), None, lambda n: (240, 0), lambda n: 30, lambda n: "E8"),
    "F4": CartanType(range(4, 5), 2, lambda n: (24, 24), lambda n: 9, lambda n: "D4", 2),
    "G2": CartanType(range(2, 3), 3, lambda n: (6, 6), lambda n: 4, lambda n: "A2"),
}
SUBCASES = ("i", "ii", "iii")


def _checked(type_tag: str, rank: int, unknown: str) -> CartanType:
    """The table entry of a known type whose rank is in range."""
    if type_tag not in TYPES:
        raise ValueError(unknown)
    ct = TYPES[type_tag]
    if rank not in ct.ranks:
        raise ValueError(f"rank {rank} out of range for type {type_tag}")
    return ct


def _short_div_may_double(type_tag: str, rank: int) -> bool:
    """A1 and B short roots may have div 2d, which the subcase tag i/ii/iii resolves."""
    return type_tag == "B" or (type_tag == "A" and rank == 1)


def display_name(type_tag: str, rank: int, d: int) -> tuple[str, int]:
    """Label name and scale: A-D names carry the rank, B and F4 show 2d."""
    return (f"{type_tag}{rank}" if len(type_tag) == 1 else type_tag), TYPES[type_tag].scale * d


@dataclass(frozen=True)
class RootDatum:
    """A finite reflective vector set in a positive definite lattice."""

    lattice: Lattice
    roots: tuple[tuple[int, ...], ...]

    def __len__(self):
        return len(self.roots)

    def norms(self) -> dict[int, int]:
        return dict(Counter(int(self.lattice.norm(r)) for r in self.roots))


def detect_roots(lat: Lattice, max_norm: int) -> RootDatum:
    """All vectors of norm <= max_norm whose reflection preserves the lattice.

    A vector qualifies exactly when its norm divides twice its divisor.
    """
    if lat.rank > 8:
        raise ValueError("root detection is limited to rank <= 8")
    roots = []
    for v in short_vectors(lat, max_norm):
        gv = lat.gram_times(v)  # norm and divisor both read G·v
        if (2 * linalg.vec_gcd(gv)) % sum(map(mul, v, gv)) == 0:
            roots.append(v)
    return RootDatum(lat, tuple(roots))


@dataclass(frozen=True)
class IrreducibleComponent:
    """One irreducible piece of a detected root set.

    ``d`` is half the short-root norm.  ``short_div`` and ``long_div`` are
    divisors in the ambient lattice; the div of the short roots may be
    overridden to encode an embedding into a larger lattice than the one the
    roots were detected in.  The ``subcase`` tag (i/ii/iii) resolves the
    table ambiguity for A1 and B components whose short roots have div 2d;
    it depends on the modular form, not on the lattice, and is never
    inferred.
    """

    lattice: Lattice
    type_tag: str
    rank: int
    d: int
    roots: tuple[tuple[int, ...], ...]
    short_div: int
    long_div: int | None
    subcase: str | None = None

    def __post_init__(self):
        t, n = self.type_tag, self.rank
        ratio = _checked(t, n, f"unknown type tag {t!r}").ratio
        if self.d < 1:
            raise ValueError("rescale must be positive")
        ambiguous = _short_div_may_double(t, n)
        if self.short_div not in ((self.d, 2 * self.d) if ambiguous else (self.d,)):
            raise InconsistentDivProfileError(
                f"short-root div {self.short_div} must be d or 2d for {t}{n}"
                if ambiguous
                else f"short-root div {self.short_div} must equal d={self.d} for {t}{n}"
            )
        if ratio and self.long_div != ratio * self.d:
            raise InconsistentDivProfileError(
                f"long-root div {self.long_div} inconsistent for {t}{n}(d={self.d})"
            )
        if not ratio and self.long_div is not None:
            raise InconsistentDivProfileError(f"type {t} has no long roots")
        if self.subcase is not None:
            if self.subcase not in SUBCASES:
                raise ValueError(f"bad subcase {self.subcase!r}")
            if not (ambiguous and self.short_div == 2 * self.d):
                raise ValueError("subcase tag only applies to A1/B with div 2d")

    @property
    def scale(self) -> int:
        """Form-scale parameter as used in component labels: 2d for B and F4."""
        return display_name(self.type_tag, self.rank, self.d)[1]

    @property
    def label(self) -> str:
        return "{}({})".format(*display_name(self.type_tag, self.rank, self.d))

    def short_roots(self):
        return tuple(r for r in self.roots if self.lattice.norm(r) == 2 * self.d)

    def long_roots(self):
        return tuple(r for r in self.roots if self.lattice.norm(r) != 2 * self.d)


def _class_div(lat: Lattice, vectors) -> int:
    divs = {lat.div(v) for v in vectors}
    if len(divs) != 1:
        raise UnrecognizedRootSystemError(
            f"length class has non-constant div values {sorted(divs)}"
        )
    return divs.pop()


def _match(rank: int, ratio, counts: tuple[int, int]) -> str | None:
    """The tag of the type with this rank, long/short norm ratio and (short, long) counts."""
    return next(
        (t for t, ct in TYPES.items() if ct.ratio == ratio and rank in ct.ranks and ct.counts(rank) == counts),
        None,
    )


def _identify(lat: Lattice, roots: Sequence[tuple[int, ...]]) -> IrreducibleComponent:
    by_norm: dict[int, list] = {}
    for r in roots:
        by_norm.setdefault(int(lat.norm(r)), []).append(r)
    norms = sorted(by_norm)
    k = linalg.rank(tuple(roots))
    if len(norms) == 1:
        nn = norms[0]
        if nn % 2:
            raise UnrecognizedRootSystemError(f"odd root norm {nn}")
        tag = _match(k, None, (len(roots), 0))
        if tag is None:
            raise UnrecognizedRootSystemError(f"single-norm system: rank {k}, {len(roots)} roots, norm {nn}")
        return IrreducibleComponent(lat, tag, k, nn // 2, tuple(roots), _class_div(lat, roots), None)
    if len(norms) == 2:
        n1, n2 = norms
        c1, c2 = len(by_norm[n1]), len(by_norm[n2])
        if n1 % 2:
            raise UnrecognizedRootSystemError(f"odd short norm {n1}")
        short_div, long_div = _class_div(lat, by_norm[n1]), _class_div(lat, by_norm[n2])
        ratio = Q(n2, n1)
        tag = _match(k, ratio, (c1, c2))
        if tag is None:
            # at ratio 2 (B, C, F4) it is the counts that failed to match
            raise UnrecognizedRootSystemError(
                f"two-norm system: rank {k}, counts ({c1},{c2}), norms ({n1},{n2})"
                if ratio == 2
                else f"norm ratio {ratio} matches no crystallographic type"
            )
        return IrreducibleComponent(lat, tag, k, n1 // 2, tuple(roots), short_div, long_div)
    raise UnrecognizedRootSystemError(f"{len(norms)} distinct root norms")


def decompose(rd: RootDatum) -> list[IrreducibleComponent]:
    """Connected components of the non-orthogonality graph, identified.

    Unidentifiable components raise UnrecognizedRootSystemError; nothing is
    dropped silently.
    """
    if not rd.roots:
        raise ValueError("cannot decompose an empty root set")
    roots = list(rd.roots)
    images = [rd.lattice.gram_times(r) for r in roots]
    parent = list(range(len(roots)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    # (r_i, r_j) = (G r_i) . r_j on ints; pairs already joined are skipped
    for i, image in enumerate(images):
        ri = find(i)
        for j in range(i + 1, len(roots)):
            rj = find(j)
            if rj != ri and sum(map(mul, image, roots[j])):
                parent[rj] = ri
    groups: dict[int, list] = {}
    for i in range(len(roots)):
        groups.setdefault(find(i), []).append(roots[i])
    comps = [_identify(rd.lattice, sorted(g)) for g in groups.values()]
    comps.sort(key=lambda c: (c.rank, c.type_tag, c.d, c.roots))
    return comps


# ---------------------------------------------------------------------------
# dual root sets and the two Coxeter constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DualRoot:
    """A dual vector together with whether its half still pairs integrally."""

    coords: tuple[Q, ...]
    half_in_dual: bool


def build_dual_set(comp: IrreducibleComponent) -> tuple[DualRoot, ...]:
    """The dual vector set supporting the component's mirrors, sorted by coordinates.

    Follows the case table: short roots r of div d dualize as r/d, long
    roots (B, C, F4, G2) as s/div(s).  Short roots of A1 and B with div 2d
    branch on the subcase tag, which records whether r/d and r/(2d) both
    support mirrors: i keeps r/(2d), ii keeps r/d (flagged: its half pairs
    integrally) and r/(2d), iii keeps r/d flagged.
    """
    d, shorts = comp.d, comp.short_roots()
    if comp.short_div == d:
        parts = [(shorts, d, False)]
    else:
        parts = {
            "i": [(shorts, 2 * d, False)],
            "ii": [(shorts, d, True), (shorts, 2 * d, False)],
            "iii": [(shorts, d, True)],
        }[_require_subcase(f"component {comp.label}", comp.subcase)]
    if comp.long_div is not None:
        parts.append((comp.long_roots(), comp.long_div, False))
    # sort on r * (scale / m) = scale * (r / m), integers in the order of the Fractions
    scale = lcm(*(m for _, m, _ in parts))
    keyed = sorted(
        ((tuple([v * (scale // m) for v in r]), half) for vectors, m, half in parts for r in vectors),
        key=itemgetter(0),
    )
    coords = linalg._divided([x for x, _ in keyed], scale)
    return tuple(DualRoot(c, half) for c, (_, half) in zip(coords, keyed))


def _require_subcase(what: str, subcase: str | None) -> str:
    if subcase not in SUBCASES:
        raise SubcaseRequiredError(f"{what} with short div 2d requires a subcase tag")
    return subcase


def _rank_one_sum(n: int, weighted_images) -> tuple[list[list[int]], int]:
    """sum_y w_y y y^T over integer vectors y, as an n x n integer matrix M over den.

    A term with weight w = p / t is p / t times the integer matrix y y^T; the
    common denominator grows only when a term needs it, which never happens
    for integer weights.
    """
    m = [[0] * n for _ in range(n)]
    den = 1
    for y, w in weighted_images:
        num, t = w.numerator, w.denominator
        if not num:
            continue
        if den % t:
            grow = t // gcd(den, t)
            m = [[v * grow for v in row] for row in m]
            den *= grow
        num *= den // t
        support = [(i, v) for i, v in enumerate(y) if v]
        for i, yi in support:
            row, a = m[i], num * yi
            for j, yj in support:
                row[j] += a * yj
    return m, den


def _gram_ratio(lhs, rhs) -> tuple[Q | None, str | None]:
    """The c with lhs = c rhs entrywise, for integer matrices.

    Entries are visited row by row.  Returns (c, None) on success; (None,
    "zero") at the first entry where rhs is zero and lhs is not; (None,
    "ratio") at the first entry whose ratio differs from the earlier ones;
    and (None, None) when rhs is all zero.
    """
    c = None
    for lrow, rrow in zip(lhs, rhs):
        for a, b in zip(lrow, rrow):
            if b == 0:
                if a != 0:
                    return None, "zero"
            elif c is None:
                c = Q(a, b)
            elif a * c.denominator != b * c.numerator:
                return None, "ratio"
    return c, None


def sum_rule_constant(gram, weighted_vectors) -> Q | None:
    """The constant c with sum_x w_x (x,z)^2 = 2c (z,z) on the span, or None.

    ``weighted_vectors`` is an iterable of (coords, weight) pairs with
    rational coordinates in the basis of ``gram``.  The identity is checked
    as an exact matrix equation restricted to the span of the vectors: with
    B a basis of the span, B S B^T = 2c B G B^T, where S = sum_x w_x
    (G x)(G x)^T.  Each G x is y / e with y integral (``linalg._int_image``),
    so S sums w / e^2 times y y^T; scaling the rows of B to integers scales
    both sides alike, so the check runs on ints.
    """
    vectors = [(v, Q(w)) for v, w in weighted_vectors]
    if not vectors:
        return None
    images = [(linalg._int_image(gram, v), w) for v, w in vectors]
    s, den = _rank_one_sum(len(gram), [(y, w / (e * e)) for (y, e), w in images])
    basis = []
    for v, _ in vectors:
        if len(basis) == len(gram):
            break
        if linalg.rank(tuple(basis) + (v,)) > len(basis):
            basis.append(v)
    b = tuple(tuple(linalg._int_row(v)) for v in basis)
    bt = linalg.transpose(b)
    lhs = linalg.mat_mul(linalg.mat_mul(b, s), bt)
    rhs = linalg.mat_mul(linalg.mat_mul(b, gram), bt)
    c, _ = _gram_ratio(lhs, rhs)
    return None if c is None else c / (2 * den)


def coxeter_number(comp: IrreducibleComponent) -> int:
    """Coxeter constant of the type at unit scale.

    Computed as d times the exact sum-rule constant of the component's plain
    dual set, so the value is independent of the rescale and matches the
    quadratic identity rather than being read from a table.
    """
    plain = dataclasses.replace(comp, short_div=comp.d, subcase=None)
    ds = build_dual_set(plain)
    c = sum_rule_constant(comp.lattice.gram, [(x.coords, 1) for x in ds])
    if c is None:
        raise ArithmeticError(
            f"sum rule failed on the plain dual set of {comp.label}"
        )
    h = c * comp.d
    if h.denominator != 1 or h <= 0:
        raise ArithmeticError(f"non-integral Coxeter constant {h} for {comp.label}")
    return int(h)


def modified_coxeter_value(type_tag: str, rank: int, d: int, div_case: str, subcase: str | None) -> Q:
    """Table of modified Coxeter numbers keyed by (type, d, div case, subcase).

    ``div_case`` is "d" or "2d" and describes the div of the short roots in
    the ambient lattice; it only branches for A1 and B components, where
    B's three subcase formulas give A1's values at n = 1.
    """
    n = rank
    if div_case != "d":
        if not _short_div_may_double(type_tag, n):
            raise InconsistentDivProfileError(f"div 2d does not occur for type {type_tag}")
        values = {"i": Q(2 * n - 1, 2 * d), "ii": Q(n + 1, d), "iii": Q(2 * n + 1, 2 * d)}
        return values[_require_subcase(f"type {type_tag}", subcase)]
    if type_tag not in TYPES:
        raise ValueError(f"unknown type {type_tag}")
    return Q(TYPES[type_tag].h(n), d)


def modified_coxeter(comp: IrreducibleComponent) -> Q:
    div_case = "d" if comp.short_div == comp.d else "2d"
    return modified_coxeter_value(
        comp.type_tag, comp.rank, comp.d, div_case, comp.subcase
    )


# ---------------------------------------------------------------------------
# realizations of the table types on built-in lattices
# ---------------------------------------------------------------------------


def realize(type_tag: str, rank: int, d: int = 1) -> IrreducibleComponent:
    """Build a concrete component of the given type on its built-in lattice.

    The lattice ``TYPES`` names is rescaled by d and searched up to norm
    2d * ratio; C_n keeps an orthogonal frame of its long vectors.
    """
    ct = _checked(type_tag, rank, f"unknown type {type_tag}")
    lat = builtin_lattice(f"{ct.lattice(rank)}({d})")
    rd = detect_roots(lat, 2 * d * (ct.ratio or 1))
    if type_tag == "C":
        shorts = [r for r in rd.roots if lat.norm(r) == 2 * d]
        frame = _orthogonal_frame(lat, [r for r in rd.roots if lat.norm(r) == 4 * d])
        if len(frame) != 2 * rank:
            raise AssertionError(f"C{rank} long frame has {len(frame)} vectors")
        rd = RootDatum(lat, tuple(sorted(shorts + frame)))
    comps = decompose(rd)
    if len(comps) != 1 or comps[0].type_tag != type_tag or comps[0].rank != rank:
        raise AssertionError(f"realization of {type_tag}{rank}({d}) failed: {comps}")
    return comps[0]


def _orthogonal_frame(lat: Lattice, vectors) -> list:
    """Greedy maximal pairwise-orthogonal subset closed under negation."""
    frame: list = []
    for v in sorted(vectors):
        if tuple(-x for x in v) in frame or all(lat.pairing(v, w) == 0 for w in frame):
            frame.append(v)
    return frame
