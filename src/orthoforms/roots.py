"""Root sets in positive definite lattices.

Detection keeps the mirrors: the primitive vectors whose reflections
preserve the lattice, one per reflection up to sign.  With c the content of
the Gram, every vector of norm <= 2c is a mirror and every other one is a
multiple of a vector of L* of norm <= 1/c, so two small enumerations find
them all; where those would be the larger search, L is searched up to 2e,
e the exponent of L*/L, past which no mirror lies (``_detected``).
Decomposition grows the components of the non-orthogonality graph one
root at a time and identifies each piece by rank, root count and norm
multiset.  Every root set here is closed under
r -> -r, and the work is done once per ± pair: detection finds the
lex-positive mirrors, each with the G·v and norm its enumeration carries,
and mirrors the result, decomposition places -r with r without a scan, and
one G·r per pair gives both norms and divs.  ``realize`` hands the
enumeration's (r, G·r, norm) to the decomposition step as they are, and
``decompose`` of a ``RootDatum``, just (lattice, roots), computes G·r
itself.  A component's long roots are a field, as the short/long split is
part of the component, so ``build_dual_set`` takes no norm; no record
keeps a per-root value beside its roots for a copy to leave stale.
``realize`` detects each (type, rank) of ``TYPES`` once per process, on
the unscaled lattice, so its memo holds at most 31 components; scale d is
that component with d, short_div and long_div times d (scaling multiplies
every norm and div by d and moves no mirror), and it passes the component
checks again.  Modified Coxeter numbers follow the thirteen-case table
keyed by the divisor data of the short roots and, where that data is
ambiguous, an explicit subcase tag supplied by the caller.

``TYPES`` is the single source of the facts of the nine Cartan types; the
component checks, ``_identify``, ``modified_coxeter_value``, ``realize``,
``display_name`` (both labels) and the candidate enumeration of
``classify`` read it.

Dual sets stay on integers: r/m is the integer tuple r (s/m) over
s = lcm of the m in use, which sorts like the Fractions because s > 0.  A
``DualRoot`` keeps that tuple and s, and ``weyl`` reads them as they are;
Fractions appear only where a caller asks for ``coords``.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import lru_cache
from itertools import chain, repeat
from math import gcd, lcm
from operator import itemgetter, mul, neg
from typing import Callable, Iterable, NamedTuple, Sequence

from . import linalg
from .lattice import Lattice, _short_half, builtin_lattice, discriminant_exponent


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


def detect_roots(lat: Lattice, max_norm: int) -> RootDatum:
    """The mirrors of norm <= max_norm: the primitive v whose reflection preserves the lattice, in lex order.

    v is reflective when norm(v) | 2 div(v), div(v) = gcd(G·v); that holds
    exactly when h = norm / gcd(norm, 2) divides div(v).  A reflective k·w,
    k >= 2, reflects in w's mirror and is left out.  The mirrors are found
    in L up to norm 2c and L* up to 1/c, c the content of the Gram, or, where
    those volumes would be the larger, in L up to 2e, e the exponent of
    L*/L (``_detected``).
    """
    return RootDatum(lat, tuple(linalg._mirrored([r for r, _, _ in _detected(lat, max_norm)])))


def _detected(lat: Lattice, max_norm: int) -> list[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """The (r, G·r, norm) of the lex-positive mirrors ``detect_roots`` finds, in lex order of r.

    Let c be the content of the Gram, M = L/c (scaling moves no mirror), e
    the exponent of M*/M and H = e G_M^-1, an integer matrix.  In M, a
    mirror v has h = div(v) | norm(v) <= 2h, so u = v / h is a primitive
    vector of M* of order h and norm 2/h or 1/h.  So either h = 1, v has
    norm 1 or 2 and every such v is a mirror, or norm(u) <= 1.  Two balls
    hold them all (Fincke and Pohst, Math. Comp. 44, 1985; Nikulin, 1980,
    for M*/M): L up to norm 2c, taken whole, and the y = G_M u of content 1
    with y^T H y <= e.  Each y gives k = gcd(e, H y), h = e / k and
    v = H y / k, kept up to sign when 2 < norm(v) <= max_norm / c and
    norm(v) | 2h; in L, G·v is c h y.  Where those are the larger search
    (``_dual_is_smaller``), as on small lattices and on skewed ones such as
    <2> + <2·10^12>, L is enumerated up to min(max_norm, 2ce) instead: in
    L, norm(v) <= 2 div(v) <= 2ce.  An odd or non-positive max_norm is
    passed on whole, for the enumeration to refuse.
    """
    if lat.rank > 8:
        raise ValueError("root detection is limited to rank <= 8")
    if max_norm <= 0 or max_norm % 2:
        return _short_half(lat, max_norm)
    c, e_l = gcd(*chain.from_iterable(lat.gram)), discriminant_exponent(lat)
    e = e_l // c  # L*/L has exponent c e
    bound = min(max_norm, 2 * e_l)
    if not _dual_is_smaller(lat.rank, c, e, lat.determinant // c**lat.rank, bound):
        # every vector of norm <= 2c is a mirror: only the longer ones are tested
        return [
            t for t in _short_half(lat, bound)
            if t[2] <= 2 * c or not gcd(*t[1]) % (t[2] // gcd(t[2], 2)) and gcd(*t[0]) == 1
        ]
    half = _short_half(lat, min(max_norm, 2 * c))
    form = tuple(linalg._scaled(row, e_l) for row in lat.dual_basis())  # H = e G_M^-1 = e_L G^-1
    try:
        dual = linalg._half_of_form(form, e)
    except ValueError:
        raise ValueError(f"dual vectors of norm <= {Q(1, c)} in rank {lat.rank} exceed the cap of {linalg.VECTOR_CAP}") from None
    for y, hy, q in dual:
        k = gcd(e, *hy)
        h, nm = e // k, e * q // (k * k)  # the order of u, and norm(v) in M
        if 2 < nm and c * nm <= max_norm and not 2 * h % nm and gcd(*y) == 1:
            v, f = tuple([x // k for x in hy]), c * h
            if not linalg.is_positive_direction(v):
                v, f = tuple(map(neg, v)), -f
            half.append((v, tuple([f * x for x in y]), c * nm))
    half.sort(key=itemgetter(0))
    return half


def _dual_is_smaller(n: int, c: int, e: int, det_m: int, bound: int) -> bool:
    """Whether M up to norm 2 and M* up to 1 are the smaller search than M up to r = bound / c.

    By volume they hold about 2^(n/2) / sqrt(det M), sqrt(det M) and
    r^(n/2) / sqrt(det M) vectors, n the rank.  The dual route needs the
    last to exceed 2^(n/2) sqrt(det M), a margin that keeps small
    lattices, where a second enumeration's fixed cost outweighs its
    saving, on M's ball.
    """
    return e > 1 and (2 * c) ** n * det_m * det_m < bound**n


@dataclass(frozen=True)
class IrreducibleComponent:
    """One irreducible piece of a detected root set.

    ``d`` is half the short-root norm.  ``short_div`` and ``long_div`` are
    divisors in the ambient lattice; the div of the short roots may be
    overridden to encode an embedding into a larger lattice than the one the
    roots were detected in.  The ``subcase`` tag (i/ii/iii) resolves the
    table ambiguity for A1 and B components whose short roots have div 2d;
    it depends on the modular form, not on the lattice, and is never
    inferred.  ``long_roots`` are the roots of the larger norm: nonempty
    exactly for a type with long roots (unless ``roots`` is empty) and a
    subset of ``roots``.
    """

    lattice: Lattice
    type_tag: str
    rank: int
    d: int
    roots: tuple[tuple[int, ...], ...]
    short_div: int
    long_div: int | None
    subcase: str | None = None
    long_roots: tuple[tuple[int, ...], ...] = ()

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
        if bool(self.long_roots) != bool(ratio and self.roots):
            raise ValueError(f"{t}{n} must have {'long roots' if ratio else 'no long roots'}")
        if self.long_roots and not set(self.long_roots).issubset(self.roots):
            raise ValueError("long roots must be roots of the component")

    @property
    def scale(self) -> int:
        """Form-scale parameter as used in component labels: 2d for B and F4."""
        return display_name(self.type_tag, self.rank, self.d)[1]

    @property
    def label(self) -> str:
        return "{}({})".format(*display_name(self.type_tag, self.rank, self.d))


def _class_div(divs: Iterable[int]) -> int:
    """The one div of a norm class, given its divs (a list, or a Counter of them)."""
    values = set(divs)
    if len(values) != 1:
        raise UnrecognizedRootSystemError(f"length class has non-constant div values {sorted(values)}")
    return values.pop()


def _match(rank: int, ratio, counts: tuple[int, int]) -> str | None:
    """The tag of the type with this rank, long/short norm ratio and (short, long) counts."""
    return next(
        (t for t, ct in TYPES.items() if ct.ratio == ratio and rank in ct.ranks and ct.counts(rank) == counts),
        None,
    )


def _identify(lat: Lattice, entries: Sequence[tuple[tuple[int, ...], int, int]]) -> IrreducibleComponent:
    """The component of the (root, norm, div) entries, sorted by root."""
    roots = tuple(map(itemgetter(0), entries))
    by_norm: dict[int, Counter] = {}  # div -> count in each norm class
    for (nn, div), count in Counter(map(itemgetter(1, 2), entries)).items():
        by_norm.setdefault(nn, Counter())[div] = count
    norms = sorted(by_norm)
    k = linalg.rank(roots)
    if len(norms) == 1:
        nn = norms[0]
        if nn % 2:
            raise UnrecognizedRootSystemError(f"odd root norm {nn}")
        tag = _match(k, None, (len(roots), 0))
        if tag is None:
            raise UnrecognizedRootSystemError(f"single-norm system: rank {k}, {len(roots)} roots, norm {nn}")
        return IrreducibleComponent(lat, tag, k, nn // 2, roots, _class_div(by_norm[nn]), None)
    if len(norms) == 2:
        n1, n2 = norms
        c1, c2 = by_norm[n1].total(), by_norm[n2].total()
        if n1 % 2:
            raise UnrecognizedRootSystemError(f"odd short norm {n1}")
        short_div, long_div = _class_div(by_norm[n1]), _class_div(by_norm[n2])
        ratio = Q(n2, n1)
        tag = _match(k, ratio, (c1, c2))
        if tag is None:
            # at ratio 2 (B, C, F4) it is the counts that failed to match
            raise UnrecognizedRootSystemError(
                f"two-norm system: rank {k}, counts ({c1},{c2}), norms ({n1},{n2})"
                if ratio == 2
                else f"norm ratio {ratio} matches no crystallographic type"
            )
        longs = tuple([r for r, nn, _ in entries if nn == n2])
        return IrreducibleComponent(lat, tag, k, n1 // 2, roots, short_div, long_div, long_roots=longs)
    raise UnrecognizedRootSystemError(f"{len(norms)} distinct root norms")


def decompose(rd: RootDatum) -> list[IrreducibleComponent]:
    """Connected components of the non-orthogonality graph, identified (see ``_components``).

    G·r is computed once per ± pair: only for the roots the scan asks for.
    """
    lat = rd.lattice

    def image(r):
        gr = lat.gram_times(r)
        return gr, sum(map(mul, gr, r))

    return _components(lat, rd.roots, image)


def _components(lat: Lattice, roots: Sequence[tuple[int, ...]], image: Callable) -> list[IrreducibleComponent]:
    """``decompose`` of the roots, with ``image(r)`` giving (G·r, norm(r)).

    Each root joins, and so merges, every component found so far with a
    member it pairs nonzero with, which is exact for any vector set; its G·r
    gives those pairings and its div.  Components are identified in the
    order of their first root: of several unidentifiable ones the first
    raises UnrecognizedRootSystemError, and nothing is dropped.

    A root -r whose partner r was placed with (r, r) != 0 skips the scan,
    and ``image`` is not asked for it.  As (-r, s) = -(r, s), -r pairs
    nonzero with exactly the roots r pairs with, which joined r's component
    when the later of the two was placed, and with r itself; so -r would
    join that component and merge nothing.  It joins its partner's group
    at once, with the partner's norm and div: the group its partner was
    placed in, or, where a merge emptied that group, the group the merge
    moved it into.  As a member it changes no later root's hits, as a root
    pairs nonzero with -r exactly when it does with r.  An isotropic r
    pairs to 0 with -r, and both go through the scan.  The negative of a
    placed root is built once, as the key its partner finds it by; a root
    that skips the scan builds none.
    """
    if not roots:
        raise ValueError("cannot decompose an empty root set")
    groups: list[list] = []  # (root, norm, div) entries; merged groups are emptied
    placed: dict = {}  # -r -> (the entry of r, its group), for each non-isotropic r placed
    merged: dict = {}  # id of an emptied group -> the group it was merged into
    for r in roots:
        partner = placed.get(r)
        if partner is not None:
            (_, nn, div), home = partner
            while not home:  # emptied by a merge
                home = merged[id(home)]
            home.append((r, nn, div))
            continue
        gr, nn = image(r)
        hit = []
        for g in groups:
            # the latest member first: in lex order a root pairs with a recent one far more often
            for s, _, _ in reversed(g):
                if sum(map(mul, gr, s)):
                    hit.append(g)
                    break
        if hit:  # into the hit with the earliest first root
            home = hit[0]
            for g in hit[1:]:
                home += g
                g.clear()
                merged[id(g)] = home
        else:  # r pairs with no component yet: a new one
            home = []
            groups.append(home)
        entry = (r, nn, gcd(*gr))
        home.append(entry)
        if nn:
            placed[tuple(map(neg, r))] = entry, home
    comps = (_identify(lat, sorted(g)) for g in groups if g)
    return sorted(comps, key=lambda c: (c.rank, c.type_tag, c.d, c.roots))


# ---------------------------------------------------------------------------
# dual root sets and the two Coxeter constants
# ---------------------------------------------------------------------------


class DualRoot(NamedTuple):
    """A dual vector l = x / den, with whether its half still pairs integrally.

    The vector is kept on ints: ``x`` is den * l, and ``den`` is the one
    denominator of the whole set, so equal sets compare equal.  ``coords``
    gives the reduced Fractions for display and for callers that want them.
    """

    x: tuple[int, ...]
    den: int
    half_in_dual: bool

    @property
    def coords(self) -> tuple[Q, ...]:
        return tuple([Q(v, self.den) for v in self.x])


def build_dual_set(comp: IrreducibleComponent) -> tuple[DualRoot, ...]:
    """The dual vector set supporting the component's mirrors, sorted by coordinates.

    Follows the case table: short roots r of div d dualize as r/d, long
    roots (B, C, F4, G2) as s/div(s).  Short roots of A1 and B with div 2d
    branch on the subcase tag, which records whether r/d and r/(2d) both
    support mirrors: i keeps r/(2d), ii keeps r/d (flagged: its half pairs
    integrally) and r/(2d), iii keeps r/d flagged.
    """
    d, longs = comp.d, set(comp.long_roots)
    shorts = [r for r in comp.roots if r not in longs]
    parts = [(shorts, d, False)] if comp.short_div == d else {
        "i": [(shorts, 2 * d, False)],
        "ii": [(shorts, d, True), (shorts, 2 * d, False)],
        "iii": [(shorts, d, True)],
    }[_require_subcase(f"component {comp.label}", comp.subcase)]
    if comp.long_div is not None:
        parts.append((comp.long_roots, comp.long_div, False))
    # r / m is r * (scale / m) over scale: integers in the order of the Fractions
    scale = lcm(*(m for _, m, _ in parts))
    members: list = []
    for vectors, m, half in parts:
        f = scale // m
        members += zip(vectors if f == 1 else [tuple([v * f for v in r]) for r in vectors], repeat(scale), repeat(half))
    members.sort(key=itemgetter(0))
    return tuple(map(DualRoot._make, members))


def _plain_dual_set(comp: IrreducibleComponent) -> tuple[DualRoot, ...]:
    """The dual set of comp as if its short roots had div d: r/d, with no subcase."""
    return build_dual_set(dataclasses.replace(comp, short_div=comp.d, subcase=None))


def _require_subcase(what: str, subcase: str | None) -> str:
    if subcase not in SUBCASES:
        raise SubcaseRequiredError(f"{what} with short div 2d requires a subcase tag")
    return subcase


def sum_rule_constant(gram, weighted_vectors) -> Q | None:
    """The constant c with sum_x w_x (x,z)^2 = 2c (z,z) on the span, or None.

    ``weighted_vectors`` is an iterable of (coords, weight) pairs with
    rational coordinates in the basis of ``gram``.  The identity is the
    matrix equation S = 2c G, S = sum_x w_x (G x)(G x)^T, restricted to the
    span of the vectors.  With B a basis of the span, the restriction is
    B S B^T = 2c B G B^T, and B S B^T = sum_x w_x (B G x)(B G x)^T: so the
    restriction is a change of Gram matrix, to B G B^T with images B G x,
    and ``linalg._sum_rule`` checks it.  Any basis gives the same c; B is
    the integer pivot rows of one elimination of the vectors
    (``linalg._echelon``).  Each B G x is z / e with z integral
    (``linalg._int_image`` on the rows of B G), so the term is w / e^2
    times z z^T, and the check runs on ints.
    """
    vectors = [(v, Q(w)) for v, w in weighted_vectors]
    b = [r for _, r in linalg._echelon(linalg._int_row(v) for v, _ in vectors)]
    bg = [linalg.mat_vec(gram, r) for r in b]  # B G, as G is symmetric
    images = [(linalg._int_image(bg, v), w) for v, w in vectors]
    span_gram = [linalg.mat_vec(b, r) for r in bg]
    return linalg._sum_rule(span_gram, [(z, w / (e * e)) for (z, e), w in images])[0]


def coxeter_number(comp: IrreducibleComponent) -> int:
    """Coxeter constant of the type at unit scale.

    Computed as d times the exact sum-rule constant of the component's plain
    dual set, so the value is independent of the rescale and matches the
    quadratic identity rather than being read from a table.
    """
    c = sum_rule_constant(comp.lattice.gram, [(x.coords, 1) for x in _plain_dual_set(comp)])
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
    """Build a concrete component of the given type on its built-in lattice rescaled by d.

    The roots are detected once per (type, rank), on the unscaled lattice
    (``_realized``), and every d is derived from that component: scaling
    multiplies every norm and div by d, so the roots, their order, the
    long roots and the type stay, and only d, short_div and long_div
    scale.  The result passes ``IrreducibleComponent``'s checks again.
    The scaled lattice is built first, so a scale ``builtin_lattice``
    refuses keeps its message.
    """
    ct = _checked(type_tag, rank, f"unknown type {type_tag}")
    lat = builtin_lattice(f"{ct.lattice(rank)}({d})")
    comp = _realized(type_tag, rank)
    if d == 1:
        return comp
    return dataclasses.replace(
        comp, lattice=lat, d=d, short_div=comp.short_div * d, long_div=comp.long_div and comp.long_div * d
    )


@lru_cache(maxsize=None)
def _realized(type_tag: str, rank: int) -> IrreducibleComponent:
    """The component of a (type, rank) that ``_checked`` admits, on its unscaled lattice.

    The lattice ``TYPES`` names is searched up to norm 2 * ratio; C_n keeps
    an orthogonal frame of its long vectors.  ``TYPES`` has 31 (type, rank)
    pairs, so the memo holds at most 31 components.
    """
    ct = TYPES[type_tag]
    lat = builtin_lattice(ct.lattice(rank))
    half = _detected(lat, 2 * (ct.ratio or 1))
    found = [(tuple(map(neg, v)), tuple(map(neg, gv)), nn) for v, gv, nn in reversed(half)] + half
    if type_tag == "C":
        shorts = [t for t in found if t[2] == 2]
        frame = _orthogonal_frame([t for t in found if t[2] != 2])
        if len(frame) != 2 * rank:
            raise AssertionError(f"C{rank} long frame has {len(frame)} vectors")
        found = sorted(shorts + frame)
    images = {r: (gr, nn) for r, gr, nn in found}
    comps = _components(lat, [r for r, _, _ in found], images.__getitem__)
    if len(comps) != 1 or comps[0].type_tag != type_tag or comps[0].rank != rank:
        raise AssertionError(f"realization of {type_tag}{rank}(1) failed: {comps}")
    return comps[0]


def _orthogonal_frame(vectors) -> list:
    """Greedy maximal pairwise-orthogonal subset closed under negation.

    ``vectors`` are (v, G·v, norm) triples; the frame keeps the triples it
    chose, taking the vectors in sorted order.
    """
    frame: list = []
    chosen: set = set()
    for v, gv, nn in sorted(vectors):
        if tuple([-x for x in v]) in chosen or all(sum(map(mul, gv, w)) == 0 for w in chosen):
            frame.append((v, gv, nn))
            chosen.add(v)
    return frame
