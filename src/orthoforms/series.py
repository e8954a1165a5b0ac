"""Sparse exact truncated Fourier expansions in (q, zeta-vector, xi).

A series is a rational monomial prefactor q^A zeta^B xi^C times a sparse
map from exponent triples (a, l, t) to nonzero rational coefficients,
together with an exactness rectangle (a_max, t_max): every term with
a <= a_max and t <= t_max is guaranteed present.  Exponents a may go
negative (the product expansion's principal-part factors demand it); the
zeta block is a rational vector of fixed length.  All arithmetic is exact;
there is no floating point and no evaluation at complex points anywhere.

The representation is integer.  a, t, A and C lie in (1/den)Z; z is one
zeta denominator per series (a multiple of the denominators of every l and
of B) and d one coefficient denominator.  A term is stored as the int key
(a*den, l*z, t*den) with the int numerator c*d, the prefactor as (A*den,
B*z, C*den).  d is kept reduced (its gcd with the numerators is 1), so it
is the lcm of the coefficient denominators and does not grow along product
chains.  A rect bound r is stored as floor(r*den) and the exact remainder
r*den - floor(r*den): an int key x is inside iff x <= floor(r*den), and
adding a grid exponent moves only the floor.  Scaling commutes with the sums
and products the operations form, and an operand on another den or z is
first rescaled by the integer ratio, so every int result divided by its
scales is the exact rational one.

``__mul__`` runs through the flat int kernel ``_convolve``.  The product
expansion multiplies its binomials on rows instead: a map from integral
(a, t) to {packed l: c}, where a packed key is the zeta vector as one int of
signed base-2^w digits (Kronecker substitution), so keys add as ints.  That
is safe because w puts 2^(w-1) above the sum over factors of the largest
zeta entry in each factor's binomial, which bounds every digit a product
can reach.

Fractions appear only at the edges.  ``TruncatedSeries(...)``, ``monomial``,
``one``, ``zero`` and ``series_from_json`` check and scale rational input
once; internal results are built from ints by ``_new`` with no re-checks.
``.terms`` is a read-only Fraction view built on first access and cached;
``.rect`` and ``.prefactor`` are Fractions built from the ints on access.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction as Q
from itertools import count
from operator import add, itemgetter, sub
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

from .linalg import _scaled
from .weyl import WeylVector, is_positive_direction

DEFAULT_DEN = 24
DEFAULT_TERM_CAP = 200_000

Key = tuple[Q, tuple[Q, ...], Q]
Coeffs = Mapping[tuple[int, tuple[Q, ...]], int]


class SeriesOverflowError(RuntimeError):
    pass


class ZeroSeriesError(ValueError):
    """Raised where a leading order is requested of a series with no terms."""


@dataclass(frozen=True)
class Monomial:
    a: Q
    b: tuple[Q, ...]
    c: Q

    @staticmethod
    def zero(rank: int) -> "Monomial":
        return Monomial(Q(0), tuple(Q(0) for _ in range(rank)), Q(0))


def _q(x) -> Q:
    return x if isinstance(x, Q) else Q(x)


def _int(x: Q, scale: int) -> int:
    """A rational whose denominator divides scale, times scale."""
    return x.numerator * (scale // x.denominator)


def _bound(r: Q, den: int) -> tuple:
    """(floor(r*den), r*den - floor(r*den)): the rect bound r on the den grid."""
    floor, rem = divmod(r.numerator * den, r.denominator)
    return (floor, Q(rem, r.denominator) if rem else 0)


def _value(b: tuple, den: int) -> Q:
    return (b[0] + b[1]) / den if b[1] else Q(b[0], den)


def _checked_prefactor(prefactor: Monomial, rank: int, den: int) -> tuple[Q, tuple[Q, ...], Q]:
    """The prefactor as Fractions, checked: den >= 1 and A, C in (1/den)Z."""
    if not isinstance(den, int) or isinstance(den, bool) or den < 1:
        raise ValueError(f"den must be an integer >= 1, got {den!r}")
    a, b, c = _q(prefactor.a), tuple(_q(x) for x in prefactor.b), _q(prefactor.c)
    if len(b) != rank:
        raise ValueError("prefactor zeta block has wrong length")
    if den % a.denominator or den % c.denominator:
        raise ValueError(f"prefactor exponents A = {a}, C = {c} are not in (1/{den})Z")
    return a, b, c


class TruncatedSeries:
    """Immutable sparse series over an exactness rectangle."""

    __slots__ = ("rank", "den", "_z", "_d", "_terms", "_pa", "_pb", "_pc", "_ra", "_rt", "_view", "_rect")

    def __init__(self, rank: int, terms: Mapping[Key, Q] | Iterable[tuple[Key, Q]],
                 rect: tuple[Q, Q], prefactor: Monomial | None = None, den: int = DEFAULT_DEN):
        pa, pb, pc = _checked_prefactor(prefactor or Monomial.zero(rank), rank, den)
        a_max, t_max = _q(rect[0]), _q(rect[1])
        clean: dict[Key, Q] = {}
        for (a, l, t), coeff in terms.items() if isinstance(terms, Mapping) else terms:
            coeff = _q(coeff)
            if coeff == 0:
                continue
            a, t, l = _q(a), _q(t), tuple(_q(x) for x in l)
            if len(l) != rank:
                raise ValueError("term zeta exponent has wrong length")
            if den % a.denominator or den % t.denominator:
                raise ValueError(f"exponent denominator of ({a}, {t}) does not divide {den}")
            if a <= a_max and t <= t_max:
                clean[(a, l, t)] = coeff
        z = math.lcm(*{x.denominator for l in (pb, *(l for _, l, _ in clean)) for x in l})
        d = math.lcm(*{c.denominator for c in clean.values()})
        ints = {(_int(a, den), _scaled(l, z), _int(t, den)): _int(c, d) for (a, l, t), c in clean.items()}
        _fill(self, rank, den, z, d, ints, _int(pa, den), _scaled(pb, z), _int(pc, den),
              _bound(a_max, den), _bound(t_max, den))
        self._rect = (a_max, t_max)

    # -- Fraction views -----------------------------------------------------

    @property
    def terms(self) -> Mapping[Key, Q]:
        if self._view is None:
            den, z, d, terms = self.den, self._z, self._d, self._terms
            qs = {v: Q(v, den) for v in {k[0] for k in terms} | {k[2] for k in terms}}
            ql = {l: tuple([Q(x, z) for x in l]) for l in {k[1] for k in terms}}
            view = {(qs[a], ql[l], qs[t]): Q(c, d) for (a, l, t), c in terms.items()}
            self._view = MappingProxyType(view)
        return self._view

    @property
    def rect(self) -> tuple[Q, Q]:
        if self._rect is None:
            self._rect = (_value(self._ra, self.den), _value(self._rt, self.den))
        return self._rect

    @property
    def prefactor(self) -> Monomial:
        b = tuple(Q(x, self._z) for x in self._pb)
        return Monomial(Q(self._pa, self.den), b, Q(self._pc, self.den))

    # -- value semantics ----------------------------------------------------

    def absolute_terms(self) -> dict[Key, Q]:
        p = self.prefactor
        return {(a + p.a, tuple(map(add, l, p.b)), t + p.c): c for (a, l, t), c in self.terms.items()}

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries) or self.rank != other.rank:
            return False
        den, z = math.lcm(self.den, other.den), math.lcm(self._z, other._z)

        def absolute(x, mult):  # absolute int terms on one grid, numerators over both d
            terms, pa, pb, pc, _, _ = _on(x, den, z)
            return {(a + pa, tuple(map(add, l, pb)), t + pc): c * mult for (a, l, t), c in terms.items()}

        return absolute(self, other._d) == absolute(other, self._d)

    def __hash__(self):
        return hash((self.rank, len(self._terms), Q(sum(self._terms.values()), self._d)))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def floors(self) -> tuple[Q, Q]:
        fa, ft = _floors(self._terms)
        return Q(fa, self.den), Q(ft, self.den)

    def __repr__(self):
        ra, rt = self.rect
        return f"TruncatedSeries(rank={self.rank}, {len(self._terms)} terms, rect=({ra},{rt}))"

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return _signed_sum(((1, self), (1, other)))

    def __neg__(self):
        return self._with({k: -c for k, c in self._terms.items()}, self._d)

    def __sub__(self, other):
        return _signed_sum(((1, self), (-1, other)))

    def scale(self, factor) -> "TruncatedSeries":
        factor = factor if isinstance(factor, int) else _q(factor)
        num = factor.numerator
        terms = {k: c * num for k, c in self._terms.items()} if num else {}
        return self._with(terms, self._d * factor.denominator)

    def _with(self, terms: dict, d: int, ra=None, rt=None) -> "TruncatedSeries":
        """New nonzero int terms over d with this den and prefactor, on its rect or ra, rt."""
        ra, rt = ra or self._ra, rt or self._rt
        return _new(self.rank, self.den, self._z, d, terms, self._pa, self._pb, self._pc, ra, rt)

    def _cut(self, ra: tuple, rt: tuple) -> "TruncatedSeries":
        """The same series re-truncated to the bounds ra, rt on its den grid."""
        terms = {k: c for k, c in self._terms.items() if k[0] <= ra[0] and k[2] <= rt[0]}
        return self._with(terms, self._d, ra, rt)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if self.rank != other.rank:
            raise ValueError("series rank mismatch")
        den = self.den if self.den == other.den else math.lcm(self.den, other.den)
        z = self._z if self._z == other._z else math.lcm(self._z, other._z)
        t1, pa1, pb1, pc1, ra1, rt1 = _on(self, den, z)
        t2, pa2, pb2, pc2, ra2, rt2 = _on(other, den, z)
        pa, pb, pc = pa1 + pa2, tuple(map(add, pb1, pb2)), pc1 + pc2
        if not t1 or not t2:
            return _new(self.rank, den, z, 1, {}, pa, pb, pc, min(ra1, ra2), min(rt1, rt2))
        # a product term at exponent a needs one factor known up to a minus
        # the other factor's lowest exponent, so rectangles shift by floors
        (fa1, ft1), (fa2, ft2) = _floors(t1), _floors(t2)
        ra = min((ra1[0] + fa2, ra1[1]), (ra2[0] + fa1, ra2[1]))
        rt = min((rt1[0] + ft2, rt1[1]), (rt2[0] + ft1, rt2[1]))
        out = _convolve(t1.items(), t2.items(), ra[0], rt[0], DEFAULT_TERM_CAP)
        if len(out) > DEFAULT_TERM_CAP:
            raise SeriesOverflowError(
                f"product of {len(t1)} and {len(t2)} terms on rect ({_value(ra, den)}, "
                f"{_value(rt, den)}) exceeded the cap of {DEFAULT_TERM_CAP} stored terms"
            )
        terms = {k: c for k, c in out.items() if c}
        return _new(self.rank, den, z, self._d * other._d, terms, pa, pb, pc, ra, rt)

    # -- calculus -----------------------------------------------------------

    def derive(self, axis: str) -> "TruncatedSeries":
        """Normalized partial derivative: each term is scaled by its exponent.

        Axes are "tau", "z1".."z<rank>", "omega"; prefactor exponents take
        part through the product rule.  The 1/(2 pi i) normalization is
        implicit, keeping all coefficients rational.
        """
        if axis == "tau":
            p, exponent, scale = self._pa, itemgetter(0), self.den
        elif axis == "omega":
            p, exponent, scale = self._pc, itemgetter(2), self.den
        elif axis.startswith("z") and axis[1:].isdigit():
            i = int(axis[1:]) - 1
            if not 0 <= i < self.rank:
                raise ValueError(f"axis {axis!r} out of range for rank {self.rank}")
            p, exponent, scale = self._pb[i], lambda key: key[1][i], self._z
        else:
            raise ValueError(f"invalid derivation axis {axis!r}")
        out = {key: c * m for key, c in self._terms.items() if (m := p + exponent(key))}
        return self._with(out, self._d * scale)

    def leading_order(self) -> tuple[Q, Q]:
        """Minimal q-exponent and minimal xi-exponent, prefactor included."""
        if not self._terms:
            raise ZeroSeriesError("vanishes to rectangle order")
        fa, ft = _floors(self._terms)
        return Q(fa + self._pa, self.den), Q(ft + self._pc, self.den)

    def invert(self) -> "TruncatedSeries":
        """Geometric-series inverse; the reduced constant term must be 1.

        Requires every other term to raise the q- or xi-exponent without
        lowering the other, so it refuses data with pure zeta terms on the
        boundary slice (those would need infinitely many terms at fixed
        (a, t)).
        """
        rank, den, z = self.rank, self.den, self._z
        zero_key = (0, (0,) * rank, 0)
        if self._terms.get(zero_key) != self._d:
            raise ValueError("inversion requires reduced constant term 1")
        nilpotent = {k: c for k, c in self._terms.items() if k != zero_key}
        for a, _, t in nilpotent:
            if a < 0 or t < 0 or (a == 0 and t == 0):
                raise ValueError("inversion blocked by terms on the boundary slice")
        n = _new(rank, den, z, self._d, nilpotent, 0, zero_key[1], 0, self._ra, self._rt)
        acc = power = _unit(rank, den, self._ra, self._rt)
        for j in count(1):
            # re-truncate to the original rectangle; the product rectangle
            # may grow with the power's floor, which would never terminate
            power = (power * n)._cut(self._ra, self._rt)
            if power.is_zero:
                break
            acc = acc + (-power if j % 2 else power)
        inv = tuple(-x for x in self._pb)
        return _new(rank, den, z, acc._d, _on(acc, den, z)[0], -self._pa, inv, -self._pc, self._ra, self._rt)


def _fill(x: TruncatedSeries, rank, den, z, d, terms, pa, pb, pc, ra, rt) -> None:
    x.rank, x.den, x._z, x._d, x._terms = rank, den, z, d, terms
    x._pa, x._pb, x._pc, x._ra, x._rt = pa, pb, pc, ra, rt
    x._view = x._rect = None


def _new(rank, den, z, d, terms, pa, pb, pc, ra, rt) -> TruncatedSeries:
    """A series of nonzero int terms inside the bounds, over d reduced here."""
    if not terms:
        d = 1
    elif d != 1 and (g := math.gcd(d, *terms.values())) != 1:
        d //= g
        terms = {k: c // g for k, c in terms.items()}
    x = object.__new__(TruncatedSeries)
    _fill(x, rank, den, z, d, terms, pa, pb, pc, ra, rt)
    return x


def _unit(rank: int, den: int, ra: tuple, rt: tuple) -> TruncatedSeries:
    """one(rank, rect, den) for the rect with bounds ra, rt on the den grid."""
    zeros = (0,) * rank
    terms = {(0, zeros, 0): 1} if ra[0] >= 0 and rt[0] >= 0 else {}
    return _new(rank, den, 1, 1, terms, 0, zeros, 0, ra, rt)


def _floors(terms) -> tuple[int, int]:
    """Lowest a and lowest t of int keys, 0 when there are none."""
    return (min(terms)[0], min(t for _, _, t in terms)) if terms else (0, 0)


def _on(x: TruncatedSeries, den: int, z: int) -> tuple:
    """(terms, A, B, C, a bound, t bound) of x on the grid of den and z, multiples of x's."""
    k, m = den // x.den, z // x._z
    if k == 1 and m == 1:
        return x._terms, x._pa, x._pb, x._pc, x._ra, x._rt
    terms = {(a * k, tuple([v * m for v in l]), t * k): c for (a, l, t), c in x._terms.items()}
    rebound = lambda b: _bound(_value(b, x.den), den)
    return terms, x._pa * k, tuple(v * m for v in x._pb), x._pc * k, rebound(x._ra), rebound(x._rt)


def _signed_sum(parts: Sequence[tuple[int, TruncatedSeries]]) -> TruncatedSeries:
    """Sum of sign * series over (sign, series) parts, signs +-1, merged once.

    Equals the left fold of ``+`` (``-`` for sign -1): each of its steps takes
    the min of the prefactors' a and c, the first operand's b, the lcm of the
    dens and the min of the absolute rects (prefactor plus rect), as done here
    over all parts.  A term a step drops lies outside that step's absolute
    rect, which only shrinks, so the final truncation drops it too; zero sums
    are dropped in both.
    """
    first = parts[0][1]
    if any(x.rank != first.rank for _, x in parts):
        raise ValueError("series rank mismatch")
    den = math.lcm(*{x.den for _, x in parts})
    z = math.lcm(*{x._z for _, x in parts})
    d = math.lcm(*{x._d for _, x in parts})
    grids = [(sign * (d // x._d), _on(x, den, z)) for sign, x in parts]
    pa = min(g[1] for _, g in grids)
    pc = min(g[3] for _, g in grids)
    pb = grids[0][1][2]
    merged: dict = {}
    get = merged.get
    for mult, (terms, xa, xb, xc, _, _) in grids:
        da, dc, db = xa - pa, xc - pc, tuple(map(sub, xb, pb))
        items = terms.items()
        if da or dc or any(db):
            items = (((a + da, tuple(map(add, l, db)), t + dc), c) for (a, l, t), c in items)
        for key, c in items:
            c = c if mult == 1 else c * mult
            v = get(key)
            merged[key] = c if v is None else v + c
    ra = min((xa + b[0] - pa, b[1]) for _, (_, xa, _, _, b, _) in grids)
    rt = min((xc + b[0] - pc, b[1]) for _, (_, _, _, xc, _, b) in grids)
    terms = {k: c for k, c in merged.items() if c and k[0] <= ra[0] and k[2] <= rt[0]}
    return _new(first.rank, den, z, d, terms, pa, pb, pc, ra, rt)


def one(rank: int, rect, den: int = DEFAULT_DEN) -> TruncatedSeries:
    return monomial(rank, rect, 0, (0,) * rank, 0, den=den)


def zero(rank: int, rect, den: int = DEFAULT_DEN) -> TruncatedSeries:
    return TruncatedSeries(rank, {}, rect, den=den)


def monomial(rank: int, rect, a, l, t, coeff=1, den: int = DEFAULT_DEN) -> TruncatedSeries:
    key = (_q(a), tuple(_q(x) for x in l), _q(t))
    return TruncatedSeries(rank, {key: _q(coeff)}, rect, den=den)


class WeightedSeries(NamedTuple):
    series: TruncatedSeries
    weight: int


# ---------------------------------------------------------------------------
# the kernels: flat int terms for __mul__, packed rows for the expansion
# ---------------------------------------------------------------------------


def _convolve(left, right, a_hi, t_hi, cap) -> dict:
    """Sparse product of two nonempty int term lists, truncated to a box.

    Pairs with a > a_hi or t > t_hi are skipped.  Both operands are sorted by
    a, so a row stops at the first partner past a_hi.  Returns the map
    (a, l, t) -> c with zero sums kept, and returns as soon as it holds more
    than cap keys.
    """
    left, right = sorted(left), sorted(right)
    lowest = left[0][0][0]
    out: dict = {}
    get = out.get
    for (a2, l2, t2), c2 in right:
        if a2 + lowest > a_hi:
            break
        for (a1, l1, t1), c1 in left:
            a = a1 + a2
            if a > a_hi:
                break
            t = t1 + t2
            if t > t_hi:
                continue
            key = (a, tuple(map(add, l1, l2)), t)
            val = get(key)
            out[key] = c1 * c2 if val is None else val + c1 * c2
        if len(out) > cap:
            break
    return out


def _pack(l, w: int) -> int:
    """The int vector l as one int of signed base-2^w digits, l[0] lowest.

    Linear: _pack(l1 + l2) == _pack(l1) + _pack(l2).
    """
    return sum(x << (w * i) for i, x in enumerate(l))


def _unpack(k: int, rank: int, w: int) -> tuple[int, ...]:
    """Inverse of _pack for rank digits below 2^(w-1) in absolute value."""
    half, mask = 1 << (w - 1), (1 << w) - 1
    l = []
    for _ in range(rank):
        x = ((k + half) & mask) - half
        l.append(x)
        k = (k - x) >> w
    return tuple(l)


# ---------------------------------------------------------------------------
# product expansion
# ---------------------------------------------------------------------------


def _binomial_coefficient(exponent: int, j: int) -> int:
    """Coefficient of u^j in (1-u)^exponent, exact for any integer exponent."""
    if exponent >= 0:
        return (-1) ** j * math.comb(exponent, j)
    return math.comb(j - exponent - 1, j)  # (-1)^j C(exponent, j), generalized


@dataclass(frozen=True)
class ProductFactor:
    n: int
    l: tuple[Q, ...]
    m: int
    exponent: int

    def __str__(self):
        l = ",".join(q_str(x) for x in self.l)
        return f"(1 - q^{self.n} zeta^({l}) xi^{self.m})^{self.exponent}"


def product_factors(coeffs: Coeffs, rect: tuple[Q, Q], rank: int) -> list[ProductFactor]:
    """Factors (n, l, m) > 0 with nonzero exponent f(nm, l) meeting the rectangle.

    The triple ordering means m > 0, or m = 0 and n > 0, or m = n = 0 and
    l < 0.  Absent coefficients are read as zero.  The q budget extends past
    a_max by the debt that principal-part factors with negative n can carry.

    The factors come in expansion order, by (n >= 0, m, n, l): those with
    n < 0 go first, as every one of their terms has a <= 0, so a bound of at
    least 0 drops none of them, and once they are in every remaining factor
    only raises the q-exponent, so truncation at a_max is sound.
    """
    a_max, t_max = _q(rect[0]), _q(rect[1])
    support: dict[int, list[tuple[tuple[Q, ...], int]]] = {}
    for (n0, l), f in coeffs.items():
        if f:
            support.setdefault(n0, []).append((tuple(_q(x) for x in l), f))
    max_neg = max((-n0 for n0 in support if n0 < 0), default=0)
    n_hi = math.floor(a_max + t_max * max_neg)
    factors = []
    for l, f in support.get(0, []):
        if is_positive_direction(tuple(-x for x in l)):
            factors.append(ProductFactor(0, l, 0, f))  # m = n = 0, l < 0
        for n in range(1, n_hi + 1):
            factors.append(ProductFactor(n, l, 0, f))
        for m in range(1, math.floor(t_max) + 1):
            factors.append(ProductFactor(0, l, m, f))
    for m in range(1, math.floor(t_max) + 1):
        for n in range(-max_neg, n_hi + 1):
            if n == 0:
                continue
            for l, f in support.get(n * m, []):
                factors.append(ProductFactor(n, l, m, f))
    factors.sort(key=lambda fac: (fac.n >= 0, fac.m, fac.n, fac.l))
    return factors


def expand_product(coeffs: Coeffs, weyl: WeylVector, rect: tuple[Q, Q], rank: int,
                   den: int = DEFAULT_DEN, term_cap: int = DEFAULT_TERM_CAP) -> TruncatedSeries:
    """Expand q^A zeta^B xi^C prod (1 - q^n zeta^l xi^m)^{f(nm, l)} exactly.

    Binomial expansion of every factor to the order the rectangle needs.
    Factors with m = n = 0 must have positive exponents (otherwise the
    expansion is meromorphic along the toric boundary and is rejected), and
    their combined support is capped: overflow raises SeriesOverflowError.
    """
    a_max, t_max = _q(rect[0]), _q(rect[1])
    factors = product_factors(coeffs, rect, rank)
    boundary_budget = 1
    for fac in factors:
        if fac.m == 0 and fac.n == 0:
            if fac.exponent < 0:
                raise ValueError(
                    "negative exponent on a boundary factor: expansion is "
                    "meromorphic along the toric boundary"
                )
            boundary_budget *= fac.exponent + 1
            if boundary_budget > term_cap:
                raise SeriesOverflowError(
                    "the m = n = 0 factor block alone exceeds the term cap; "
                    "its expansion has at least "
                    f"{boundary_budget} zeta monomials"
                )
    max_neg = max((-f.n for f in factors if f.n < 0), default=0)
    terms, z = _multiply_out(
        factors, rank, a_max, t_max, max_neg, a_hi=max(math.floor(a_max), 0), term_cap=term_cap
    )
    return _from_integral(rank, terms, z, (a_max, t_max), Monomial(weyl.a, weyl.b, weyl.c), den)


def _from_integral(rank, terms, z, rect, prefactor: Monomial, den) -> TruncatedSeries:
    """The series on rect of int terms with a, t in Z and zeta entries over z."""
    pa, pb, pc = _checked_prefactor(prefactor, rank, den)
    zz = math.lcm(z, *(x.denominator for x in pb))
    m, bounds = zz // z, (_bound(rect[0], den), _bound(rect[1], den))
    out = {(a * den, tuple([x * m for x in l]), t * den): c for (a, l, t), c in terms.items()}
    return _new(rank, den, zz, 1, out, _int(pa, den), _scaled(pb, zz), _int(pc, den), *bounds)._cut(*bounds)


def _multiply_out(factors, rank, a_max, t_max, max_neg, a_hi, term_cap):
    """Terms of the product of the factors' binomials, one factor at a time.

    Returns (terms, z): exponents a and t are integers here, and zeta entries
    are scaled by z, the lcm of the factors' zeta denominators.  Products
    leaving the box a <= a_hi, t <= t_max are dropped after every factor
    (None leaves a_hi open), and more than term_cap nonzero terms after any
    factor raises SeriesOverflowError (None: no cap).  No lower q bound is
    needed: n >= -max_neg, and m >= 1 where n < 0, so a binomial term has
    a = j*n >= -max_neg * j*m = -max_neg * t, hence so does every product,
    and t <= t_max bounds a below by -max_neg * t_max.

    The accumulator maps each (a, t) to a row {_pack(l, w): c} with no zero
    c.  A product term's zeta entry sums one binomial term's entry per
    factor, so with 2^(w-1) above the sum over factors of their largest
    entry no digit can overflow, and a pair's key is the int k1 + k2.  The
    box is tested once per pair of rows; keys are unpacked once at the end.
    """
    z = math.lcm(*{x.denominator for fac in factors for x in fac.l})
    t_hi = math.floor(t_max)
    a_hi = math.inf if a_hi is None else a_hi
    ls = [_scaled(fac.l, z) for fac in factors]
    binomials = [_binomial(fac, a_max, t_max, max_neg) for fac in factors]
    bound = sum(b[-1][0] * max(map(abs, l), default=0) for l, b in zip(ls, binomials))
    w = bound.bit_length() + 1
    inside = lambda a, t: a <= a_hi and t <= t_hi
    acc = {(0, 0): {0: 1}}
    for i, (fac, l, binomial) in enumerate(zip(factors, ls, binomials), 1):
        # the j = 0 term of a binomial is 1: the rows inside the box, copied
        key, out = _pack(l, w), {at: row.copy() for at, row in acc.items() if inside(*at)}
        for j, c2 in binomial[1:]:
            a2, k2, t2 = j * fac.n, j * key, j * fac.m
            for (a1, t1), row1 in acc.items():
                a, t = a1 + a2, t1 + t2
                if not inside(a, t):
                    continue
                row = out.get((a, t))
                if row is None:
                    out[(a, t)] = {k1 + k2: c1 * c2 for k1, c1 in row1.items()}
                    continue
                get = row.get
                for k1, c1 in row1.items():
                    k = k1 + k2
                    if c := get(k, 0) + c1 * c2:
                        row[k] = c
                    else:
                        del row[k]
        acc = {at: row for at, row in out.items() if row}
        if term_cap is not None and sum(map(len, acc.values())) > term_cap:
            raise SeriesOverflowError(
                f"expansion exceeded {term_cap} stored terms at factor {i} of {len(factors)}: {fac}"
            )
    terms = {(a, _unpack(k, rank, w), t): c for (a, t), row in acc.items() for k, c in row.items()}
    return terms, z


def _binomial(fac: ProductFactor, a_max: Q, t_max: Q, max_neg: int) -> list[tuple[int, int]]:
    """Pairs (j, coefficient of u^j) of (1 - u)^exponent, u = q^n zeta^l xi^m.

    The nonzero coefficients up to the budget, j = 0 (coefficient 1) first.
    """
    if fac.m > 0:
        j_max = math.floor(t_max / fac.m)
    elif fac.n > 0:
        j_max = math.floor((a_max + t_max * max_neg) / fac.n)
    else:
        j_max = fac.exponent
    return [(j, c) for j in range(j_max + 1) if (c := _binomial_coefficient(fac.exponent, j))]


def log_derivative_residual(coeffs: Coeffs, weyl: WeylVector, rect: tuple[Q, Q], rank: int,
                            den: int = DEFAULT_DEN, term_cap: int = DEFAULT_TERM_CAP) -> TruncatedSeries:
    """Difference of the two sides of the logarithmic xi-derivative identity.

    With G0 the expanded product over the factors with n >= 0, u_i their
    monomials q^n zeta^l xi^m with m > 0 and f_i their exponents, returns

        D_omega(G0)  -  G0 * (C + S),    S = sum_i f_i (-m_i) sum_{j >= 1} u_i^j

    where sum_{j >= 1} u_i^j is u_i/(1 - u_i), exact on the rectangle because
    m_i >= 1 makes it terminate at j = floor(t_max/m_i).  S is built directly
    as one term map, so the check costs a single series product, taken with
    ``__mul__`` and not with the expansion's own kernel.  The factors with
    n < 0 contribute their definitional binomials and are covered by
    principal_block_residual instead; keeping them out of this identity keeps
    every exponent floor nonnegative, so the rectangle bookkeeping stays
    sharp.  Clearing denominators would multiply this residual by the unit
    P = prod_i (1 - u_i), whose constant term is 1 and whose other exponents
    are all nonnegative, so the two vanish together on the rectangle: the
    returned series is identically zero iff the identity holds there.
    """
    a_max, t_max = _q(rect[0]), _q(rect[1])
    nonneg = {key: f for key, f in coeffs.items() if key[0] >= 0}
    g0 = expand_product(nonneg, weyl, rect, rank, den, term_cap)
    xi_factors = [f for f in product_factors(nonneg, rect, rank) if f.m > 0]
    z = math.lcm(*{x.denominator for fac in xi_factors for x in fac.l})
    terms: dict = {}
    for fac in xi_factors:
        l = _scaled(fac.l, z)
        for j in range(1, math.floor(t_max / fac.m) + 1):
            key = (j * fac.n, tuple([j * x for x in l]), j * fac.m)
            terms[key] = terms.get(key, 0) - fac.m * fac.exponent
    terms = {k: c for k, c in terms.items() if c}
    s = _from_integral(rank, terms, z, (a_max, t_max), Monomial.zero(rank), den)
    return g0.derive("omega") - g0 * (s + one(rank, (a_max, t_max), den).scale(_q(weyl.c)))


def principal_block_residual(coeffs: Coeffs, weyl: WeylVector, rect: tuple[Q, Q], rank: int,
                             den: int = DEFAULT_DEN, term_cap: int = DEFAULT_TERM_CAP) -> TruncatedSeries:
    """Difference of the full expansion and (n >= 0 block) * (n < 0 block).

    The n < 0 factors are finite binomials, multiplied out here on their own
    with no q bound, so this checks the debt handling of the full expansion on
    the largest rectangle both sides are exact on.
    """
    a_max, t_max = _q(rect[0]), _q(rect[1])
    g = expand_product(coeffs, weyl, rect, rank, den, term_cap)
    nonneg = {key: f for key, f in coeffs.items() if key[0] >= 0}
    g0 = expand_product(nonneg, weyl, rect, rank, den, term_cap)
    neg_factors = [f for f in product_factors(coeffs, rect, rank) if f.n < 0]
    max_neg = max((-f.n for f in neg_factors), default=0)
    block, z = _multiply_out(neg_factors, rank, a_max, t_max, max_neg, a_hi=None, term_cap=None)
    product = g0 * _from_integral(rank, block, z, (a_max, t_max), Monomial.zero(rank), den)
    return g._cut(product._ra, product._rt) - product._cut(product._ra, product._rt)


# ---------------------------------------------------------------------------
# Jacobian determinants
# ---------------------------------------------------------------------------


def jacobian(forms: Sequence[WeightedSeries]) -> TruncatedSeries:
    """Determinant with first row k_i f_i and derivative rows below.

    For zeta-block rank s this takes exactly s + 3 forms (one per tube
    domain coordinate tau, z_1..z_s, omega, plus one): the matrix rows are
    the weighted forms, then the derivatives along tau, z_1..z_s, omega.
    """
    s, det = _determinants(forms, 3, "")
    return det(tuple(range(s + 3)))


def syzygy_sum(forms: Sequence[WeightedSeries]) -> TruncatedSeries:
    """Alternating sum (-1)^t k_t f_t J_t over one extra form; identically zero.

    J_t is the Jacobian of all forms except the t-th (1-indexed), so for
    rank s this takes s + 4 forms.  The sum is the first-row Laplace expansion
    of the (s+4)x(s+4) determinant whose first two rows are both k_i f_i, and
    J_t is its minor on rows 2.. over the columns other than t.  The J_t share
    one minor memo keyed by (row, columns, rect, den), with J_t's own rect
    and den (the min of the other forms' rects, the lcm of their dens).
    """
    s, det = _determinants(forms, 4, "syzygy ")
    total = None
    for idx, f in enumerate(forms):
        jt = det(tuple(j for j in range(s + 4) if j != idx))
        term = (f.series * jt).scale(f.weight)
        signed = -term if (idx + 1) % 2 else term
        total = signed if total is None else total + signed
    return total


def _determinants(forms: Sequence[WeightedSeries], extra: int, what: str):
    """(s, det): the forms' common rank and their Jacobians det(cols), one memo."""
    if not forms:
        raise ValueError("no forms given")
    s = forms[0].series.rank
    if len(forms) != s + extra:
        raise ValueError(f"rank {s} {what}needs exactly {s + extra} forms, got {len(forms)}")
    if any(f.series.rank != s for f in forms):
        raise ValueError("series rank mismatch")
    axes = ["tau"] + [f"z{i}" for i in range(1, s + 1)] + ["omega"]
    rows = [[f.series.scale(f.weight) for f in forms]]
    rows += [[f.series.derive(axis) for f in forms] for axis in axes]
    memo: dict[tuple, TruncatedSeries] = {}

    def det(cols: tuple[int, ...]) -> TruncatedSeries:
        series = [forms[j].series for j in cols]
        den = math.lcm(*(x.den for x in series))
        bounds = tuple(min(_bound(x.rect[i], den) for x in series) for i in (0, 1))
        return _minor(rows, memo, 0, cols, bounds, den)

    return s, det


def _minor(rows, memo: dict, i: int, cols: tuple[int, ...], bounds, den: int) -> TruncatedSeries:
    """Minor on rows i.., columns cols, along row i from zero(rect) to one(rect).

    The rect is given by its bounds on the den grid.  A module function, not
    a closure, so the memo is freed with its last caller instead of waiting
    for the cycle collector.
    """
    rank = rows[0][0].rank
    if not cols:
        return _unit(rank, den, *bounds)
    key = (i, cols, bounds, den)
    total = memo.get(key)
    if total is None:
        parts = [(1, _new(rank, den, 1, 1, {}, 0, (0,) * rank, 0, *bounds))]
        for pos, j in enumerate(cols):
            if not rows[i][j].is_zero:
                rest = _minor(rows, memo, i + 1, cols[:pos] + cols[pos + 1 :], bounds, den)
                parts.append((-1 if pos % 2 else 1, rows[i][j] * rest))
        total = memo[key] = _signed_sum(parts)
    return total


# ---------------------------------------------------------------------------
# support classification
# ---------------------------------------------------------------------------


def jacobi_support_class(entries, lattice, index: int) -> str:
    """Support class of one Fourier-Jacobi slice: how 2nt - (l,l) behaves.

    Returns the strongest of "cusp", "holomorphic", "weak",
    "weakly-holomorphic" admitted by the listed (n, l) support.
    """
    pairs = [(n, 2 * n * index - lattice.norm(l)) for n, l in entries]
    if all(hyper > 0 for _, hyper in pairs):
        return "cusp"
    if all(hyper >= 0 for _, hyper in pairs):
        return "holomorphic"
    return "weak" if all(n >= 0 for n, _ in pairs) else "weakly-holomorphic"


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------


def q_str(x) -> str:
    x = _q(x)
    return f"{x.numerator}/{x.denominator}"


def series_to_json(x: TruncatedSeries) -> dict:
    terms = [
        {"a": q_str(a), "l": [q_str(v) for v in l], "t": q_str(t), "c": q_str(c)}
        for (a, l, t), c in sorted(x.terms.items())
    ]
    return {
        "rank": x.rank,
        "den": x.den,
        "prefactor": {
            "A": q_str(x.prefactor.a),
            "B": [q_str(v) for v in x.prefactor.b],
            "C": q_str(x.prefactor.c),
        },
        "terms": terms,
        "rect": [q_str(x.rect[0]), q_str(x.rect[1])],
    }


def _json_list(value, what: str, length: int | None = None) -> list:
    if not isinstance(value, list) or (length is not None and len(value) != length):
        shape = "a list" if length is None else f"a list of length {length}"
        raise ValueError(f"{what} must be {shape}, got {value!r}")
    return value


def _json_int(value, what: str, least: int | None = None) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or (least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise ValueError(f"{what} must be an integer{bound}, got {value!r}")
    return value


def _json_q(value, what: str) -> Q:
    """A rational from a string or an integer; floats and booleans are rejected."""
    if isinstance(value, str) or (isinstance(value, int) and not isinstance(value, bool)):
        try:
            return Q(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"{what} must be a rational 'p/q', got {value!r}")


def series_from_json(doc: dict) -> TruncatedSeries:
    """Inverse of series_to_json; a malformed document raises ValueError."""
    if not isinstance(doc, dict):
        raise ValueError(f"a series must be a JSON object, got {doc!r}")
    rank = _json_int(doc["rank"], "rank", 0)
    den = _json_int(doc.get("den", DEFAULT_DEN), "den", 1)
    pref = doc.get("prefactor", {})
    if not isinstance(pref, dict):
        raise ValueError(f"prefactor must be an object, got {pref!r}")
    prefactor = Monomial(
        _json_q(pref.get("A", "0/1"), "prefactor A"),
        tuple(
            _json_q(v, "prefactor B entry")
            for v in _json_list(pref.get("B", ["0/1"] * rank), "prefactor B", rank)
        ),
        _json_q(pref.get("C", "0/1"), "prefactor C"),
    )
    for name, x in (("A", prefactor.a), ("C", prefactor.c)):
        if den % x.denominator:
            raise ValueError(f"prefactor {name} must be in (1/den)Z = (1/{den})Z, got {q_str(x)!r}")
    terms = {}
    for i, item in enumerate(_json_list(doc.get("terms", []), "terms")):
        if not isinstance(item, dict) or not {"a", "l", "t", "c"} <= item.keys():
            raise ValueError(f"terms[{i}] must be an object with a, l, t and c, got {item!r}")
        l = _json_list(item["l"], f"terms[{i}].l", rank)
        key = (
            _json_q(item["a"], f"terms[{i}].a"),
            tuple(_json_q(v, f"terms[{i}].l entry") for v in l),
            _json_q(item["t"], f"terms[{i}].t"),
        )
        terms[key] = _json_q(item["c"], f"terms[{i}].c")
    rect = tuple(_json_q(v, "rect entry") for v in _json_list(doc["rect"], "rect", 2))
    return TruncatedSeries(rank, terms, rect, prefactor, den)
