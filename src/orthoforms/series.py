"""Sparse exact truncated Fourier expansions in (q, zeta-vector, xi).

A series is a rational monomial prefactor q^A zeta^B xi^C times a sparse
map from exponent triples (a, l, t) to nonzero rational coefficients,
together with an exactness rectangle (a_max, t_max): every term with
a <= a_max and t <= t_max is guaranteed present.  Exponents a may go
negative (the product expansion's principal-part factors demand it); the
zeta block is a rational vector of fixed length.

All arithmetic is exact; there is no floating point and no evaluation at
complex points anywhere.

Products run through one integer kernel, ``_convolve``.  On the way in,
a and t are multiplied by the series denominator ``den`` (the constructor
guarantees that ``den`` divides their denominators), zeta entries by the
lcm of the operands' zeta denominators, and each operand's coefficients by
the lcm of its coefficient denominators.  Every scaled number is therefore
an integer, and scaling commutes with the sums and products the kernel
forms, so the integer result divided by the same scales is the exact
rational result.  A bound r on an exponent becomes floor(r * scale), which
admits exactly the integers x with x / scale <= r.  Each output term is
turned back into Fractions once, so ``.terms`` keeps its Fraction keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction as Q
from operator import add, itemgetter, sub
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

from .weyl import WeylVector, is_positive_direction

DEFAULT_DEN = 24
DEFAULT_TERM_CAP = 200_000

Key = tuple[Q, tuple[Q, ...], Q]


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


class TruncatedSeries:
    """Immutable sparse series over an exactness rectangle."""

    __slots__ = ("rank", "den", "prefactor", "terms", "rect")

    def __init__(
        self,
        rank: int,
        terms: Mapping[Key, Q] | Iterable[tuple[Key, Q]],
        rect: tuple[Q, Q],
        prefactor: Monomial | None = None,
        den: int = DEFAULT_DEN,
    ):
        if not isinstance(den, int) or isinstance(den, bool) or den < 1:
            raise ValueError(f"den must be an integer >= 1, got {den!r}")
        if prefactor is None:
            prefactor = Monomial.zero(rank)
        if len(prefactor.b) != rank:
            raise ValueError("prefactor zeta block has wrong length")
        if den % prefactor.a.denominator or den % prefactor.c.denominator:
            raise ValueError(
                f"prefactor exponents A = {prefactor.a}, C = {prefactor.c} are not in (1/{den})Z"
            )
        a_max, t_max = _q(rect[0]), _q(rect[1])
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[Key, Q] = {}
        for (a, l, t), coeff in items:
            coeff = _q(coeff)
            if coeff == 0:
                continue
            a, t = _q(a), _q(t)
            l = tuple(_q(x) for x in l)
            if len(l) != rank:
                raise ValueError("term zeta exponent has wrong length")
            if den % a.denominator or den % t.denominator:
                raise ValueError(
                    f"exponent denominator of ({a}, {t}) does not divide {den}"
                )
            if a > a_max or t > t_max:
                continue
            clean[(a, l, t)] = coeff
        self.rank = rank
        self.den = den
        self.prefactor = prefactor
        self.terms = MappingProxyType(clean)
        self.rect = (a_max, t_max)

    # -- value semantics ----------------------------------------------------

    def absolute_terms(self) -> dict[Key, Q]:
        p = self.prefactor
        return {
            (a + p.a, tuple(x + y for x, y in zip(l, p.b)), t + p.c): c
            for (a, l, t), c in self.terms.items()
        }

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedSeries)
            and self.rank == other.rank
            and self.absolute_terms() == other.absolute_terms()
        )

    def __hash__(self):
        return hash((self.rank, frozenset(self.absolute_terms().items())))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def floors(self) -> tuple[Q, Q]:
        return (
            min((a for (a, _, _) in self.terms), default=Q(0)),
            min((t for (_, _, t) in self.terms), default=Q(0)),
        )

    def __repr__(self):
        return (
            f"TruncatedSeries(rank={self.rank}, {len(self.terms)} terms, "
            f"rect=({self.rect[0]},{self.rect[1]}))"
        )

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return _signed_sum(((1, self), (1, other)))

    def __neg__(self):
        return self.scale(Q(-1))

    def __sub__(self, other):
        return _signed_sum(((1, self), (-1, other)))

    def scale(self, factor) -> "TruncatedSeries":
        factor = _q(factor)
        return TruncatedSeries(
            self.rank,
            {k: c * factor for k, c in self.terms.items()},
            self.rect,
            self.prefactor,
            self.den,
        )

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if self.rank != other.rank:
            raise ValueError("series rank mismatch")
        den = math.lcm(self.den, other.den)
        pref = Monomial(
            self.prefactor.a + other.prefactor.a,
            tuple(x + y for x, y in zip(self.prefactor.b, other.prefactor.b)),
            self.prefactor.c + other.prefactor.c,
        )
        if self.is_zero or other.is_zero:
            rect = (min(self.rect[0], other.rect[0]), min(self.rect[1], other.rect[1]))
            return TruncatedSeries(self.rank, {}, rect, pref, den)
        # a product term at exponent a needs one factor known up to a minus
        # the other factor's lowest exponent, so rectangles shift by floors
        fa1, ft1 = self.floors()
        fa2, ft2 = other.floors()
        ra = min(self.rect[0] + fa2, other.rect[0] + fa1)
        rt = min(self.rect[1] + ft2, other.rect[1] + ft1)
        z = math.lcm(
            *{x.denominator for series in (self, other) for (_, l, _) in series.terms for x in l}
        )
        d1 = math.lcm(*{c.denominator for c in self.terms.values()})
        d2 = math.lcm(*{c.denominator for c in other.terms.values()})
        out = _convolve(
            _scaled(self.terms, den, z, d1),
            _scaled(other.terms, den, z, d2),
            _floor_scaled(ra, den),
            _floor_scaled(rt, den),
            cap=DEFAULT_TERM_CAP,
        )
        if len(out) > DEFAULT_TERM_CAP:
            raise SeriesOverflowError(
                f"product of {len(self.terms)} and {len(other.terms)} terms on "
                f"rect ({ra}, {rt}) exceeded the cap of {DEFAULT_TERM_CAP} stored terms"
            )
        return TruncatedSeries(
            self.rank, _unscaled(_rows(out), den, z, d1 * d2), (ra, rt), pref, den
        )

    # -- calculus -----------------------------------------------------------

    def derive(self, axis: str) -> "TruncatedSeries":
        """Normalized partial derivative: each term is scaled by its exponent.

        Axes are "tau", "z1".."z<rank>", "omega"; prefactor exponents take
        part through the product rule.  The 1/(2 pi i) normalization is
        implicit, keeping all coefficients rational.
        """
        p = self.prefactor
        if axis == "tau":
            mult = lambda a, l, t: p.a + a
        elif axis == "omega":
            mult = lambda a, l, t: p.c + t
        elif axis.startswith("z") and axis[1:].isdigit():
            i = int(axis[1:]) - 1
            if not 0 <= i < self.rank:
                raise ValueError(f"axis {axis!r} out of range for rank {self.rank}")
            mult = lambda a, l, t: p.b[i] + l[i]
        else:
            raise ValueError(f"invalid derivation axis {axis!r}")
        out = {
            key: c * mult(*key) for key, c in self.terms.items() if mult(*key) != 0
        }
        return TruncatedSeries(self.rank, out, self.rect, p, self.den)

    def leading_order(self) -> tuple[Q, Q]:
        """Minimal q-exponent and minimal xi-exponent, prefactor included."""
        if not self.terms:
            raise ZeroSeriesError("vanishes to rectangle order")
        fa, ft = self.floors()
        return fa + self.prefactor.a, ft + self.prefactor.c

    def invert(self) -> "TruncatedSeries":
        """Geometric-series inverse; the reduced constant term must be 1.

        Requires every other term to raise the q- or xi-exponent without
        lowering the other, so it refuses data with pure zeta terms on the
        boundary slice (those would need infinitely many terms at fixed
        (a, t)).
        """
        rank = self.rank
        zero_key = (Q(0), tuple(Q(0) for _ in range(rank)), Q(0))
        if self.terms.get(zero_key) != 1:
            raise ValueError("inversion requires reduced constant term 1")
        nilpotent = {k: c for k, c in self.terms.items() if k != zero_key}
        for a, _, t in nilpotent:
            if a < 0 or t < 0 or (a == 0 and t == 0):
                raise ValueError("inversion blocked by terms on the boundary slice")
        n = TruncatedSeries(rank, nilpotent, self.rect, den=self.den)
        acc = one(rank, self.rect, self.den)
        power = one(rank, self.rect, self.den)
        j = 0
        while True:
            # re-truncate to the original rectangle; the product rectangle
            # may grow with the power's floor, which would never terminate
            power = TruncatedSeries(rank, (power * n).terms, self.rect, den=self.den)
            j += 1
            if power.is_zero:
                break
            acc = acc + (power.scale(Q(-1)) if j % 2 else power)
        p = self.prefactor
        inv_pref = Monomial(-p.a, tuple(-x for x in p.b), -p.c)
        return TruncatedSeries(rank, acc.terms, self.rect, inv_pref, self.den)


def _signed_sum(parts: Sequence[tuple[int, TruncatedSeries]]) -> TruncatedSeries:
    """Sum of sign * series over (sign, series) parts, signs +-1, merged once.

    Equals the left fold of ``+`` (``-`` for sign -1): each of its steps takes
    the min of the prefactors' a and c, the first operand's b, the lcm of the
    dens and the min of the absolute rects (prefactor plus rect), as done here
    over all parts.  A term a step drops lies outside that step's absolute
    rect, which only shrinks, so the final constructor drops it too; zero sums
    are dropped in both.  Off the den grid (a prefactor not in (1/den)Z) the
    two may raise on different inputs: each fold step checks its own den.
    """
    first = parts[0][1]
    if any(x.rank != first.rank for _, x in parts):
        raise ValueError("series rank mismatch")
    pa = min(x.prefactor.a for _, x in parts)
    pc = min(x.prefactor.c for _, x in parts)
    pb = first.prefactor.b
    merged: dict[Key, Q] = {}
    get = merged.get
    for sign, x in parts:
        p = x.prefactor
        da, dc, db = p.a - pa, p.c - pc, tuple(map(sub, p.b, pb))
        items = x.terms.items()
        if da or dc or any(db):
            items = (((a + da, tuple(map(add, l, db)), t + dc), c) for (a, l, t), c in items)
        for key, c in items:
            c = c if sign > 0 else -c
            v = get(key)
            merged[key] = c if v is None else v + c
    ra = min(x.prefactor.a + x.rect[0] for _, x in parts) - pa
    rt = min(x.prefactor.c + x.rect[1] for _, x in parts) - pc
    den = math.lcm(*(x.den for _, x in parts))
    return TruncatedSeries(first.rank, merged, (ra, rt), Monomial(pa, pb, pc), den)


def one(rank: int, rect, den: int = DEFAULT_DEN) -> TruncatedSeries:
    return monomial(rank, rect, 0, (0,) * rank, 0, den=den)


def zero(rank: int, rect, den: int = DEFAULT_DEN) -> TruncatedSeries:
    return TruncatedSeries(rank, {}, rect, den=den)


def monomial(
    rank: int, rect, a, l, t, coeff=1, den: int = DEFAULT_DEN
) -> TruncatedSeries:
    key = (_q(a), tuple(_q(x) for x in l), _q(t))
    return TruncatedSeries(rank, {key: _q(coeff)}, rect, den=den)


class WeightedSeries(NamedTuple):
    series: TruncatedSeries
    weight: int


# ---------------------------------------------------------------------------
# the convolution kernel, on integer-scaled terms (a, l, t, c)
# ---------------------------------------------------------------------------

_by_a = itemgetter(0)


def _convolve(left, right, a_hi, t_hi, a_lo=None, cap=None) -> dict:
    """Sparse product of two integer term lists, truncated to a box.

    Pairs with a > a_hi, t > t_hi or a < a_lo are skipped; a_hi or a_lo of
    None leaves that side open.  Both operands are sorted by a, so a row
    stops at the first partner past a_hi.  Returns the map (a, l, t) -> c
    with zero sums kept, and returns as soon as it holds more than cap keys.
    """
    left = sorted(left, key=_by_a)
    right = sorted(right, key=_by_a)
    if not left or not right:
        return {}
    if a_hi is None:
        a_hi = left[-1][0] + right[-1][0]
    if a_lo is None:
        a_lo = left[0][0] + right[0][0]
    lowest = left[0][0]
    out: dict = {}
    get = out.get
    for a2, l2, t2, c2 in right:
        if a2 + lowest > a_hi:
            break
        for a1, l1, t1, c1 in left:
            a = a1 + a2
            if a > a_hi:
                break
            t = t1 + t2
            if t > t_hi or a < a_lo:
                continue
            key = (a, tuple(map(add, l1, l2)), t)
            val = get(key)
            out[key] = c1 * c2 if val is None else val + c1 * c2
        if cap is not None and len(out) > cap:
            break
    return out


def _floor_scaled(r: Q, scale: int) -> int:
    """Largest integer x with x / scale <= r."""
    return r.numerator * scale // r.denominator


def _scaled(terms: Mapping[Key, Q], s: int, z: int, d: int) -> list:
    """Integer terms: a and t times s, zeta entries times z, coefficients times d."""
    return [
        (
            a.numerator * (s // a.denominator),
            tuple([x.numerator * (z // x.denominator) for x in l]),
            t.numerator * (s // t.denominator),
            c.numerator * (d // c.denominator),
        )
        for (a, l, t), c in terms.items()
    ]


def _rows(out: dict) -> list:
    """The nonzero terms of a kernel result, as integer terms again."""
    return [(a, l, t, c) for (a, l, t), c in out.items() if c]


def _unscaled(rows, s: int, z: int, d: int) -> dict[Key, Q]:
    """Fraction-keyed map of integer terms: the inverse of _scaled."""
    qs = {v: Q(v, s) for v in {a for a, _, _, _ in rows} | {t for _, _, t, _ in rows}}
    qz = {v: Q(v, z) for v in {x for _, l, _, _ in rows for x in l}}
    ql = {l: tuple([qz[x] for x in l]) for l in {l for _, l, _, _ in rows}}
    if d == 1:
        return {(qs[a], ql[l], qs[t]): Q(c) for a, l, t, c in rows}
    return {(qs[a], ql[l], qs[t]): Q(c, d) for a, l, t, c in rows}


# ---------------------------------------------------------------------------
# product expansion
# ---------------------------------------------------------------------------


def _binomial_coefficient(exponent: int, j: int) -> int:
    """Coefficient of u^j in (1-u)^exponent, exact for any integer exponent."""
    if exponent >= 0:
        if j > exponent:
            return 0
        return (-1) ** j * math.comb(exponent, j)
    # generalized binomial: (-1)^j * C(exponent, j) with falling factorial
    num = 1
    for i in range(j):
        num *= exponent - i
    return (-1) ** j * num // math.factorial(j)


@dataclass(frozen=True)
class ProductFactor:
    n: int
    l: tuple[Q, ...]
    m: int
    exponent: int


def product_factors(
    coeffs: Mapping[tuple[int, tuple[Q, ...]], int],
    rect: tuple[Q, Q],
    rank: int,
) -> list[ProductFactor]:
    """Factors (n, l, m) > 0 with nonzero exponent f(nm, l) meeting the rectangle.

    The triple ordering means m > 0, or m = 0 and n > 0, or m = n = 0 and
    l < 0.  Absent coefficients are read as zero.  The q budget extends past
    a_max by the debt that principal-part factors with negative n can carry.
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
    factors.sort(key=lambda fac: (fac.m, fac.n, fac.l))
    return factors


def expand_product(
    coeffs: Mapping[tuple[int, tuple[Q, ...]], int],
    weyl: WeylVector,
    rect: tuple[Q, Q],
    rank: int,
    den: int = DEFAULT_DEN,
    term_cap: int = DEFAULT_TERM_CAP,
) -> TruncatedSeries:
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
    debt_floor = -t_max * max_neg
    # factors with n < 0 go first: once they are in, every remaining factor
    # only raises the q-exponent, so truncation at a_max is sound
    factors.sort(key=lambda f: (f.n >= 0, f.m, f.n, f.l))
    terms = _multiply_out(
        factors, rank, a_max, t_max, max_neg,
        a_hi=math.floor(a_max), a_lo=math.ceil(debt_floor), term_cap=term_cap,
    )
    pref = Monomial(_q(weyl.a), tuple(_q(x) for x in weyl.b), _q(weyl.c))
    return TruncatedSeries(rank, terms, (a_max, t_max), pref, den)


def _multiply_out(factors, rank, a_max, t_max, max_neg, a_hi, a_lo, term_cap):
    """Terms of the product of the factors' binomials, one factor at a time.

    Exponents a and t are integers here; zeta entries are scaled by the lcm
    of the factors' zeta denominators.  Products leaving the box
    a_lo <= a <= a_hi, t <= t_max are dropped after every factor (None
    leaves a side open), and more than term_cap nonzero terms after any
    factor raises SeriesOverflowError.
    """
    z = math.lcm(*{x.denominator for fac in factors for x in fac.l})
    t_hi = math.floor(t_max)
    acc = [(0, (0,) * rank, 0, 1)]
    for fac in factors:
        poly = _factor_terms(fac, a_max, t_max, max_neg, z)
        acc = _rows(_convolve(acc, poly, a_hi, t_hi, a_lo))
        if term_cap is not None and len(acc) > term_cap:
            raise SeriesOverflowError(
                f"expansion exceeded {term_cap} stored terms at factor {fac}"
            )
    return _unscaled(acc, 1, z, 1)


def _factor_terms(fac: ProductFactor, a_max: Q, t_max: Q, max_neg: int, z: int):
    """Terms of (1 - u)^exponent with u = q^n zeta^l xi^m, up to the budget.

    Integer terms (a, l, t, c) with the zeta entries scaled by z.
    """
    if fac.m > 0:
        j_max = math.floor(t_max / fac.m)
    elif fac.n > 0:
        j_max = math.floor((a_max + t_max * max_neg) / fac.n)
    else:
        j_max = fac.exponent
    l = [x.numerator * (z // x.denominator) for x in fac.l]
    out = []
    for j in range(j_max + 1):
        coeff = _binomial_coefficient(fac.exponent, j)
        if coeff:
            out.append((j * fac.n, tuple([j * x for x in l]), j * fac.m, coeff))
    return out


def log_derivative_residual(
    coeffs: Mapping[tuple[int, tuple[Q, ...]], int],
    weyl: WeylVector,
    rect: tuple[Q, Q],
    rank: int,
    den: int = DEFAULT_DEN,
    term_cap: int = DEFAULT_TERM_CAP,
) -> TruncatedSeries:
    """Difference of the two sides of the logarithmic xi-derivative identity.

    With G0 the expanded product over the factors with n >= 0, the identity
    D_omega(G0)/G0 = C + sum f(nm,l) (-m) u/(1-u) is verified with
    denominators cleared:

        D_omega(G0) * P  ==  G0 * (C * P + sum_i f_i (-m_i) u_i * P_i)

    where P is the product of (1-u_i) over those factors with m > 0 and
    P_i = P/(1-u_i) is computed by an exact terminating geometric series.
    The factors with n < 0 contribute their definitional binomials and are
    covered by principal_block_residual instead; keeping them out of this
    identity keeps every exponent floor nonnegative, so the rectangle
    bookkeeping stays sharp.  The returned series is identically zero iff
    the identity holds on the rectangle.
    """
    a_max, t_max = _q(rect[0]), _q(rect[1])
    nonneg = {key: f for key, f in coeffs.items() if key[0] >= 0}
    g0 = expand_product(nonneg, weyl, rect, rank, den, term_cap)
    xi_factors = [f for f in product_factors(nonneg, rect, rank) if f.m > 0]
    p = one(rank, (a_max, t_max), den)
    for fac in xi_factors:
        p = p * _binomial_series(fac, rank, (a_max, t_max), den)
    rhs = p.scale(_q(weyl.c))
    for fac in xi_factors:
        u = monomial(rank, (a_max, t_max), fac.n, fac.l, fac.m, den=den)
        geo = TruncatedSeries(
            rank,
            {
                (Q(j * fac.n), tuple(j * x for x in fac.l), Q(j * fac.m)): Q(1)
                for j in range(math.floor(t_max / fac.m) + 1)
            },
            (a_max, t_max),
            den=den,
        )
        p_over = p * geo  # exact: (1-u) * geo = 1 - u^(j_max+1), beyond the rectangle
        rhs = rhs + (u * p_over).scale(Q(-fac.m * fac.exponent))
    lhs = g0.derive("omega") * p
    rhs = g0 * rhs
    return lhs - rhs


def principal_block_residual(
    coeffs: Mapping[tuple[int, tuple[Q, ...]], int],
    weyl: WeylVector,
    rect: tuple[Q, Q],
    rank: int,
    den: int = DEFAULT_DEN,
    term_cap: int = DEFAULT_TERM_CAP,
) -> TruncatedSeries:
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
    block = _multiply_out(
        neg_factors, rank, a_max, t_max, max_neg, a_hi=None, a_lo=None, term_cap=None
    )
    b = TruncatedSeries(rank, block, (a_max, t_max), den=den)
    product = g0 * b
    cut = product.rect
    g_cut = TruncatedSeries(rank, g.terms, cut, g.prefactor, den)
    prod_cut = TruncatedSeries(rank, product.terms, cut, product.prefactor, den)
    return g_cut - prod_cut


def _binomial_series(fac: ProductFactor, rank: int, rect, den: int) -> TruncatedSeries:
    return one(rank, rect, den) - monomial(rank, rect, fac.n, fac.l, fac.m, den=den)


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
        rect = (min(x.rect[0] for x in series), min(x.rect[1] for x in series))
        return _minor(rows, memo, 0, cols, rect, math.lcm(*(x.den for x in series)))

    return s, det


def _minor(rows, memo: dict, i: int, cols: tuple[int, ...], rect, den: int) -> TruncatedSeries:
    """Minor on rows i.., columns cols, along row i from zero(rect) to one(rect).

    A module function, not a closure, so the memo is freed with its last
    caller instead of waiting for the cycle collector.
    """
    rank = rows[0][0].rank
    if not cols:
        return one(rank, rect, den)
    key = (i, cols, rect, den)
    total = memo.get(key)
    if total is None:
        parts = [(1, zero(rank, rect, den))]
        for pos, j in enumerate(cols):
            if not rows[i][j].is_zero:
                rest = _minor(rows, memo, i + 1, cols[:pos] + cols[pos + 1 :], rect, den)
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


def parse_q(s: str) -> Q:
    return Q(s)


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


def _json_int(value, what: str, least: int) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise ValueError(f"{what} must be an integer >= {least}, got {value!r}")
    return value


def _json_q(value, what: str) -> Q:
    try:
        return parse_q(value)
    except (TypeError, ValueError, ZeroDivisionError):
        raise ValueError(f"{what} must be a rational 'p/q', got {value!r}") from None


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
