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

Products run through three int loops, each serving the callers it measured
fastest on (in-process A/Bs, best of 20 per job, on a 2-CPU x86-64 host).
``__mul__`` multiplies two large sparse series, as the residual oracles do:
x as rows {(a, t): {packed l: c}} times y as a list of packed terms, the box
tested once per y term and x row.  That made the 18 perfbench expand jobs
x1.18 faster than ``_accumulate`` did.  ``_accumulate`` sums m*x*y over many
pairs of tiny operands on plain int tuple keys, and every such sum is one
step of a Laplace expansion on one integer grid: each Jacobian minor is one
call, and the syzygy sum's expansion along its first row one more.  A
prototype with packed keys there measured jacobian x0.91 and expand only
x1.05, as packing costs more than it saves on 4-term operands.
``_multiply_out`` multiplies the product expansion's binomials factor by
factor on rows.  It and ``__mul__`` do not call each other, so
``log_derivative_residual`` checks the expansion with a loop other than its
own; they share only ``_pack`` and ``_unpack``.  The rect rule of ``__mul__``
and ``_accumulate`` lives in ``_product_heads``.  A packed key is the zeta
vector as one int of signed base-2^w digits (Kronecker substitution), so
keys add as ints.  That is safe because w puts 2^(w-1) above every digit a
product can reach: the sum of the operands' largest zeta entries, or over
factors of the largest entry in each factor's binomial.

Fractions appear only at the edges.  ``TruncatedSeries(...)``, ``monomial``,
``one``, ``zero`` and ``series_from_json`` check and scale rational input
once; internal results are built from ints by ``_new`` with no re-checks,
once, on their final grid: nothing rescales a finished series.
``.terms`` is a read-only Fraction view built on first access and cached;
``.rect`` and ``.prefactor`` are Fractions built from the ints on access.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction as Q
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

    __slots__ = ("rank", "den", "_z", "_d", "_terms", "_pa", "_pb", "_pc", "_ra", "_rt",
                 "_view", "_rect")

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

    def _with(self, terms: dict, d: int) -> "TruncatedSeries":
        """New nonzero int terms over d with this den, prefactor and rect."""
        return _new(self.rank, self.den, self._z, d, terms, self._pa, self._pb, self._pc, self._ra, self._rt)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if self.rank != other.rank:
            raise ValueError("series rank mismatch")
        return _product(self, other)

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


def _operand(items: list, *head) -> tuple:
    """The grid operand (items, _floors of their keys, *head) of int terms sorted by key."""
    return (items, (items[0][0][0], min(k[2] for k, _ in items)) if items else (0, 0), *head)


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
# the pair loops of series products, and packed zeta keys
# ---------------------------------------------------------------------------


def _product_heads(pairs, head) -> tuple[list, list]:
    """(heads, products) of the pairs (m, x, y) of grid operands, after head.

    The one place of the product-rect rule, used by ``_product`` and
    ``_accumulate``; of each operand (items, floors, A, B, C, a bound, t bound)
    it reads only the floors and whether items is empty.  heads holds head,
    when it is not None, then the (A, B, C, absolute a bound, absolute t
    bound) of each product x * y; products holds (its index in heads, m, x's
    items, y's items) for each pair with m and both operands nonzero.

    A product's prefactor is the sum of the prefactors.  Its rect is the
    tighter of each operand's rect shifted by the other's floors (a term at a
    needs one factor up to a minus the other's lowest exponent); with an
    empty operand, the smaller rect.  The rule is sound, every kept
    coefficient being that of the product of any extensions of x and y past
    their rects, on these inputs:
    - with an empty operand, when the other has no term (past its rect
      included) with negative a or t; a negative floor on the other side
      lowers what is known, and the min of the rects claims too much;
    - with both nonempty, when in one coordinate, a or t, no term of either
      operand past its rect lies below that operand's stored floor.  The
      floors are read off the stored terms, and a term lost needs one past x's
      rect below x's t floor and one past y's rect below y's a floor (or the
      mirror).  A Borcherds expansion has t >= 0 and stores its t = 0 term, so
      its t floor is the true one and products of them never meet this gap.
    Both gaps are pinned by strict xfails in tests/test_series.py.
    """
    heads, products = [] if head is None else [head], []
    for m, (i1, (fa1, ft1), pa1, pb1, pc1, ra1, rt1), (i2, (fa2, ft2), pa2, pb2, pc2, ra2, rt2) in pairs:
        if i1 and i2:
            ra1, rt1 = (ra1[0] + fa2, ra1[1]), (rt1[0] + ft2, rt1[1])
            ra2, rt2 = (ra2[0] + fa1, ra2[1]), (rt2[0] + ft1, rt2[1])
            if m:
                products.append((len(heads), m, i1, i2))
        pa, pc = pa1 + pa2, pc1 + pc2
        ra, rt = ra1 if ra1 < ra2 else ra2, rt1 if rt1 < rt2 else rt2
        heads.append((pa, tuple(map(add, pb1, pb2)), pc, (pa + ra[0], ra[1]), (pc + rt[0], rt[1])))
    return heads, products


def _overflow(what: str, ra: tuple, rt: tuple, den: int, cap: int) -> SeriesOverflowError:
    return SeriesOverflowError(
        f"{what} on rect ({_value(ra, den)}, {_value(rt, den)}) exceeded the cap of {cap} stored terms"
    )


def _accumulate(pairs, head, den: int, what) -> tuple:
    """(nonzero int terms, A, B, C, a bound, t bound) of the sum of m * x * y over the pairs.

    The pair loop of the Laplace expansions: ``_minor`` calls it once per
    minor and ``syzygy_sum`` once for its first row.  x and y are grid
    operands (see ``_operand``) on one den and zeta grid, every product's
    numerators over one denominator; m is an int, head the (A, B, C, absolute
    a bound, absolute t bound) of a zero summand put first, or None.

    Each product takes the prefactor and rect of ``_product_heads``.  The sum
    takes ``_signed_sum``'s rule: the min a and c of the parts' prefactors, the
    first part's b and the min absolute rect, which lies inside every
    product's, so cutting every pair at it drops only terms the merge of the
    products would drop too.

    y runs outside, shifted to the sum's prefactor and times m once per term;
    x and y are sorted by a, so a row stops at the first partner past the
    rect.  More than DEFAULT_TERM_CAP keys in the accumulator, zero sums
    included, raise SeriesOverflowError naming what(), the sum being built.
    """
    heads, products = _product_heads(pairs, head)
    pas, pbs, pcs, ras, rts = zip(*heads)
    pa, pb, pc, ra, rt = min(pas), pbs[0], min(pcs), min(ras), min(rts)
    ra, rt = (ra[0] - pa, ra[1]), (rt[0] - pc, rt[1])
    a_hi, t_hi, cap = ra[0], rt[0], DEFAULT_TERM_CAP
    out: dict = {}
    get = out.get
    for h, mult, left, right in products:
        da, db, dc = pas[h] - pa, tuple(map(sub, pbs[h], pb)), pcs[h] - pc
        shift, lowest = any(db), left[0][0][0]
        for (a2, l2, t2), c2 in right:
            a2 += da
            if a2 + lowest > a_hi:
                break
            t2, c2 = t2 + dc, c2 * mult
            if shift:
                l2 = tuple(map(add, l2, db))
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
                raise _overflow(what(), ra, rt, den, cap)
    return {k: c for k, c in out.items() if c}, pa, pb, pc, ra, rt


def _product(x: TruncatedSeries, y: TruncatedSeries) -> TruncatedSeries:
    """x * y by one loop over y's terms and x's rows, on packed zeta keys.

    Both go onto one den and zeta grid.  x becomes rows {(a, t): {packed l:
    c}} and y a list of packed terms sorted by a; 2^(w-1) lies above the sum
    of their largest zeta entries, so no digit of a sum overflows and a pair's
    key is k1 + k2.  The box of the rect ``_product_heads`` gives is tested
    once per y term and x row, and each distinct key is unpacked once at the
    end.  More than DEFAULT_TERM_CAP keys reached, zero sums included, raise
    SeriesOverflowError, as in ``_accumulate``.
    """
    rank, den, z = x.rank, math.lcm(x.den, y.den), math.lcm(x._z, y._z)
    xterms, *xhead = _on(x, den, z)
    yterms, *yhead = _on(y, den, z)
    xls, yls = {k[1] for k in xterms}, {k[1] for k in yterms}
    widest = lambda ls: max((abs(v) for l in ls for v in l), default=0)
    w = (widest(xls) + widest(yls)).bit_length() + 1
    packed = {l: _pack(l, w) for l in xls | yls}
    rows: dict = {}
    for (a, l, t), c in xterms.items():
        row = rows.get((a, t))
        if row is None:
            rows[(a, t)] = row = {}
        row[packed[l]] = c
    left = sorted(rows.items())
    right = sorted([(a, t, packed[l], c) for (a, l, t), c in yterms.items()])
    xfloors = _floors(xterms)
    pair = (1, (left, xfloors, *xhead), (right, _floors(yterms), *yhead))
    ((pa, pb, pc, ra, rt),), _ = _product_heads([pair], None)
    ra, rt = (ra[0] - pa, ra[1]), (rt[0] - pc, rt[1])
    a_hi, t_hi, cap, reached = ra[0], rt[0], DEFAULT_TERM_CAP, 0
    out: dict = {}
    for a2, t2, k2, c2 in right:
        if a2 + xfloors[0] > a_hi:
            break
        for (a1, t1), row1 in left:
            a = a1 + a2
            if a > a_hi:
                break
            t = t1 + t2
            if t > t_hi:
                continue
            row = out.get((a, t))
            if row is None:
                out[(a, t)] = {k1 + k2: c1 * c2 for k1, c1 in row1.items()}
                reached += len(row1)
                continue
            size, get = len(row), row.get
            for k1, c1 in row1.items():
                k = k1 + k2
                v = get(k)
                row[k] = c1 * c2 if v is None else v + c1 * c2
            reached += len(row) - size
        if reached > cap:
            raise _overflow(f"product of {len(x._terms)} and {len(y._terms)} terms", ra, rt, den, cap)
    ls = {k: _unpack(k, rank, w) for k in set().union(*out.values())}
    terms = {(a, ls[k], t): c for (a, t), row in out.items() for k, c in row.items() if c}
    return _new(rank, den, z, x._d * y._d, terms, pa, pb, pc, ra, rt)


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
    l < 0.  Absent coefficients are read as zero, and an entry whose l is
    not of length rank raises ValueError.  The q budget extends past a_max
    by the debt that principal-part factors with negative n can carry: n
    runs up to n_hi = floor(a_max + t_max * max_neg) and m up to
    floor(t_max).  The factors are counted from the support first, and more
    than DEFAULT_TERM_CAP of them raise SeriesOverflowError before any is
    built.

    The factors come in expansion order, by (n >= 0, m, n, l): those with
    n < 0 go first, as every one of their terms has a <= 0, so a bound of at
    least 0 drops none of them, and once they are in every remaining factor
    only raises the q-exponent, so truncation at a_max is sound.  l is
    compared by its place in one sort of the support's distinct vectors, so
    the sort of the factors compares ints only.
    """
    a_max, t_max = _q(rect[0]), _q(rect[1])
    support: dict[int, list[tuple[tuple[Q, ...], int]]] = {}
    for (n0, l), f in coeffs.items():
        if len(l) != rank:
            raise ValueError(f"coefficient entry f({n0}, {list(map(str, l))}) has length {len(l)}, not rank {rank}")
        if f:
            support.setdefault(n0, []).append((tuple(_q(x) for x in l), f))
    max_neg = max((-n0 for n0 in support if n0 < 0), default=0)
    n_hi, t_hi = math.floor(a_max + t_max * max_neg), math.floor(t_max)
    # the m of the factors (n0 / m, l, m) of an entry at n0 != 0; one at n0 = 0 gives
    # (0, l, 0) for l < 0, (n, l, 0) for 0 < n <= n_hi and (0, l, m) for 0 < m <= t_hi
    ms = {n0: [m for m in range(1, min(t_hi, abs(n0)) + 1) if n0 % m == 0 and n0 // m <= n_hi]
          for n0 in support if n0}
    boundary = {l for l, _ in support.get(0, ()) if is_positive_direction(tuple(-x for x in l))}
    count = len(boundary) + len(support.get(0, ())) * (max(n_hi, 0) + max(t_hi, 0))
    count += sum(len(support[n0]) * len(m) for n0, m in ms.items())
    if count > DEFAULT_TERM_CAP:
        raise SeriesOverflowError(
            f"the expansion has {count} factors, more than the term cap of {DEFAULT_TERM_CAP}"
        )
    place = {l: i for i, l in enumerate(sorted({l for entries in support.values() for l, _ in entries}))}
    keyed = []  # (n >= 0, m, n, the place of l, l, f): unique on the first four
    for n0, entries in support.items():
        for l, f in entries:
            p = place[l]
            if n0:
                keyed += [(n0 > 0, m, n0 // m, p, l, f) for m in ms[n0]]
                continue
            if l in boundary:
                keyed.append((True, 0, 0, p, l, f))  # m = n = 0, l < 0
            keyed += [(True, 0, n, p, l, f) for n in range(1, n_hi + 1)]
            keyed += [(True, m, 0, p, l, f) for m in range(1, t_hi + 1)]
    keyed.sort()
    return [ProductFactor(n, l, m, f) for _, m, n, _, l, f in keyed]


def expand_product(coeffs: Coeffs, weyl: WeylVector, rect: tuple[Q, Q], rank: int,
                   den: int = DEFAULT_DEN) -> TruncatedSeries:
    """Expand q^A zeta^B xi^C prod (1 - q^n zeta^l xi^m)^{f(nm, l)} exactly.

    Binomial expansion of every factor to the order the rectangle needs.
    Factors with m = n = 0 must have positive exponents (otherwise the
    expansion is meromorphic along the toric boundary and is rejected), and
    the product of their (exponent + 1), a bound on their block's zeta
    monomials, is capped at DEFAULT_TERM_CAP, as are the terms stored after
    every factor: overflow raises SeriesOverflowError.  The terms come out of
    ``_multiply_out`` on the final grid: den, and z the lcm of B's and the
    factors' zeta denominators.
    """
    a_max, t_max = _q(rect[0]), _q(rect[1])
    factors = product_factors(coeffs, rect, rank)
    bound = 1
    for k, fac in enumerate((f for f in factors if f.m == f.n == 0), 1):
        if fac.exponent < 0:
            raise ValueError(
                "negative exponent on a boundary factor: expansion is "
                "meromorphic along the toric boundary"
            )
        bound *= fac.exponent + 1
        if bound > DEFAULT_TERM_CAP:
            raise SeriesOverflowError(
                "the bound prod (exponent + 1) on the zeta monomials of the m = n = 0 factor block is "
                f"{bound} over its first {k} factors, which exceeds the term cap of {DEFAULT_TERM_CAP}"
            )
    pa, pb, pc = _checked_prefactor(Monomial(weyl.a, weyl.b, weyl.c), rank, den)
    z = math.lcm(*{x.denominator for x in pb}, *{x.denominator for fac in factors for x in fac.l})
    terms = _multiply_out(factors, rank, a_max, t_max, den, z)
    return _new(rank, den, z, 1, terms, _int(pa, den), _scaled(pb, z), _int(pc, den),
                _bound(a_max, den), _bound(t_max, den))


def _multiply_out(factors, rank, a_max, t_max, den, z):
    """The int terms of the product of the factors' binomials, on the den and z grid.

    The factors are multiplied one at a time with integer exponents a and t,
    and zeta entries scaled by z, a multiple of the factors' zeta
    denominators.  Products leaving the box a <= max(a_max, 0), t <= t_max
    are dropped after every factor, and more than DEFAULT_TERM_CAP nonzero
    terms after any factor raises SeriesOverflowError.  No lower q bound is
    needed: n >= -max_neg, and m >= 1 where n < 0, so a binomial term has
    a = j*n >= -max_neg * j*m = -max_neg * t, hence so does every product,
    and t <= t_max bounds a below by -max_neg * t_max.

    The accumulator maps each (a, t) to a row {_pack(l, w): c} with no zero
    c.  A product term's zeta entry sums one binomial term's entry per
    factor, so with 2^(w-1) above the sum over factors of their largest
    entry no digit can overflow, and a pair's key is the int k1 + k2.  The
    box is tested once per pair of rows.  The one pass at the end drops the
    rows with a > a_max (a_max < 0 cuts only there, after every n < 0 factor
    is in), unpacks each distinct key once and writes the keys (a*den, l,
    t*den) of the series grid, so nothing rescales the result.
    """
    a_hi, t_hi = max(math.floor(a_max), 0), math.floor(t_max)
    max_neg = max((-fac.n for fac in factors if fac.n < 0), default=0)
    n_hi = math.floor(a_max + t_max * max_neg)
    ls = [_scaled(fac.l, z) for fac in factors]
    binomials = [_binomial(fac, t_hi, n_hi) for fac in factors]
    bound = sum(b[-1][0] * max(map(abs, l), default=0) for l, b in zip(ls, binomials))
    w = bound.bit_length() + 1
    acc = {(0, 0): {0: 1}}
    for i, (fac, l, binomial) in enumerate(zip(factors, ls, binomials), 1):
        # the j = 0 term of a binomial is 1: the rows inside the box, copied
        key = _pack(l, w)
        out = {(a, t): row.copy() for (a, t), row in acc.items() if a <= a_hi and t <= t_hi}
        for j, c2 in binomial[1:]:
            a2, k2, t2 = j * fac.n, j * key, j * fac.m
            for (a1, t1), row1 in acc.items():
                a, t = a1 + a2, t1 + t2
                if a > a_hi or t > t_hi:
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
        if sum(map(len, acc.values())) > DEFAULT_TERM_CAP:
            raise SeriesOverflowError(
                f"expansion exceeded {DEFAULT_TERM_CAP} stored terms at factor {i} of {len(factors)}: {fac}"
            )
    acc = {(a * den, t * den): row for (a, t), row in acc.items() if a <= a_max}
    unpacked = {k: _unpack(k, rank, w) for k in set().union(*acc.values())}
    return {(a, unpacked[k], t): c for (a, t), row in acc.items() for k, c in row.items()}


def _binomial(fac: ProductFactor, t_hi: int, n_hi: int) -> list[tuple[int, int]]:
    """Pairs (j, coefficient of u^j) of (1 - u)^exponent, u = q^n zeta^l xi^m.

    The nonzero coefficients up to the budget, j = 0 (coefficient 1) first:
    j*m <= t_hi = floor(t_max), or for m = 0 j*n <= n_hi = floor(a_max +
    t_max * max_neg), where floor(r / k) = floor(r) // k for ints k >= 1.
    An exponent e >= 0 has no terms past u^e, so j stops at e.
    """
    if fac.m > 0:
        j_max = t_hi // fac.m
    elif fac.n > 0:
        j_max = n_hi // fac.n
    else:
        j_max = fac.exponent
    if fac.exponent >= 0:
        j_max = min(j_max, fac.exponent)
    return [(j, c) for j in range(j_max + 1) if (c := _binomial_coefficient(fac.exponent, j))]


def log_derivative_residual(coeffs: Coeffs, weyl: WeylVector, rect: tuple[Q, Q], rank: int) -> TruncatedSeries:
    """Difference of the two sides of the logarithmic xi-derivative identity.

    With G0 the expanded product over the factors with n >= 0, u_i their
    monomials q^n zeta^l xi^m with m > 0 and f_i their exponents, returns

        D_omega(G0)  -  G0 * (C + S),    S = sum_i f_i (-m_i) sum_{j >= 1} u_i^j

    where sum_{j >= 1} u_i^j is u_i/(1 - u_i), exact on the rectangle because
    m_i >= 1 makes it terminate at j = floor(t_max/m_i).  S is built directly
    as one int term map on the series grid, so the check costs a single
    series product, taken with ``__mul__`` and not with the expansion's own
    kernel: the two loops do not call each other and share only ``_pack``
    and ``_unpack``, which ``TestPacking`` property-tests.  The factors with
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
    g0 = expand_product(nonneg, weyl, rect, rank)
    xi_factors = [f for f in product_factors(nonneg, rect, rank) if f.m > 0]
    den, z = DEFAULT_DEN, math.lcm(*{x.denominator for fac in xi_factors for x in fac.l})
    terms: dict = {}
    for fac in xi_factors:
        l = _scaled(fac.l, z)
        for j in range(1, math.floor(t_max / fac.m) + 1):
            key = (j * fac.n * den, tuple([j * x for x in l]), j * fac.m * den)
            terms[key] = terms.get(key, 0) - fac.m * fac.exponent
    terms = {k: c for k, c in terms.items() if c and k[0] <= a_max * den}
    s = _new(rank, den, z, 1, terms, 0, (0,) * rank, 0, _bound(a_max, den), _bound(t_max, den))
    return g0.derive("omega") - g0 * (s + one(rank, (a_max, t_max)).scale(_q(weyl.c)))


def principal_block_residual(coeffs: Coeffs, weyl: WeylVector, rect: tuple[Q, Q], rank: int) -> TruncatedSeries:
    """Difference of the full expansion and (n >= 0 block) * (n < 0 block).

    The n < 0 block is expand_product of the table's n < 0 entries with a
    zero prefactor: finite binomials whose every term has a <= 0, which the
    full expansion multiplies first under the same cap.  Both blocks are
    expanded on (max(a_max, 0), t_max), so the n < 0 block is their whole
    product on t <= t_max, with its term 1: t floor 0 and an a floor f <= 0.
    That makes ``__mul__``'s rect rule sound (on (a_max, t_max) with a_max <
    0 the n >= 0 block is empty, and the product would claim that rect with
    no terms), and the product is exact on a <= max(a_max, 0) + f.  ``-``
    takes the smaller of that and the full expansion's rect, as both share
    the prefactor, so the check runs on the largest rectangle both sides are
    exact on.
    """
    g = expand_product(coeffs, weyl, rect, rank)
    wide = (max(_q(rect[0]), 0), rect[1])
    g0 = expand_product({key: f for key, f in coeffs.items() if key[0] >= 0}, weyl, wide, rank)
    neg = {key: f for key, f in coeffs.items() if key[0] < 0}
    product = g0 * expand_product(neg, WeylVector(Q(0), (Q(0),) * rank, Q(0)), wide, rank)
    return g - product


# ---------------------------------------------------------------------------
# Jacobian determinants
# ---------------------------------------------------------------------------


def jacobian(forms: Sequence[WeightedSeries]) -> TruncatedSeries:
    """Determinant with first row k_i f_i and derivative rows below.

    For zeta-block rank s this takes exactly s + 3 forms (one per tube
    domain coordinate tau, z_1..z_s, omega, plus one): the matrix rows are
    the weighted forms, then the derivatives along tau, z_1..z_s, omega.  The
    Laplace expansion runs on int terms on one grid; see ``_determinants``.
    """
    s, den, z, _, det = _determinants(forms, 3, "")
    (items, _, *head), d = det(tuple(range(s + 3)))
    return _new(s, den, z, d, dict(items), *head)


def syzygy_sum(forms: Sequence[WeightedSeries]) -> TruncatedSeries:
    """Alternating sum (-1)^t k_t f_t J_t over one extra form; identically zero.

    J_t is the Jacobian of all forms except the t-th (1-indexed), so for
    rank s this takes s + 4 forms.  The sum is the first-row Laplace expansion
    of the (s+4)x(s+4) determinant whose first two rows are both k_i f_i, and
    J_t is its minor on rows 2.. over the columns other than t.  All J_t are
    expanded on the grid of all s + 4 forms and share its minors wherever
    their rects agree (J_t's is the min of the other forms' rects).  The last
    step stays on that grid: one ``_accumulate`` call over the pairs (+-k_t,
    f_t's grid operand, J_t's), each product's numerators over the same
    d = d_1 .. d_(s+4) den^2 z^s, so only the sum reduces.
    """
    s, den, z, grid, det = _determinants(forms, 4, "syzygy ")
    minors = [det(tuple(j for j in range(s + 4) if j != t)) for t in range(s + 4)]
    pairs = [(f.weight if t % 2 else -f.weight, grid[t], minors[t][0]) for t, f in enumerate(forms)]
    d = forms[0].series._d * minors[0][1]
    return _new(s, den, z, d, *_accumulate(pairs, None, den, lambda: f"sum of {len(pairs)} products"))


def _determinants(forms: Sequence[WeightedSeries], extra: int, what: str):
    """(s, den, z, grid, det): the forms' rank, grid and Jacobians on that grid.

    The grid is the lcm den of the forms' dens and the lcm z of their zeta
    denominators; grid[j] is f_j as a grid operand, numerators over d_j, f_j's
    coefficient denominator.  Entry (r, j) of the matrix is grid[j] with its
    terms times k_j in row 0 and times their exponent along tau, z_1..z_s,
    omega below (ints on the grid), numerators over d_j times the row's scale
    1, den, z, .., z, den.  So the minor on rows i.. and columns cols is over
    the product of its d_j and its rows' scales, and its Laplace pairs all
    enter with m = +-1.  det(cols) is (the grid operand of the minor on all
    s + 3 rows and the columns cols, unreduced, its denominator d).
    """
    if not forms:
        raise ValueError("no forms given")
    s = forms[0].series.rank
    if len(forms) != s + extra:
        raise ValueError(f"rank {s} {what}needs exactly {s + extra} forms, got {len(forms)}")
    if any(f.series.rank != s for f in forms):
        raise ValueError("series rank mismatch")
    den, z = math.lcm(*{f.series.den for f in forms}), math.lcm(*{f.series._z for f in forms})
    grid = []
    for f in forms:
        terms, *head = _on(f.series, den, z)
        grid.append(_operand(sorted(terms.items()), *head))
    columns = []
    for f, (items, _, pa, pb, pc, ra, rt) in zip(forms, grid):
        # each term's factor per row: k_j, then its exponents plus the prefactor's
        flat = [(key, c, (f.weight, pa + key[0], *map(add, pb, key[1]), pc + key[2])) for key, c in items]
        columns.append([_operand([(k, c * e[r]) for k, c, e in flat if e[r]], pa, pb, pc, ra, rt)
                        for r in range(s + 3)])
    rows = list(zip(*columns))
    scale, zeros, memo = den * den * z**s, (0,) * s, {}

    def det(cols: tuple[int, ...]) -> tuple:
        # the zero summand every minor starts from: prefactor 0 and the forms' smallest rect
        head = (0, zeros, 0, min(grid[j][5] for j in cols), min(grid[j][6] for j in cols))
        minor = _minor(rows, memo.setdefault(head, {}), den, 0, cols, head)
        return minor, math.prod(forms[j].series._d for j in cols) * scale

    return s, den, z, grid, det


def _minor(rows, memo: dict, den: int, i: int, cols: tuple[int, ...], head: tuple) -> tuple:
    """The grid operand of the minor on rows i.., columns cols; the unit when cols is empty.

    One ``_accumulate`` call along row i over the pairs (+-1, entry, minor
    below) after head, the determinant's zero summand; memo holds the minors
    from that head.  A module function, not a closure, so the memo is freed
    with its last caller instead of waiting for the cycle collector.
    """
    key = (i, cols)
    total = memo.get(key)
    if total is None:
        if not cols:  # one term 1 at the origin, if the head's rect holds it
            total = _operand([((0, head[1], 0), 1)] if head[3][0] >= 0 and head[4][0] >= 0 else [], *head)
        else:
            below = lambda pos: _minor(rows, memo, den, i + 1, cols[:pos] + cols[pos + 1 :], head)
            pairs = [(-1 if pos % 2 else 1, rows[i][j], below(pos)) for pos, j in enumerate(cols) if rows[i][j][0]]
            what = lambda: f"{len(cols)}x{len(cols)} minor at row {i}, columns {list(cols)},"
            terms, *rest = _accumulate(pairs, head, den, what)
            total = _operand(sorted(terms.items()), *rest)
        memo[key] = total
    return total


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
