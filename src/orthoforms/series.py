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
of B) and d one coefficient denominator.  A term is stored absolute, as the
int key ((a + A)*den, (l + B)*z, (t + C)*den) with the int numerator c*d,
and a rect bound as the one number (A + a_max)*den or (C + t_max)*den,
exact (a Fraction off the grid): an int key x is inside iff x <= floor of
it.  d is kept reduced (its gcd with the numerators is 1), so it is the lcm
of the coefficient denominators and does not grow along product chains.
The prefactor (A*den, B*z, C*den) only frames the views: it is added in
``__init__`` and in the expansion (``_expand`` and ``_multiply_out``), and
subtracted only in ``.terms``, ``.rect``, the overflow messages and
``_determinants``' zero head.
Scaling commutes with the sums and products the operations form, and an
operand on another den or z is first rescaled by the integer ratio, so
every int result divided by its scales is the exact rational one.

Products run through three int loops, each serving the callers it measured
fastest on (in-process A/Bs, best of 20 per job, on a 2-CPU x86-64 host).
``__mul__`` multiplies two large sparse series, as the residual oracles do:
x as rows {(a, t): {packed l: c}} times y as a list of packed terms, the box
tested once per y term and x row (x1.18 on the 18 perfbench expand jobs
against ``_accumulate``).  ``_accumulate`` sums m*x*y over many pairs of tiny
operands on flat keys (a, t, packed l): a Jacobian minor (under 3 term
pairs), or the syzygy sum's last step.  A minor is built only on the box
from which its terms can reach the rect (the cut of ``_determinants``), and
is its terms alone there, keyed by an int column mask: perfbench jacobian's
jobs/s rose x1.41, then x1.12 to x1.19 (medians of 10 alternated pairs).
``_multiply_out`` multiplies the product expansion's binomials into rows in
place, reading each row before a lower one adds into it.  It and ``__mul__``
do not call each other, so ``log_derivative_residual`` checks the expansion
with a loop other than its own; they share only ``_pack`` and ``_unpack``.
The rect rule of a product lives in ``_product_head`` (``__mul__`` and
``syzygy_sum`` call it), that of ``+`` in ``_sum_head`` (``_sum`` and ``syzygy_sum``).
A packed key is the zeta vector as one int of signed base-2^w digits
(Kronecker substitution), so keys add as ints.  That is safe because w puts
2^(w-1) above every digit a product can reach: the sum of the operands'
largest zeta entries, or B's plus the sum over factors of their largest.

Fractions appear only at the edges.  ``TruncatedSeries(...)``, ``monomial``,
``one``, ``zero`` and ``series_from_json`` check and scale rational input
once; internal results are built from ints by ``_new`` with no re-checks,
once, on their final grid: nothing rescales a finished series.
``.terms`` is a read-only Fraction view built on first access and cached;
``.rect`` and ``.prefactor`` are Fractions built on access.

This module imports ``weyl`` for annotations only.  The product expansion
reads just the .a, .b and .c of a Weyl vector, so its zero prefactor is a
``Monomial.zero``, and the lex sign test on factor vectors lives in
``linalg``.  A command that reads series files, such as ``jacobian``, then
never runs ``weyl``.
"""

from __future__ import annotations

import math
from fractions import Fraction as Q
from operator import add, itemgetter
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

from .lattice import DEFAULT_DEN, _json_int, _json_list, _json_q, _quoted, q_str
from .linalg import _scaled, is_positive_direction

if TYPE_CHECKING:  # an annotation only: the jacobian command never runs weyl
    from .weyl import WeylVector

DEFAULT_TERM_CAP = 200_000
# the largest rank a series document may give without prefactor B, which then defaults to zero
_DEFAULT_B_RANKS = 4096

Key = tuple[Q, tuple[Q, ...], Q]
Coeffs = Mapping[tuple[int, tuple[Q, ...]], int]


class SeriesOverflowError(RuntimeError):
    pass


class ZeroSeriesError(ValueError):
    """Raised where a leading order is requested of a series with no terms."""


class _NotModular(ValueError):
    """A nonempty form of ``jacobian`` or ``syzygy_sum`` with an exponent below 0: args (index, name, value)."""

    def __str__(self):
        return "form {} has {} = {} below 0: the Jacobian takes modular forms only, every exponent a, t >= 0".format(*self.args)


class Monomial(NamedTuple):
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


def _bound(r: Q, den: int) -> int | Q:
    """The rect bound r on the den grid: r*den, an int when it is whole, else the exact Fraction."""
    b = r * den
    return b.numerator if b.denominator == 1 else b


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
                 "_view")

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
        pa, pb, pc = _int(pa, den), _scaled(pb, z), _int(pc, den)
        ints = {(_int(a, den) + pa, tuple(map(add, _scaled(l, z), pb)), _int(t, den) + pc): _int(c, d)
                for (a, l, t), c in clean.items()}
        _fill(self, rank, den, z, d, ints, pa, pb, pc, _bound(a_max, den) + pa, _bound(t_max, den) + pc)

    # -- Fraction views -----------------------------------------------------

    @property
    def terms(self) -> Mapping[Key, Q]:
        if self._view is None:
            den, z, d, terms, pa, pb, pc = self.den, self._z, self._d, self._terms, self._pa, self._pb, self._pc
            qa = {a: Q(a - pa, den) for a in {k[0] for k in terms}}
            qt = {t: Q(t - pc, den) for t in {k[2] for k in terms}}
            ql = {l: tuple([Q(x - b, z) for x, b in zip(l, pb)]) for l in {k[1] for k in terms}}
            view = {(qa[a], ql[l], qt[t]): Q(c, d) for (a, l, t), c in terms.items()}
            self._view = MappingProxyType(view)
        return self._view

    @property
    def rect(self) -> tuple[Q, Q]:
        return Q(self._ra - self._pa, self.den), Q(self._rt - self._pc, self.den)

    @property
    def prefactor(self) -> Monomial:
        b = tuple(Q(x, self._z) for x in self._pb)
        return Monomial(Q(self._pa, self.den), b, Q(self._pc, self.den))

    # -- value semantics ----------------------------------------------------

    def absolute_terms(self) -> dict[Key, Q]:
        den, z, d = self.den, self._z, self._d
        return {(Q(a, den), tuple([Q(x, z) for x in l]), Q(t, den)): Q(c, d) for (a, l, t), c in self._terms.items()}

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries) or self.rank != other.rank:
            return False
        den, z = math.lcm(self.den, other.den), math.lcm(self._z, other._z)
        mine, theirs = _on(self, den, z)[0], _on(other, den, z)[0]  # the int terms on one grid
        return mine.keys() == theirs.keys() and all(c * other._d == theirs[k] * self._d for k, c in mine.items())

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
        return _sum(self, other, 1)

    def __neg__(self):
        return self._with({k: -c for k, c in self._terms.items()}, self._d)

    def __sub__(self, other):
        return _sum(self, other, -1)

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
        if axis == "tau" or axis == "omega":
            exponent, scale = itemgetter(0 if axis == "tau" else 2), self.den
        elif axis.startswith("z") and axis[1:].isdigit():
            i = int(axis[1:]) - 1
            if not 0 <= i < self.rank:
                raise ValueError(f"axis {axis!r} out of range for rank {self.rank}")
            exponent, scale = lambda key: key[1][i], self._z
        else:
            raise ValueError(f"invalid derivation axis {axis!r}")
        out = {key: c * m for key, c in self._terms.items() if (m := exponent(key))}
        return self._with(out, self._d * scale)

    def leading_order(self) -> tuple[Q, Q]:
        """Minimal q-exponent and minimal xi-exponent, prefactor included."""
        if not self._terms:
            raise ZeroSeriesError("vanishes to rectangle order")
        fa, ft = _floors(self._terms)
        return Q(fa, self.den), Q(ft, self.den)


def _fill(x: TruncatedSeries, rank, den, z, d, terms, pa, pb, pc, ra, rt) -> None:
    x.rank, x.den, x._z, x._d, x._terms = rank, den, z, d, terms
    x._pa, x._pb, x._pc, x._ra, x._rt = pa, pb, pc, ra, rt
    x._view = None


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


def _floors(terms) -> tuple[int, int] | None:
    """Lowest a and lowest t of int keys (a, l, t), None when there are none."""
    return (min(terms)[0], min(t for _, _, t in terms)) if terms else None


def _item_floors(items) -> tuple[int, int] | None:
    """Lowest a and lowest t of the terms ((a, t, packed l), c), None when there are none; one loop, as it runs per form."""
    fa, ft = items[0][0][:2] if items else (None, None)
    for (a, t, _), _ in items:
        fa, ft = a if a < fa else fa, t if t < ft else ft
    return (fa, ft) if items else None


def _on(x: TruncatedSeries, den: int, z: int) -> tuple:
    """(terms, A, B, C, a bound, t bound) of x on the grid of den and z, multiples of x's."""
    k, m = den // x.den, z // x._z
    if k == 1 and m == 1:
        return x._terms, x._pa, x._pb, x._pc, x._ra, x._rt
    terms = {(a * k, tuple([v * m for v in l]), t * k): c for (a, l, t), c in x._terms.items()}
    return terms, x._pa * k, tuple(v * m for v in x._pb), x._pc * k, x._ra * k, x._rt * k


def _sum_head(heads) -> tuple:
    """The rule of ``+`` on heads (A, B, C, a bound, t bound), absolute as stored: min A and C, first B, min bounds."""
    pa, pb, pc, ra, rt = zip(*heads)
    return min(pa), pb[0], min(pc), min(ra), min(rt)


def _sum(x: TruncatedSeries, y: TruncatedSeries, sign: int) -> TruncatedSeries:
    """x + sign * y, sign +-1, on the lcm of the dens, on ``_sum_head``; zero sums and terms past its rect go."""
    if x.rank != y.rank:
        raise ValueError("series rank mismatch")
    den, z, d = math.lcm(x.den, y.den), math.lcm(x._z, y._z), math.lcm(x._d, y._d)
    xterms, *xhead = _on(x, den, z)
    yterms, *yhead = _on(y, den, z)
    mx, my = d // x._d, sign * (d // y._d)
    merged = dict(xterms) if mx == 1 else {k: c * mx for k, c in xterms.items()}
    for key, c in yterms.items():
        merged[key] = merged.get(key, 0) + c * my
    head = _sum_head((xhead, yhead))
    a_hi, t_hi = math.floor(head[3]), math.floor(head[4])
    terms = {k: c for k, c in merged.items() if c and k[0] <= a_hi and k[2] <= t_hi}
    return _new(x.rank, den, z, d, terms, *head)


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


def _product_head(xfloors, xhead, yfloors, yhead) -> tuple:
    """The head (A, B, C, a bound, t bound) of x * y, from each operand's floors and head.

    The one place of the product-rect rule, used by ``_product`` and
    ``syzygy_sum``, on floors and heads that are absolute, as stored: the
    lowest a and t of the terms (None for an empty operand) and (A, B, C,
    (A + a_max)*den, (C + t_max)*den).

    The prefactor is the sum of the prefactors.  The rect is
    min(R1 + F2, R2 + F1), each operand's bound R plus the other's floor F (a
    term at a needs one factor up to a minus the other's lowest exponent);
    with an empty operand both floors are the prefactors, which gives the
    smaller relative rect.  The rule is sound, every kept
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
    (pa1, pb1, pc1, ra1, rt1), (pa2, pb2, pc2, ra2, rt2) = xhead, yhead
    # with an empty operand no floor shifts a rect: the smaller one, relative to its prefactor, holds
    (fa1, ft1), (fa2, ft2) = (xfloors, yfloors) if xfloors and yfloors else ((pa1, pc1), (pa2, pc2))
    pb = tuple(map(add, pb1, pb2)) if any(pb2) else pb1
    return pa1 + pa2, pb, pc1 + pc2, min(ra1 + fa2, ra2 + fa1), min(rt1 + ft2, rt2 + ft1)


def _overflow(what: str, ra, rt, den: int, cap: int) -> SeriesOverflowError:
    return SeriesOverflowError(f"{what} on rect ({Q(ra, den)}, {Q(rt, den)}) exceeded the cap of {cap} stored terms")


def _accumulate(products, head, den: int, what, box) -> list:
    """The nonzero terms, unsorted, of the sum of m * x * y over the products (m, x, y), on its head.

    The pair loop of the Laplace expansions, once per minor and once for the
    syzygy sum's first row, on the terms ((a, t, packed l), c) of
    ``_determinants`` (x nonempty and sorted by a): a pair's key is a sum of
    ints.  head is the sum's (A, B, C, a bound, t bound), its rect inside
    every product's, so cutting at its floors drops only terms the merge
    would drop too.  box is the a and t caps of the keys: those floors, or
    for a minor the lower of them and its cut's caps.  y runs outside, times
    m once per term and leaving x the limits a_lim and t_lim; x stops at its
    first term past a_lim.  More than DEFAULT_TERM_CAP keys, zero sums
    included, raise SeriesOverflowError naming what().
    """
    pa, _, pc, ra, rt = head
    (a_hi, t_hi), cap, out = box, DEFAULT_TERM_CAP, {}
    get = out.get
    for mult, left, right in products:
        lowest = left[0][0][0]
        for (a2, t2, k2), c2 in right:
            a_lim, t_lim = a_hi - a2, t_hi - t2
            if lowest > a_lim:
                continue
            c2 *= mult
            for (a1, t1, k1), c1 in left:
                if a1 > a_lim:
                    break
                if t1 > t_lim:
                    continue
                key = (a1 + a2, t1 + t2, k1 + k2)
                out[key] = get(key, 0) + c1 * c2
            if len(out) > cap:
                raise _overflow(what(), ra - pa, rt - pc, den, cap)
    return list(filter(itemgetter(1), out.items()))


def _product(x: TruncatedSeries, y: TruncatedSeries) -> TruncatedSeries:
    """x * y by one loop over y's terms and x's rows, on packed zeta keys.

    Both go onto one den and zeta grid.  x becomes rows {(a, t): {packed l:
    c}} and y a list of packed terms sorted by a; 2^(w-1) lies above the sum
    of their largest zeta entries, so no digit of a sum overflows and a pair's
    key is k1 + k2.  The box of the rect ``_product_head`` gives is tested
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
    pa, pb, pc, ra, rt = _product_head(xfloors, xhead, _floors(yterms), yhead)
    a_hi, t_hi, cap, reached = math.floor(ra), math.floor(rt), DEFAULT_TERM_CAP, 0
    out: dict = {}
    for a2, t2, k2, c2 in right if xfloors else ():
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
            raise _overflow(f"product of {len(x._terms)} and {len(y._terms)} terms", ra - pa, rt - pc, den, cap)
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


class ProductFactor(NamedTuple):
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
    only raises the q-exponent, so truncation at a_max is sound.  They are
    built once, as ``_factors``' int list, which ``expand_product`` and
    ``log_derivative_residual`` read; this reads each l back as Fractions.
    """
    z, factors = _factors(coeffs, rect, rank)
    return [ProductFactor(n, tuple([Q(x, z) for x in l]), m, f) for n, l, m, f in factors]


def _factors(coeffs, rect, rank, b=()):
    """(z, ``product_factors`` as (n, z*l, m, f)), z the lcm of the zeta denominators of b and the support.

    z > 0 keeps the lex order and sign of l: the sort and the boundary test (l < 0) run on int tuples.
    """
    a_max, t_max = _q(rect[0]), _q(rect[1])
    z = math.lcm(*{_q(x).denominator for x in b}, *{x.denominator for (_, l), f in coeffs.items() if f for x in l})
    support: dict = {}
    for (n0, l), f in coeffs.items():
        if len(l) != rank:
            raise ValueError(f"coefficient entry f({n0}, {list(map(str, l))}) has length {len(l)}, not rank {rank}")
        if f:
            support.setdefault(n0, []).append((_scaled(l, z), f))
    max_neg = max((-n0 for n0 in support if n0 < 0), default=0)
    n_hi, t_hi = math.floor(a_max + t_max * max_neg), math.floor(t_max)
    # the m of the factors (n0 / m, l, m) of an entry at n0 != 0; one at n0 = 0 gives
    # (0, l, 0) for l < 0, (n, l, 0) for 0 < n <= n_hi and (0, l, m) for 0 < m <= t_hi
    ms = {n0: [m for m in range(1, min(t_hi, abs(n0)) + 1) if n0 % m == 0 and n0 // m <= n_hi]
          for n0 in support if n0}
    boundary = {l for l, _ in support.get(0, ()) if is_positive_direction([-x for x in l])}
    count = len(boundary) + len(support.get(0, ())) * (max(n_hi, 0) + max(t_hi, 0))
    count += sum(len(support[n0]) * len(m) for n0, m in ms.items())
    if count > DEFAULT_TERM_CAP:  # a count past 10^20 by its digits, as str() refuses more than 4300
        size = count if count < 10**20 else f"a {_digits(count)}-digit number of"
        raise SeriesOverflowError(f"the expansion has {size} factors, more than the term cap of {DEFAULT_TERM_CAP}")
    keyed = []  # (n >= 0, m, n, l, f): unique on the first four
    for n0, entries in support.items():
        for l, f in entries:
            if n0:
                keyed += [(n0 > 0, m, n0 // m, l, f) for m in ms[n0]]
                continue
            if l in boundary:
                keyed.append((True, 0, 0, l, f))  # m = n = 0, l < 0
            keyed += [(True, 0, n, l, f) for n in range(1, n_hi + 1)]
            keyed += [(True, m, 0, l, f) for m in range(1, t_hi + 1)]
    keyed.sort()
    return z, [(n, l, m, f) for _, m, n, l, f in keyed]


def expand_product(coeffs: Coeffs, weyl: WeylVector | Monomial, rect: tuple[Q, Q], rank: int,
                   den: int = DEFAULT_DEN) -> TruncatedSeries:
    """Expand q^A zeta^B xi^C prod (1 - q^n zeta^l xi^m)^{f(nm, l)} exactly.

    Binomial expansion of every factor to the order the rectangle needs.
    Factors with m = n = 0 must have positive exponents (otherwise the
    expansion is meromorphic along the toric boundary and is rejected), and
    the product of their (exponent + 1), a bound on their block's zeta
    monomials, is capped at DEFAULT_TERM_CAP, as are the terms stored after
    every factor: overflow raises SeriesOverflowError.  The terms come out of
    ``_multiply_out`` on the final grid: den, and z the lcm of B's and the
    support's zeta denominators.
    """
    return _expand(*_factors(coeffs, rect, rank, weyl.b), weyl, rect, rank, den)


def _expand(z, factors, weyl, rect, rank, den):
    """``expand_product`` of the factors ``_factors`` gives for weyl.b, on its z."""
    a_max, t_max = _q(rect[0]), _q(rect[1])
    bound = 1
    for k, (_, _, _, f) in enumerate((fac for fac in factors if fac[0] == fac[2] == 0), 1):
        if f < 0:
            raise ValueError("negative exponent on a boundary factor: expansion is meromorphic along the toric boundary")
        bound *= f + 1
        if bound > DEFAULT_TERM_CAP:
            size = bound if bound < 10**20 else f"a number of {_digits(bound)} digits"
            raise SeriesOverflowError("the bound prod (exponent + 1) on the zeta monomials of the m = n = 0 factor block is "
                                      f"{size} over its first {k} factors, which exceeds the term cap of {DEFAULT_TERM_CAP}")
    pa, pb, pc = _checked_prefactor(Monomial(weyl.a, weyl.b, weyl.c), rank, den)
    pa, pb, pc = _int(pa, den), _scaled(pb, z), _int(pc, den)
    terms = _multiply_out(factors, rank, a_max, t_max, den, z, (pa, pb, pc))
    return _new(rank, den, z, 1, terms, pa, pb, pc, _bound(a_max, den) + pa, _bound(t_max, den) + pc)


def _digits(n: int) -> int:
    """The number of decimal digits of n >= 1, without str(n), which refuses more than 4300."""
    d = (n.bit_length() - 1) * 30102 // 100000  # at most log10(n), as 0.30102 < log10(2)
    while n >= 10 ** (d + 1):
        d += 1
    return d + 1


def _multiply_out(factors, rank, a_max, t_max, den, z, prefactor):
    """The int terms of the prefactor (A*den, B*z, C*den) times the factors' binomials.

    The factors (n, l, m, f), in ``_factors``' order with l over z, are
    multiplied one at a time into rows {_pack(l, w): c}, one per integer
    (a, t).  Products leaving the box a <= max(a_max, 0), t <= t_max are
    dropped, and more than DEFAULT_TERM_CAP terms after any factor raise
    SeriesOverflowError naming it.  No lower q bound is needed: n >= -max_neg,
    and m >= 1 where n < 0, so every product has a >= -max_neg * t.

    The rows change in place.  Term j >= 1 of a factor adds row (a, t) into
    row (a + j*n, t + j*m), raising v = a + (max_neg + 1) t by j (n + (max_neg
    + 1) m) > 0 unless m = n = 0.  So each factor reads the rows in falling v,
    each before any lower row adds into it: its j = 0 term is the row itself,
    its j loop stops at the first step out of the box, and a boundary factor
    (m = n = 0) reads a snapshot of the row it adds into.  The order holds
    the rows that exist; those a factor creates lie above the rows it read
    and join them after it, in one sort (an order of the box's cells would
    walk all of (0, 10^400)).  The term 1 starts as zeta^B, packed, and with
    2^(w-1) above B's largest zeta entry plus the sum over factors of theirs,
    no digit overflows and a pair's key is k1 + k2.  At the end the rows with
    a > a_max go (a_max < 0 cuts only there, after the n < 0 factors), the
    rebuild that scales the rows adds A and C, and each key is unpacked once.
    """
    a_hi, t_hi = max(math.floor(a_max), 0), math.floor(t_max)
    max_neg = max((-n for n, _, _, _ in factors if n < 0), default=0)
    n_hi, rise = math.floor(a_max + t_max * max_neg), max_neg + 1
    binomials = [_binomial(n, m, f, t_hi, n_hi) for n, _, m, f in factors]
    pa, pb, pc = prefactor
    w = sum(len(b) * max(map(abs, fac[1]), default=0) for fac, b in zip(factors, binomials))
    w = (w + max(map(abs, pb), default=0)).bit_length() + 1
    acc = {(0, 0): {_pack(pb, w): 1}} if t_hi >= 0 or not factors else {}  # a box below t = 0 keeps 1 only with no factor
    order = list(acc)
    for i, ((n, l, m, f), binomial) in enumerate(zip(factors, binomials), 1):
        key, fresh = _pack(l, w), []
        for a1, t1 in order:
            row1 = acc[a1, t1]
            items = list(row1.items()) if m == n == 0 else row1.items()
            for j, c2 in binomial:
                a, t = a1 + j * n, t1 + j * m
                if a > a_hi or t > t_hi:
                    break
                k2, row = j * key, acc.get((a, t))
                if row is None:
                    acc[a, t] = {k1 + k2: c1 * c2 for k1, c1 in items}
                    fresh.append((a, t))
                    continue
                get = row.get
                for k1, c1 in items:
                    k = k1 + k2
                    if c := get(k, 0) + c1 * c2:
                        row[k] = c
                    else:
                        del row[k]
        if fresh:
            order = sorted(order + fresh, key=lambda at: at[0] + rise * at[1], reverse=True)
        if sum(map(len, acc.values())) > DEFAULT_TERM_CAP:
            fac = ProductFactor(n, tuple([Q(x, z) for x in l]), m, f)
            raise SeriesOverflowError(f"expansion exceeded {DEFAULT_TERM_CAP} stored terms at factor {i} of {len(factors)}: {fac}")
    acc = {(a * den + pa, t * den + pc): row for (a, t), row in acc.items() if a <= a_max}
    unpacked = {k: _unpack(k, rank, w) for k in set().union(*acc.values())}
    return {(a, unpacked[k], t): c for (a, t), row in acc.items() for k, c in row.items()}


def _binomial(n, m, f, t_hi, n_hi):
    """Pairs (j, c_j) of (1 - u)^f = sum c_j u^j, j >= 1 up to the budget, u = q^n zeta^l xi^m.

    The budget is j*m <= t_hi = floor(t_max), or for m = 0 j*n <= n_hi =
    floor(a_max + t_max * max_neg), as floor(r / k) = floor(r) // k for ints
    k >= 1, or for m = n = 0 j <= f.  c_j = -c_(j-1) (f - j + 1) / j is
    (-1)^j C(f, j), so j divides exactly for any integer f; the pairs stop at
    the first zero, c_(f+1) for f >= 0, so their j are 1, 2, .., len(pairs).
    """
    j_max = t_hi // m if m > 0 else n_hi // n if n > 0 else f
    pairs, c = [], 1
    for j in range(1, j_max + 1):
        c = -c * (f - j + 1) // j
        if not c:
            break
        pairs.append((j, c))
    return pairs


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
    z, factors = _factors({key: f for key, f in coeffs.items() if key[0] >= 0}, rect, rank, weyl.b)
    g0 = _expand(z, factors, weyl, rect, rank, DEFAULT_DEN)
    den, t_hi, terms = DEFAULT_DEN, math.floor(t_max), {}
    for n, l, m, f in (fac for fac in factors if fac[2] > 0):
        for j in range(1, t_hi // m + 1):
            key = (j * n * den, tuple([j * x for x in l]), j * m * den)
            terms[key] = terms.get(key, 0) - m * f
    ra, rt = _bound(a_max, den), _bound(t_max, den)
    a_hi = math.floor(ra)
    terms = {k: c for k, c in terms.items() if c and k[0] <= a_hi}
    s = _new(rank, den, z, 1, terms, 0, (0,) * rank, 0, ra, rt)
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
    product = g0 * expand_product(neg, Monomial.zero(rank), wide, rank)
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
    A nonempty form with an exponent below 0, prefactor included, raises ValueError.
    """
    s, den, z, w, d, _, det = _determinants(forms, 3, "")
    items, head = det(tuple(range(s + 3)))
    return _new(s, den, z, d, _unpacked(items, s, w), *head)


def syzygy_sum(forms: Sequence[WeightedSeries]) -> TruncatedSeries:
    """Alternating sum (-1)^t k_t f_t J_t over one extra form; identically zero.

    J_t is the Jacobian of all forms except the t-th (1-indexed), so for
    rank s this takes s + 4 forms.  The sum is the first-row Laplace expansion
    of the (s+4)x(s+4) determinant whose first two rows are both k_i f_i, and
    J_t is its minor on rows 2.. over the columns other than t.  All J_t are
    expanded on the grid of all s + 4 forms and share its minors wherever
    their rects agree (J_t's is the min of the other forms' rects).  The last
    step sums the products +-k_t f_t J_t, each over d_1 .. d_(s+4) den^2 z^s:
    its head is ``_sum_head`` of the s + 4 ``_product_head``s, and one
    ``_accumulate`` call at that head's floored rect adds the products with
    k_t != 0 and f_t nonempty.  The forms must be those ``jacobian`` takes.
    """
    s, den, z, w, d, grid, det = _determinants(forms, 4, "syzygy ")
    minors = [det(tuple(j for j in range(s + 4) if j != t)) for t in range(s + 4)]
    head = _sum_head([_product_head(floors, fhead, _item_floors(items), jhead)
                      for (_, floors, fhead), (items, jhead) in zip(grid, minors)])
    products = [(f.weight if t % 2 else -f.weight, x, y)
                for t, (f, (x, _, _), (y, _)) in enumerate(zip(forms, grid, minors)) if f.weight and x]
    items = _accumulate(products, head, den, lambda: f"sum of {len(forms)} products", (math.floor(head[3]), math.floor(head[4])))
    return _new(s, den, z, d, _unpacked(items, s, w), *head)


def _unpacked(items, rank: int, w: int) -> dict:
    """The terms items as int keys (a, l, t), sorted by key, each packed l unpacked once."""
    ls = {k: _unpack(k, rank, w) for k in {k for (_, _, k), _ in items}}
    return dict(sorted([((a, ls[k], t), c) for (a, t, k), c in items]))


def _determinants(forms: Sequence[WeightedSeries], extra: int, what: str):
    """(s, den, z, w, d, grid, det): the forms' rank, grid and Jacobians on that grid.

    The grid is the lcm den of the forms' dens and the lcm z of their zeta
    denominators; each stored term goes on it once, its absolute key (a, l,
    t) as (a, t, _pack(l, w)), 2^(w-1) above the sum over the forms of their
    largest zeta entry, as a minor's term takes one term per column.
    grid[j] is form j as (items, floors, head): its terms ((a, t, packed l),
    c) sorted by key, numerators over d_j; their lowest a and t (None when
    there are none); its (A, B, C, a bound, t bound).  Entry (r, j) is its
    terms times k_j in row 0 and times their exponent along tau, z_1..z_s,
    omega below, over d_j times the row's scale 1, den, z, .., z, den.  So a
    minor is over the product of its d_j and its rows' scales, and its
    Laplace pairs all enter with m = +-1; d is that of all s + extra
    columns, d_1 .. d_(s+extra) den^2 z^s.  det(cols) is (the terms of the
    minor on all rows and the columns cols, unreduced and unsorted, its head).
    Each minor starts from det's zero head, prefactor 0 and the forms' least
    relative rect: short of the rule's by the prefactors' sum (a strict xfail).
    The minors from one head are memoized across det's calls, keyed by an int
    column mask (bit 1 << j for column j), the unit at 0; ``syzygy_sum``'s J_t
    share them that way.  det takes the head's floors, the cut's gap and top
    box and the mask of cols once per call.

    The cut.  Let f_j be form j's floors (its lowest stored a and t, which
    include its prefactor; an empty form's A and C) and R the head's rect.
    A nonempty form must have A, C >= 0 and f_j >= 0, else ValueError names
    it; an empty one is a zero column.  A term of the minor on rows i >= 1
    and columns S reaches det times one entry of the rows above from each
    column outside S, which adds at least sum_{j not in S} f_j.  So the
    minor is built only on the box cap(S) = floor(R) - (sum_{j not in S} f_j
    - spare * max_j f_j) per axis.  spare is the number of forms each det
    omits: 0 in ``jacobian``; 1 in ``syzygy_sum``, whose J_t leaves out f_t
    yet must be exact on its own head, as the last step's rect reads J_t's
    floors.  On row 0 the cap is at least floor(R), so det itself is never
    cut.  A minor's terms start at sum_{j in S} f_j, and cap(S) less that is
    the same for every S: below 0 on either axis, det returns no terms on
    its head without building a minor.  No rect moves: every product of the
    expansion has prefactor >= 0 and an absolute rect of at least R (an
    entry's is at least its form's relative rect, and a minor's floors are
    >= 0), so each minor's rect is R and its prefactor 0 whatever terms it
    keeps: no minor needs a head of its own.
    """
    if not forms:
        raise ValueError("no forms given")
    s = forms[0].series.rank
    if len(forms) != s + extra:
        raise ValueError(f"rank {s} {what}needs exactly {s + extra} forms, got {len(forms)}")
    if any(f.series.rank != s for f in forms):
        raise ValueError("series rank mismatch")
    den, z = math.lcm(*{f.series.den for f in forms}), math.lcm(*{f.series._z for f in forms})
    grids = [_on(f.series, den, z) for f in forms]
    w = sum(max((abs(v) for _, l, _ in terms for v in l), default=0) for terms, *_ in grids).bit_length() + 1
    packed = {l: _pack(l, w) for l in {l for terms, *_ in grids for _, l, _ in terms}}
    grid, rows = [], [[] for _ in range(s + 3)]
    for f, (terms, *head) in zip(forms, grids):
        # each term's key and factor per row: k_j, then its exponents
        keyed = sorted([((a, t, packed[l]), c, (f.weight, a, *l, t)) for (a, l, t), c in terms.items()])
        grid.append(((items := [(k, c) for k, c, _ in keyed]), _item_floors(items), head))
        for r, row in enumerate(rows):
            row.append([(k, c * e[r]) for k, c, e in keyed if e[r]])
    floors = [fs or (head[0], head[2]) for _, fs, head in grid]  # f_j of the cut
    for i, ((items, _, (pa, _, pc, _, _)), (fa, ft)) in enumerate(zip(grid, floors)):
        for name, x in (("prefactor A", pa), ("prefactor C", pc), ("a term at absolute a", fa), ("a term at absolute t", ft)):
            if items and x < 0:  # an empty form is a zero column whatever its prefactor
                raise _NotModular(i, name, Q(x, den))
    scale, zeros, memo = den * den * z**s, (0,) * s, {}
    reach = [sum(fs) - (extra - 3) * max(fs) for fs in zip(*floors)]  # sum_j f_j - spare * max_j f_j per axis
    # per form: its rect relative to its prefactor, read by every det
    ras, rts = [h[3] - h[0] for _, _, h in grid], [h[4] - h[2] for _, _, h in grid]

    def det(cols: tuple[int, ...]) -> tuple:
        # the zero summand every minor starts from: prefactor 0 and the forms' smallest relative rect
        head = (0, zeros, 0, min([ras[j] for j in cols]), min([rts[j] for j in cols]))
        top = math.floor(head[3]), math.floor(head[4])  # R's floors, once per det: off the den grid a Python call
        gap_a, gap_t = top[0] - reach[0], top[1] - reach[1]
        if gap_a < 0 or gap_t < 0:
            return [], head
        minors = memo.setdefault(head, {0: [((0, 0, 0), 1)]})  # term 1: under a box below 0 no pair keeps it
        box = gap_a + sum([floors[j][0] for j in cols]), gap_t + sum([floors[j][1] for j in cols])
        mask = sum([1 << j for j in cols])
        return _minor(rows, minors, den, mask, head, box, top, floors), head

    return s, den, z, w, math.prod([f.series._d for f in forms]) * scale, grid, det


def _minor(rows, memo: dict, den: int, mask: int, head: tuple, box, top, floors):
    """The minor on the last popcount(mask) rows and the columns j whose bit 1 << j is set in mask.

    One Laplace step along its first row over the pairs (+-1, entry, minor
    below), the columns lowest first, the sign flipping per column; then one
    ``_accumulate`` call at the lower of box and top: box is cap(cols) of
    ``_determinants``' cut, less f_j for the minor below column j, and top is
    R's floors, taken once per det.  A minor is its terms alone, its
    prefactor 0 and its rect R.  memo maps an int column mask to the minors
    from head, the unit at 0; as this is no closure, it is freed with its
    last caller, not by the cycle collector.
    """
    n = mask.bit_count()
    pairs, row, sign, left = [], rows[len(rows) - n], 1, mask
    while left:
        bit = left & -left
        left ^= bit
        j = bit.bit_length() - 1
        if entry := row[j]:
            rest = mask ^ bit
            if (below := memo.get(rest)) is None:  # a minor with no terms is an empty list
                fa, ft = floors[j]
                memo[rest] = below = _minor(rows, memo, den, rest, head, (box[0] - fa, box[1] - ft), top, floors)
            pairs.append((sign, entry, below))
        sign = -sign
    what = lambda: f"{n}x{n} minor at row {len(rows) - n}, columns {[j for j in range(mask.bit_length()) if mask >> j & 1]},"
    a_hi, t_hi = top  # conditional expressions, not min(): this runs once per minor
    box = box[0] if box[0] < a_hi else a_hi, box[1] if box[1] < t_hi else t_hi
    return _accumulate(pairs, head, den, what, box)


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------


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


def series_from_json(doc: dict) -> TruncatedSeries:
    """Inverse of series_to_json; a malformed document raises ValueError."""
    if not isinstance(doc, dict):
        raise ValueError(f"a series must be a JSON object, got {_quoted(doc)}")
    if missing := [field for field in ("rank", "rect") if field not in doc]:
        raise ValueError(f"series document must contain a {missing[0]!r} field")
    rank = _json_int(doc["rank"], "rank", 0)
    den = _json_int(doc.get("den", DEFAULT_DEN), "den", 1)
    pref = doc.get("prefactor", {})
    if not isinstance(pref, dict):
        raise ValueError(f"prefactor must be an object, got {_quoted(pref)}")
    if "B" not in pref and rank > _DEFAULT_B_RANKS:  # refused before the default B is built
        raise ValueError(f"rank must be at most {_DEFAULT_B_RANKS} when prefactor B is omitted, got {rank}")
    b = pref["B"] if "B" in pref else ["0/1"] * rank
    prefactor = Monomial(
        _json_q(pref.get("A", "0/1"), "prefactor A"),
        tuple(_json_q(v, "prefactor B entry") for v in _json_list(b, "prefactor B", rank)),
        _json_q(pref.get("C", "0/1"), "prefactor C"),
    )
    for name, x in (("A", prefactor.a), ("C", prefactor.c)):
        if den % x.denominator:
            raise ValueError(f"prefactor {name} must be in (1/den)Z = (1/{den})Z, got {q_str(x)!r}")
    terms = {}
    for i, item in enumerate(_json_list(doc.get("terms", []), "terms")):
        if not isinstance(item, dict) or not {"a", "l", "t", "c"} <= item.keys():
            raise ValueError(f"terms[{i}] must be an object with a, l, t and c, got {_quoted(item)}")
        l = _json_list(item["l"], f"terms[{i}].l", rank)
        key = (
            _json_q(item["a"], f"terms[{i}].a"),
            tuple(_json_q(v, f"terms[{i}].l entry") for v in l),
            _json_q(item["t"], f"terms[{i}].t"),
        )
        terms[key] = _json_q(item["c"], f"terms[{i}].c")
    rect = tuple(_json_q(v, "rect entry") for v in _json_list(doc["rect"], "rect", 2))
    return TruncatedSeries(rank, terms, rect, prefactor, den)
