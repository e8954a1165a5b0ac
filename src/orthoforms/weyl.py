"""The q^0 layer of Borcherds products.

A QZeroData object stores the principal part and q^0 Fourier coefficients
f(n, l) of a weight-0, index-1 input form over a positive definite lattice.
From it we compute the Weyl vector (A, B, C), solve for the weight via the
linear relation A = C + 1.  The character datum of the (tau, omega)-swap
involution is constant, D = 1 with sign -1, since the one principal part
admitted is f(-1, 0) = 1.

Dual coordinates are kept as integer tuples x = D l over one D per table,
the lcm of the input denominators, and the scaling is exact.
qzero_from_dual_sets reads the dual roots' integer tuples as they are,
rescaled to D = 2 lcm of their denominators, so every half l/2 is integral
too, and members, halves, doubles and negatives are integer operations.  l
pairs integrally with the lattice (lies in its dual) exactly when
G x = 0 mod D, and G l = G x / D is then the integer image the sum rule
reads; D > 0 keeps the order and the signs.  The table is even in l, and
G(-l) = -G l, so G l is computed once per ± pair, on the member whose first
nonzero coordinate is positive, by one product with the Gram's columns
packed into integers, and kept with the pair's value: the sum rule and the
Weyl vector read those and add each pair's term twice.
"""

from __future__ import annotations

from fractions import Fraction as Q
from math import lcm
from operator import mul, neg
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, NamedTuple, Sequence

from . import linalg
from .lattice import Lattice

if TYPE_CHECKING:  # an annotation only: the weyl command never runs roots
    from .roots import DualRoot


class CoefficientConflictError(ValueError):
    pass


class SymbolicWeightError(ValueError):
    pass


Coords = tuple[Q, ...]
Ints = tuple[int, ...]


def _normalize_coords(coords) -> Coords:
    return tuple(x if type(x) is Q else Q(x) for x in coords)


def _shown(x: Ints, den: int) -> str:
    """The stored den * l as the vector l for messages: (1/10, -1)."""
    return f"({', '.join(str(Q(v, den)) for v in x)})"


def _missing_coefficients(table: Mapping[tuple[int, tuple], int], rank: int) -> list[tuple[int, tuple]]:
    """The (n, l) a q^0 table lacks, in table order; a zero value reads as absent.

    First (-1, 0) unless f(-1, 0) = 1, then the partner (n, -l) of each
    nonzero f(n, l) whose value differs there: the table is even in l.
    """
    zero = (0,) * rank
    missing = [] if table.get((-1, zero)) == 1 else [(-1, zero)]
    for (n, x), value in table.items():
        partner = (n, tuple(map(neg, x)))
        if value and table.get(partner, 0) != value:
            missing.append(partner)
    return missing


def _image_reader(gram: Sequence[Sequence[int]], den: int) -> Callable[[Ints], Ints | None]:
    """x -> G x / den for integer vectors x, or None where den does not divide G x: one product per x.

    Column j of G packs in w-bit digits as sum_i G_ij 2^(w i), so x times
    the packed columns is s = sum_i (G x)_i 2^(w i).  w is one bit more
    than the bits of max_i sum_j |G_ij| and of a bound on the |x_j|, so
    every |(G x)_i| < h = 2^(w-1): s is spelled in balanced digits, and in
    only one way.  When den divides every (G x)_i, the quotients are the
    digits of s / den; adding h to every digit makes each one nonnegative
    and below 2^w, so none borrows from the next, and each is read off by
    a shift and a mask.  Conversely, if den divides s and the digits q_i
    read off s / den have |den q_i| < h, then den q spells s in balanced
    digits, so den q = G x.  So den divides G x exactly when it divides s
    and every |q_i| <= (h - 1) // den.  The packing is made again, wider,
    only for an x past the bound of the last one.
    """
    n, row_bits = len(gram), max(sum(map(abs, row)) for row in gram).bit_length()
    bound = -1  # the packing below is made at the first x
    columns: list[int] = []
    bias = mask = half = top = 0
    shifts = range(0)

    def image(x: Ints) -> Ints | None:
        nonlocal bound, columns, bias, mask, half, top, shifts
        if max(x) > bound or min(x) < -bound:
            bits = max(max(x), -min(x)).bit_length()
            w = row_bits + bits + 1
            bound, mask, half = (1 << bits) - 1, (1 << w) - 1, 1 << (w - 1)
            columns = [sum(v << (w * i) for i, v in enumerate(col)) for col in zip(*gram)]
            bias, top, shifts = half * sum(1 << (w * i) for i in range(n)), (half - 1) // den, range(0, w * n, w)
        s = sum(map(mul, x, columns))
        if s % den:
            return None
        u = s // den + bias
        q = tuple([((u >> t) & mask) - half for t in shifts])
        return q if max(q) <= top and min(q) >= -top else None

    return image


class QZeroData:
    """Principal part plus q^0 coefficients of a product input.

    Exactly one negative-index entry is admitted, f(-1, 0) = 1; other
    principal parts are rejected because the weight relation solved here is
    specific to that shape.  ``k`` is half of f(0, 0) and may be None while
    still symbolic.  The table is kept on integers, l as den * l (see the
    module docstring); every method shows Fraction coordinates.
    """

    __slots__ = ("lattice", "k", "_den", "_map", "_images")

    def __init__(
        self,
        lattice: Lattice,
        entries: Mapping[tuple[int, Sequence], int],
        k: Q | int | None = None,
    ):
        k = None if k is None else Q(k)
        rational = [(n, _normalize_coords(c), v) for (n, c), v in entries.items()]
        den = lcm(*(x.denominator for _, c, _ in rational for x in c))
        self._store(lattice, k, den, (((n, linalg._scaled(c, den)), v) for n, c, v in rational))

    def _store(self, lattice: Lattice, k: Q | None, den: int, entries) -> "QZeroData":
        """Validate ((n, den * l), f(n, l)) pairs on integers and keep them, with G l per ± pair.

        The work is per ± pair, keyed by the member whose first nonzero
        coordinate is positive (x > 0 as tuples).  The pair's first member
        to arrive takes G x, one product with the packed Gram
        (``_image_reader``), and checks it is divisible by den; its
        partner's image is the negative, so it passes the same check.  The
        second member to arrive is the partner, as a repeated entry adds
        nothing, and the pair is even when its value is the first's.  Only
        a table with a pair that is not even, or with no principal part, is
        read by ``_missing_coefficients`` for the first entry to name.
        """
        rank = lattice.rank
        image = _image_reader(lattice.gram, den)
        zero = (0,) * rank
        table: dict[tuple[int, Ints], int] = {}
        images: dict[Ints, tuple[Ints, int]] = {}  # positive member of a pair -> (G x / den, f(0, x))
        even = 0
        for key, value in entries:
            n, x = key
            if len(x) != rank:
                raise ValueError("coefficient vector has wrong length")
            if value == 0:
                continue
            if not isinstance(value, int):
                raise ValueError("coefficients must be integers")
            if n > 0:
                raise ValueError("q^0 data stores indices n <= 0 only")
            if n < 0 and (n != -1 or any(x) or value != 1):
                raise ValueError(
                    "principal part must be exactly f(-1, 0) = 1"
                )
            size = len(table)
            if table.setdefault(key, value) != value:
                raise CoefficientConflictError(f"conflicting values at ({n}, {_shown(x, den)})")
            if n < 0 or len(table) == size:
                continue
            if x == zero:
                raise ValueError("f(0, 0) is carried by k, not by the table")
            pos = x if x > zero else tuple(map(neg, x))
            pair = images.get(pos)
            if pair is None:
                gl = image(pos)
                if gl is None:
                    raise ValueError(f"vector {_shown(x, den)} does not pair integrally")
                images[pos] = (gl, value)
            elif pair[1] == value:
                even += 1
        if even != len(images) or (-1, zero) not in table:
            n, x = _missing_coefficients(table, rank)[0]
            if n < 0:
                raise ValueError("missing principal part f(-1, 0) = 1")
            raise ValueError(f"coefficients are not even in l: f({n}, {_shown(tuple(map(neg, x)), den)}) has no partner")
        self.lattice, self.k, self._den, self._map, self._images = lattice, k, den, table, images
        return self

    @property
    def zero_coords(self) -> Coords:
        return tuple(Q(0) for _ in range(self.lattice.rank))

    def f(self, n: int, coords) -> int:
        """Stored coefficient, with absent entries read as zero."""
        coords = _normalize_coords(coords)
        if n == 0 and coords == self.zero_coords:
            if self.k is None:
                raise SymbolicWeightError("f(0,0) = 2k is symbolic")
            two_k = 2 * self.k
            if two_k.denominator != 1:
                raise ValueError("f(0,0) must be an integer")
            return int(two_k)
        if any(self._den % x.denominator for x in coords):
            return 0  # off the table's grid, so not stored
        return self._map.get((n, linalg._scaled(coords, self._den)), 0)

    def q0_entries(self) -> list[tuple[Coords, int]]:
        """The (l, f(0, l)) pairs with l nonzero, sorted."""
        items = sorted(self._q0_items())
        coords = linalg._divided([x for x, _ in items], self._den)
        return [(c, v) for c, (_, v) in zip(coords, items)]

    def _q0_items(self) -> list[tuple[Ints, int]]:
        """The (den * l, f(0, l)) pairs unsorted, for sums that do not depend on the order."""
        return [(x, v) for (n, x), v in self._map.items() if n == 0]

    def _rational_map(self) -> dict[tuple[int, Coords], int]:
        """The stored table with Fraction coordinates, in storage order."""
        coords = linalg._divided([x for _, x in self._map], self._den)
        return {(n, c): v for ((n, _), v), c in zip(self._map.items(), coords)}

    def coefficient_table(self) -> dict[tuple[int, Coords], int]:
        """Copy of the stored table including f(0,0) when known."""
        table = self._rational_map()
        if self.k:  # known and nonzero
            table[(0, self.zero_coords)] = self.f(0, self.zero_coords)
        return table

    def with_weight(self, k: Q | int) -> "QZeroData":
        """A copy with f(0,0) = 2k; the table was validated when self was built."""
        out = QZeroData.__new__(QZeroData)
        out.lattice = self.lattice
        out.k = Q(k)
        out._den, out._map, out._images = self._den, dict(self._map), self._images
        return out

    def __eq__(self, other):
        return (
            isinstance(other, QZeroData)
            and self.lattice.gram == other.lattice.gram
            and self.k == other.k
            and self._rational_map() == other._rational_map()
        )

    def __repr__(self):
        return f"QZeroData({self.lattice!r}, {len(self._map)} entries, k={self.k})"


def qzero_from_dual_sets(
    lattice: Lattice,
    dual_sets: Iterable[Sequence[DualRoot]],
    k: Q | int | None = None,
) -> QZeroData:
    """Assemble q^0 coefficients from dual root sets.

    Membership gives f(0, x) = 1 except where x already appears as twice
    another member; a member x whose half pairs integrally but supports no
    mirror acquires the compensating f(0, x/2) = -1.  A half is never a
    member when it is assigned -1, so the two rules cannot conflict.
    """
    members = [dr for ds in dual_sets for dr in ds]
    den = 2 * lcm(*(dr.den for dr in members))
    # each member once, over den, with its flag and its half: over den / 2 the member's own x
    flags: dict[Ints, tuple[bool, Ints]] = {}
    for x, d, flag in members:
        m = den // d
        half = x if m == 2 else tuple([v * (m >> 1) for v in x])
        x = tuple([v * m for v in x])
        if flags.setdefault(x, (flag, half))[0] != flag:
            raise CoefficientConflictError(f"inconsistent duality flags for {_shown(x, den)}")
    # x is twice a member exactly when it is a member's half; as each x is a distinct
    # member and a half gets -1 only when it is not one, every value is +-1
    halves = {half for _, half in flags.values()}
    entries = []
    for x, (flag, half) in flags.items():
        if flag:
            entries.append(((0, x), 1))
            if half not in flags:
                entries.append(((0, half), -1))
        elif x not in halves:
            entries.append(((0, x), 1))
    entries.append(((-1, (0,) * lattice.rank), 1))
    return QZeroData.__new__(QZeroData)._store(lattice, None if k is None else Q(k), den, entries)


class WeylVector(NamedTuple):
    a: Q
    b: tuple[Q, ...]
    c: Q


def weyl_vector(phi: QZeroData) -> WeylVector:
    """Exact (A, B, C) of the product with input phi."""
    if phi.k is None:
        raise SymbolicWeightError("Weyl vector needs a numeric f(0,0); solve k first")
    rank, den = phi.lattice.rank, phi._den
    a = Q(sum(v for _, v in phi._q0_items()) + 2 * phi.k, 24)
    b = [0] * rank
    c = 0
    for x, (gl, value) in phi._images.items():
        for i, v in enumerate(x):
            b[i] += value * v
        c += value * sum(map(mul, x, gl))
    # x = den * l and gl = G l, so x·gl = den (l, l): b sums value/2 * l over the
    # positive members, and c, counted twice for the ± pairs, sums value * (l, l)
    return WeylVector(a, tuple(Q(v, 2 * den) for v in b), Q(2 * c, 2 * rank * den))


class SumRuleReport(NamedTuple):
    """Result of testing sum f(0,l) (l,z)^2 = 2C (z,z) over the whole lattice."""

    c: Q | None
    reason: str | None = None

    @property
    def ok(self) -> bool:
        return self.c is not None


def quadratic_weyl_constant(phi: QZeroData) -> SumRuleReport:
    """Evaluate the quadratic sum rule for the q^0 coefficients on the whole lattice.

    Returns the constant C when the weighted rank-one sum is an exact
    multiple of the Gram matrix, and a diagnostic report otherwise (for
    instance when the support does not span the lattice), both from
    ``linalg._sum_rule`` on the Gram matrix and the integer images G l.
    """
    if not phi._images:
        return SumRuleReport(None, "no nonzero q^0 coefficients")
    # the kept G l of each ± pair, whose two members add the same term
    images = [(gl, 2 * value) for gl, value in phi._images.values()]
    return SumRuleReport(*linalg._sum_rule(phi.lattice.gram, images))


def solve_weight(phi: QZeroData) -> Q:
    """Solve (sum f(0,l) + 2k)/24 - 1 = C for k, with C from the sum rule."""
    report = quadratic_weyl_constant(phi)
    if not report.ok:
        raise ValueError(f"sum rule failed: {report.reason}")
    total = sum(v for _, v in phi._q0_items())
    return (24 * (report.c + 1) - total) / 2


def character_data(phi: QZeroData) -> tuple[int, int]:
    """Character datum of the (tau, omega) swap: D and the sign (-1)^D, always (1, -1).

    D is the sum of sigma_0(-n) f(n, 0) over n < 0, sigma_0 the number of
    divisors.  ``QZeroData`` admits exactly one entry with n < 0, f(-1, 0)
    = 1, and refuses a table without it, so D = sigma_0(1) = 1 and the sign
    is -1 for every table it holds.
    """
    return 1, -1
