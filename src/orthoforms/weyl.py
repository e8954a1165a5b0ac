"""The q^0 layer of Borcherds products.

A QZeroData object stores the principal part and q^0 Fourier coefficients
f(n, l) of a weight-0, index-1 input form over a positive definite lattice.
From it we compute the Weyl vector (A, B, C), solve for the weight via the
linear relation A = C + 1, evaluate divisor multiplicities, and extract the
character datum of the (tau, omega)-swap involution.

Dual coordinates are kept as integer tuples x = D l over one D per table,
the lcm of the input denominators, and the scaling is exact.  In
qzero_from_dual_sets D is doubled, so every half l/2 is integral too, and
members, halves, doubles and negatives are integer operations.  l pairs
integrally with the lattice (``in_dual``) exactly when G x = 0 mod D, and
G l = G x / D is then the integer image the sum rule reads; D > 0 keeps
the order and the signs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from math import lcm
from operator import mul, neg
from typing import Iterable, Mapping, NamedTuple, Sequence

from . import linalg
from .lattice import AmbientVector, Lattice
from .roots import DualRoot, _gram_ratio, _rank_one_sum


class CoefficientConflictError(ValueError):
    pass


class SymbolicWeightError(ValueError):
    pass


Coords = tuple[Q, ...]
Ints = tuple[int, ...]


def _normalize_coords(coords) -> Coords:
    return tuple(x if type(x) is Q else Q(x) for x in coords)


def _coords(x: Ints, den: int) -> Coords:
    return tuple(Q(v, den) for v in x)


def is_positive_direction(coords: Sequence) -> bool:
    """Lexicographic ordering on dual vectors: first nonzero coordinate > 0."""
    for x in coords:
        if x != 0:
            return x > 0
    return False


class QZeroData:
    """Principal part plus q^0 coefficients of a product input.

    Exactly one negative-index entry is admitted, f(-1, 0) = 1; other
    principal parts are rejected because the weight relation solved here is
    specific to that shape.  ``k`` is half of f(0, 0) and may be None while
    still symbolic.  The table is kept on integers, l as den * l (see the
    module docstring); every method shows Fraction coordinates.
    """

    __slots__ = ("lattice", "k", "_den", "_map")

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
        """Validate ((n, den * l), f(n, l)) pairs on integers and keep them."""
        rank, gram = lattice.rank, lattice.gram
        table: dict[tuple[int, Ints], int] = {}
        for (n, x), value in entries:
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
            if n == 0 and not any(x):
                raise ValueError("f(0, 0) is carried by k, not by the table")
            if any(sum(map(mul, row, x)) % den for row in gram):
                raise ValueError(f"vector {_coords(x, den)} does not pair integrally")
            if table.setdefault((n, x), value) != value:
                raise CoefficientConflictError(f"conflicting values at {(n, _coords(x, den))}")
        if (-1, (0,) * rank) not in table:
            raise ValueError("missing principal part f(-1, 0) = 1")
        for (n, x), value in table.items():
            if table.get((n, tuple(map(neg, x)))) != value:
                raise ValueError(
                    f"coefficients are not even in l: f{(n, _coords(x, den))} has no partner"
                )
        self.lattice, self.k, self._den, self._map = lattice, k, den, table
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
        out._den, out._map = self._den, dict(self._map)
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
    rational = [(_normalize_coords(dr.coords), dr.half_in_dual) for ds in dual_sets for dr in ds]
    den = 2 * lcm(*(x.denominator for c, _ in rational for x in c))
    flags: dict[Ints, bool] = {}
    for coords, flag in rational:
        if flags.setdefault(linalg._scaled(coords, den), flag) != flag:
            raise CoefficientConflictError(f"inconsistent duality flags for {coords}")
    contributions: dict[Ints, int] = {}
    for x, flag in flags.items():
        if flag:
            contributions[x] = contributions.get(x, 0) + 1
            half = tuple([v // 2 for v in x])
            if half not in flags:
                contributions[half] = contributions.get(half, 0) - 1
        elif tuple([2 * v for v in x]) not in flags:
            contributions[x] = contributions.get(x, 0) + 1
    entries = [((0, x), v) for x, v in contributions.items() if v]
    entries.append(((-1, (0,) * lattice.rank), 1))
    return QZeroData.__new__(QZeroData)._store(lattice, None if k is None else Q(k), den, entries)


@dataclass(frozen=True)
class WeylVector:
    a: Q
    b: tuple[Q, ...]
    c: Q


def weyl_vector(phi: QZeroData) -> WeylVector:
    """Exact (A, B, C) of the product with input phi."""
    if phi.k is None:
        raise SymbolicWeightError("Weyl vector needs a numeric f(0,0); solve k first")
    lat, den = phi.lattice, phi._den
    entries = phi._q0_items()
    a = Q(sum(v for _, v in entries) + 2 * phi.k, 24)
    b = [0] * lat.rank
    c = 0
    for x, value in entries:
        if is_positive_direction(x):
            for i, v in enumerate(x):
                b[i] += value * v
        c += value * lat.norm(x)
    # x = l * den, so b sums value/2 * l and c sums value * (l, l)
    return WeylVector(a, tuple(Q(v, 2 * den) for v in b), Q(c, 2 * lat.rank * den * den))


@dataclass(frozen=True)
class SumRuleReport:
    """Result of testing sum f(0,l) (l,z)^2 = 2C (z,z) over the whole lattice."""

    c: Q | None
    reason: str | None = None

    @property
    def ok(self) -> bool:
        return self.c is not None


def quadratic_weyl_constant(phi: QZeroData) -> SumRuleReport:
    """Evaluate the quadratic sum rule for the q^0 coefficients.

    Returns the constant C when the weighted rank-one sum is an exact
    multiple of the Gram matrix, and a diagnostic report otherwise (for
    instance when the support does not span the lattice).
    """
    entries = phi._q0_items()
    if not entries:
        return SumRuleReport(None, "no nonzero q^0 coefficients")
    # G l = G x / den is integral on dual vectors, and x, -x add the same term
    gram, den = phi.lattice.gram, phi._den
    images = [(tuple([sum(map(mul, row, x)) // den for row in gram]), 2 * v)
              for x, v in entries if is_positive_direction(x)]
    s, s_den = _rank_one_sum(len(gram), images)
    c, failure = _gram_ratio(s, gram)
    if failure == "zero":
        return SumRuleReport(None, "left side is not a Gram multiple")
    if failure == "ratio":
        rk = linalg.rank(linalg.freeze(s))
        return SumRuleReport(
            None,
            f"left side has rank {rk} and is not proportional to the Gram matrix",
        )
    # a Lattice is nondegenerate, so its Gram matrix has a nonzero entry and c is set
    return SumRuleReport(c / (2 * s_den))


def solve_weight(phi: QZeroData) -> Q:
    """Solve (sum f(0,l) + 2k)/24 - 1 = C for k, with C from the sum rule."""
    report = quadratic_weyl_constant(phi)
    if not report.ok:
        raise ValueError(f"sum rule failed: {report.reason}")
    total = sum(v for _, v in phi._q0_items())
    return (24 * (report.c + 1) - total) / 2


class MultiplicityResult(NamedTuple):
    value: int
    complete: bool


def divisor_multiplicity(phi: QZeroData, v: AmbientVector) -> MultiplicityResult:
    """Multiplicity of the rational quadratic divisor of a primitive vector.

    Sums f(m^2 n, m l) over positive integers m.  Absent coefficients are
    read as zero; when the sum would need coefficients with positive first
    index (outside the stored layer), the result is flagged incomplete.
    """
    lat = phi.lattice
    if v.lattice.gram != lat.gram:
        raise ValueError("vector lives over a different lattice")
    ell = _normalize_coords(v.l)
    if not lat.in_dual(ell):
        raise ValueError("vector is not in the dual ambient lattice")
    u_parts = [v.e1, v.e2, v.f2, v.f1]
    if any(Q(x).denominator != 1 for x in u_parts):
        raise ValueError("hyperbolic coordinates must be integral")
    pair_ints = [int(x) for x in lat.gram_times(ell)]
    g = linalg.vec_gcd([int(x) for x in u_parts] + pair_ints)
    if g != 1:
        raise ValueError("vector is not primitive in the dual ambient lattice")
    norm = v.norm()
    if norm >= 0:
        raise ValueError("divisor multiplicity needs negative norm")
    two_n = norm + lat.norm(ell)
    if two_n.denominator != 1 or int(two_n) % 2:
        raise ValueError("vector has no integral hyperbolic index")
    n = int(two_n) // 2
    if n > 0:
        return MultiplicityResult(0, False)
    total = 0
    if n < 0:
        # stored principal part is f(-1, 0) alone
        m = 1
        while m * m * (-n) <= 1:
            total += phi.f(m * m * n, tuple(m * x for x in ell))
            m += 1
        return MultiplicityResult(total, True)
    # n == 0: finitely many multiples of l can hit the stored support
    max_norm = Q(max([0] + [lat.norm(x) for x, _ in phi._q0_items()]), phi._den ** 2)
    ell_norm = lat.norm(ell)
    m = 1
    while m * m * ell_norm <= max_norm:
        total += phi.f(0, tuple(m * x for x in ell))
        m += 1
    return MultiplicityResult(total, True)


def sigma0(n: int) -> int:
    """Number of positive divisors."""
    if n <= 0:
        raise ValueError("sigma0 is defined for positive integers")
    count = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            count += 1 if d * d == n else 2
        d += 1
    return count


def character_data_from_map(principal: Mapping[int, int]) -> tuple[int, int]:
    """(D, sign) from a map n -> f(n, 0) over n < 0: D = sum sigma0(-n) f(n,0)."""
    d = sum(sigma0(-n) * f for n, f in principal.items() if n < 0 and f)
    return d, (-1) ** d


def character_data(phi: QZeroData) -> tuple[int, int]:
    """Character datum of the (tau, omega) swap: D and the sign (-1)^D."""
    principal = {n: v for (n, x), v in phi._map.items() if n < 0 and not any(x)}
    return character_data_from_map(principal)


@dataclass(frozen=True)
class DivisorLabel:
    """Discriminant label (lambda, m) of a reflective divisor."""

    lam: tuple[Q, ...]
    m: Q

    def __post_init__(self):
        if self.m >= 0:
            raise ValueError("divisor label needs m < 0")


def divisor_label(v: AmbientVector) -> DivisorLabel:
    """Heegner label of a reflective vector: lambda = v/div mod 1, m = norm/2."""
    from .lattice import is_reflective

    flag, _ = is_reflective(v)
    if not flag:
        raise ValueError("vector is not reflective")
    dv = v.div()
    scaled = tuple(Q(x, dv) for x in v.coords())
    reduced = tuple(x - (x.numerator // x.denominator) for x in scaled)
    m = v.norm() / Q(2 * dv * dv)
    return DivisorLabel(reduced, m)
