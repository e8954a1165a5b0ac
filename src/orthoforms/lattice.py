"""Even lattices with exact integer Gram matrices.

Vectors are plain coordinate tuples in the fixed basis of a lattice; dual
vectors carry Fraction coordinates in the same basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from functools import lru_cache
from math import lcm
from operator import mul
from typing import Sequence

from . import linalg


class DegenerateLatticeError(ValueError):
    pass


class NotPositiveDefiniteError(ValueError):
    pass


@dataclass(frozen=True)
class Lattice:
    """A nondegenerate integral lattice given by its Gram matrix."""

    gram: tuple[tuple[int, ...], ...]
    label: str | None = None

    def __post_init__(self):
        g = self.gram
        n = len(g)
        if n == 0 or any(len(row) != n for row in g):
            raise ValueError("gram matrix must be square and nonempty")
        for i in range(n):
            for j in range(n):
                if not isinstance(g[i][j], int) or isinstance(g[i][j], bool):
                    raise ValueError(f"gram entry ({i},{j}) is not an integer")
                if g[i][j] != g[j][i]:
                    raise ValueError(
                        f"gram matrix is not symmetric at entries ({i},{j}) and ({j},{i})"
                    )
        if _det_cached(g) == 0:
            raise DegenerateLatticeError("degenerate lattice")

    @property
    def rank(self) -> int:
        return len(self.gram)

    @property
    def determinant(self) -> int:
        return _det_cached(self.gram)

    @property
    def is_even(self) -> bool:
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    @property
    def is_positive_definite(self) -> bool:
        return linalg.is_positive_definite(self.gram)

    def pairing(self, u: Sequence, v: Sequence) -> Q:
        acc = 0
        for i, row in enumerate(self.gram):
            if u[i]:
                acc += u[i] * sum(map(mul, row, v))
        return acc

    def norm(self, v: Sequence) -> Q:
        return self.pairing(v, v)

    def gram_times(self, v: Sequence) -> tuple:
        return linalg.mat_vec(self.gram, v)

    def dual_basis(self) -> tuple[tuple[Q, ...], ...]:
        """Rows are the dual basis vectors, in lattice-basis coordinates."""
        return _dual_cached(self.gram)

    def __repr__(self):
        name = self.label or f"rank{self.rank}"
        return f"Lattice({name})"


@lru_cache(maxsize=None)
def _det_cached(gram) -> int:
    return linalg.det(gram)


@lru_cache(maxsize=None)
def _dual_cached(gram):
    return linalg.inverse(gram)


@dataclass(frozen=True)
class DiscriminantGroup:
    """Invariant factors of dual/lattice, with group order and level."""

    elementary_divisors: tuple[int, ...]
    order: int
    level: int

    def __str__(self):
        if not self.elementary_divisors:
            return "trivial"
        return " x ".join(f"Z/{d}" for d in self.elementary_divisors)


def discriminant_group(lat: Lattice) -> DiscriminantGroup:
    diag = linalg.smith_normal_form(lat.gram)
    divisors = tuple(d for d in diag if d > 1)
    order = 1
    for d in diag:
        order *= d
    if order != abs(lat.determinant):
        raise AssertionError("Smith form order disagrees with |det|")
    return DiscriminantGroup(divisors, order, _level(lat))


def discriminant_exponent(lat: Lattice) -> int:
    """The exponent of L*/L: the lcm of the denominators of the dual basis."""
    return lcm(*(x.denominator for row in lat.dual_basis() for x in row))


def _level(lat: Lattice) -> int:
    """Minimal N with N(x,x) in 2Z for all dual vectors x."""
    dual = lat.dual_basis()
    n0 = discriminant_exponent(lat)
    if any((n0 * dual[i][i]) % 2 for i in range(lat.rank)):
        return 2 * n0
    return n0


def rescale(lat: Lattice, a: int) -> Lattice:
    if a == 0:
        raise ValueError("rescaling by zero is not allowed")
    gram = tuple(tuple(a * x for x in row) for row in lat.gram)
    label = f"{lat.label}({a})" if lat.label else None
    return Lattice(gram, label)


def short_vectors(lat: Lattice, max_norm: int) -> list[tuple[int, ...]]:
    """All nonzero vectors of norm <= max_norm, both signs, lex sorted."""
    if max_norm <= 0 or max_norm % 2:
        raise ValueError("max_norm must be a positive even integer")
    if lat.rank > 10:
        raise ValueError("short vector enumeration is limited to rank <= 10")
    try:
        return linalg.short_vectors_of_form(lat.gram, max_norm)
    except ArithmeticError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc


# ---------------------------------------------------------------------------
# built-in Gram matrices
# ---------------------------------------------------------------------------


def _a_gram(n):
    return tuple(
        tuple(2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n))
        for i in range(n)
    )


def _d_gram(n):
    # chain 0..n-2 with the extra node n-1 attached to n-3
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2
    for i in range(n - 2):
        g[i][i + 1] = g[i + 1][i] = -1
    g[n - 3][n - 1] = g[n - 1][n - 3] = -1
    return linalg.freeze(g)


def _e_gram(n):
    # nodes 0..n-1: chain 0-2-3-4-...-(n-1), with node 1 attached to node 3
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2
    edges = [(0, 2), (1, 3)] + [(i, i + 1) for i in range(2, n - 1)]
    for i, j in edges:
        g[i][j] = g[j][i] = -1
    return linalg.freeze(g)


def _nA1_gram(n):
    return tuple(tuple(2 if i == j else 0 for j in range(n)) for i in range(n))


# name -> (Gram builder, rank), in the order builtin_names lists them
_BUILTINS = {
    **{f"A{n}": (_a_gram, n) for n in range(1, 9)},
    **{f"D{n}": (_d_gram, n) for n in range(4, 9)},
    **{f"E{n}": (_e_gram, n) for n in (6, 7, 8)},
    **{f"{n}A1": (_nA1_gram, n) for n in range(2, 9)},
}


def builtin_names() -> list[str]:
    return list(_BUILTINS)


@lru_cache(maxsize=None)
def builtin_lattice(name: str) -> Lattice:
    """Look up a built-in lattice, optionally rescaled as in "A2(3)"."""
    base = name
    scale = 1
    if name.endswith(")") and "(" in name:
        base, rest = name.split("(", 1)
        scale = int(rest[:-1])
    if base not in _BUILTINS:
        raise KeyError(f"unknown built-in lattice {name!r}")
    gram, n = _BUILTINS[base]
    lat = Lattice(gram(n), base)
    return rescale(lat, scale) if scale != 1 else lat


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------


def lattice_from_json(doc: dict) -> Lattice:
    if not isinstance(doc, dict) or "gram" not in doc:
        raise ValueError("lattice document must contain a 'gram' field")
    gram = doc["gram"]
    if not isinstance(gram, list) or not all(isinstance(r, list) for r in gram):
        raise ValueError("'gram' must be a list of integer rows")
    frozen = linalg.freeze(gram)
    return Lattice(frozen, doc.get("label"))
