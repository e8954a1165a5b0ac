"""Even lattices with exact integer Gram matrices.

Vectors are plain coordinate tuples in the fixed basis of a lattice; dual
vectors carry Fraction coordinates in the same basis.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction as Q
from functools import lru_cache
from math import lcm
from operator import mul
from typing import NamedTuple, Sequence

from . import linalg


class DegenerateLatticeError(ValueError):
    pass


class NotPositiveDefiniteError(ValueError):
    pass


class _LatticeFields(NamedTuple):
    gram: tuple[tuple[int, ...], ...]
    label: str | None = None


class Lattice(_LatticeFields):
    """A nondegenerate integral lattice given by its Gram matrix."""

    __slots__ = ()

    def __new__(cls, gram: tuple[tuple[int, ...], ...], label: str | None = None):
        if label is not None and not isinstance(label, str):
            raise ValueError(f"'label' must be a string or null, got {label!r}")
        if not isinstance(gram, tuple) or not all(isinstance(row, tuple) for row in gram):
            raise ValueError("gram matrix must be a tuple of tuple rows")
        n = len(gram)
        if n == 0 or any(len(row) != n for row in gram):
            raise ValueError("gram matrix must be square and nonempty")
        for i in range(n):
            for j in range(n):
                if not isinstance(gram[i][j], int) or isinstance(gram[i][j], bool):
                    raise ValueError(f"gram entry ({i},{j}) is not an integer")
                if gram[i][j] != gram[j][i]:
                    raise ValueError(
                        f"gram matrix is not symmetric at entries ({i},{j}) and ({j},{i})"
                    )
        if _det_cached(gram) == 0:
            raise DegenerateLatticeError("degenerate lattice")
        return super().__new__(cls, gram, label)

    @classmethod
    def _make(cls, fields) -> Lattice:
        """The Lattice of (gram, label), checked: ``_replace`` builds its copy here."""
        return cls(*fields)

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

    def pairing(self, u: Sequence, v: Sequence) -> int:
        acc = 0
        for i, row in enumerate(self.gram):
            if u[i]:
                acc += u[i] * sum(map(mul, row, v))
        return acc

    def norm(self, v: Sequence) -> int:
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


class DiscriminantGroup(NamedTuple):
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


def _short_half(lat: Lattice, max_norm: int) -> list[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """(v, G·v, norm(v)) for each v of norm <= max_norm whose first nonzero coordinate is positive, lex sorted."""
    if max_norm <= 0 or max_norm % 2:
        raise ValueError("max_norm must be a positive even integer")
    if lat.rank > 10:
        raise ValueError("short vector enumeration is limited to rank <= 10")
    try:
        return linalg._half_of_form(lat.gram, max_norm)
    except ArithmeticError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc


def short_vectors(lat: Lattice, max_norm: int) -> list[tuple[int, ...]]:
    """All nonzero vectors of norm <= max_norm, both signs, lex sorted: the mirror of ``_short_half``."""
    return linalg._mirrored([v for v, _, _ in _short_half(lat, max_norm)])


# ---------------------------------------------------------------------------
# built-in Gram matrices
# ---------------------------------------------------------------------------


def _dynkin(n, edges):
    """The Gram matrix of a Dynkin diagram on nodes 0..n-1: 2 on the diagonal, -1 on each edge."""
    g = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in edges:
        g[i][j] = g[j][i] = -1
    return linalg.freeze(g)


# name -> (rank, edges), in the order builtin_names lists them
_BUILTINS = {
    **{f"A{n}": (n, [(i, i + 1) for i in range(n - 1)]) for n in range(1, 9)},
    # the chain 0..n-2, with node n-1 attached to node n-3
    **{f"D{n}": (n, [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]) for n in range(4, 9)},
    # the chain 0-2-3-..-(n-1), with node 1 attached to node 3
    **{f"E{n}": (n, [(0, 2), (1, 3)] + [(i, i + 1) for i in range(2, n - 1)]) for n in (6, 7, 8)},
    **{f"{n}A1": (n, []) for n in range(2, 9)},
}


def builtin_names() -> list[str]:
    return list(_BUILTINS)


@lru_cache(maxsize=None)
def builtin_lattice(name: str) -> Lattice:
    """Look up a built-in lattice, optionally rescaled as in "A2(3)" by an integer in ASCII digits."""
    base = name
    scale = 1
    if name.endswith(")") and "(" in name:
        base, digits = name[:-1].split("(", 1)
        if not re.fullmatch(r"-?(0|[1-9][0-9]*)", digits):
            raise ValueError(f"scale {digits!r} is not an integer in ASCII digits")
        scale = int(digits)
    if base not in _BUILTINS:
        raise KeyError(f"unknown built-in lattice {name!r}")
    lat = Lattice(_dynkin(*_BUILTINS[base]), base)
    return rescale(lat, scale) if scale != 1 else lat


# ---------------------------------------------------------------------------
# JSON, and the field readers every document format shares
# ---------------------------------------------------------------------------

# the default global exponent denominator of series documents and the CLI's --den
DEFAULT_DEN = 24


def q_str(x) -> str:
    x = x if isinstance(x, Q) else Q(x)
    return f"{x.numerator}/{x.denominator}"


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


# the interpreter's default int_max_str_digits: q_str cannot print a longer numerator or denominator
_MAX_DIGITS = 4300
_TOO_LONG = 10**_MAX_DIGITS
_EXPONENT = re.compile(r"[eE][-+]?([0-9_]*)")
_DIGIT_RUN = re.compile(r"[0-9_]+")


def _check_exponent(text: str, what: str) -> None:
    """Refuse a decimal exponent above _MAX_DIGITS in absolute value, before Fraction expands it."""
    m = _EXPONENT.search(text)
    digits = m[1].replace("_", "").lstrip("0") if m else ""
    if len(digits) > len(str(_MAX_DIGITS)) or int(digits or 0) > _MAX_DIGITS:
        raise ValueError(f"{what} has a decimal exponent beyond {_MAX_DIGITS} in absolute value, got {text!r}")


def _check_digits(x: Q, what: str) -> Q:
    """x, refused when its numerator or denominator has more than _MAX_DIGITS digits."""
    if abs(x.numerator) >= _TOO_LONG or x.denominator >= _TOO_LONG:
        raise ValueError(f"{what} has a numerator or denominator of more than {_MAX_DIGITS} digits")
    return x


def _check_str_limit(text: str, what: str) -> None:
    """Refuse text, without echoing it, when a run of its digits is past the interpreter's int string limit.

    Called where Fraction(text) has raised: that limit
    (``sys.get_int_max_str_digits()``, 0 for none) raises the same error as
    malformed text does, so this names the limit instead.
    """
    limit = sys.get_int_max_str_digits()
    if limit and any(len(run.replace("_", "")) > limit for run in _DIGIT_RUN.findall(text)):
        raise ValueError(f"{what} has a run of more than {limit} digits, past the interpreter's limit on converting a string to an int")


def _json_q(value, what: str) -> Q:
    """A rational from a string or an integer; floats, booleans and unprintably long values are rejected."""
    if isinstance(value, str):
        _check_exponent(value, what)
    if isinstance(value, str) or (isinstance(value, int) and not isinstance(value, bool)):
        try:
            x = Q(value)
        except (ValueError, ZeroDivisionError):
            if isinstance(value, str):
                _check_str_limit(value, what)
        else:
            return _check_digits(x, what)
    raise ValueError(f"{what} must be a rational 'p/q', got {value!r}")


def lattice_from_json(doc: dict) -> Lattice:
    if not isinstance(doc, dict) or "gram" not in doc:
        raise ValueError("lattice document must contain a 'gram' field")
    gram = doc["gram"]
    if not isinstance(gram, list) or not all(isinstance(r, list) for r in gram):
        raise ValueError("'gram' must be a list of integer rows")
    return Lattice(linalg.freeze(gram), doc.get("label"))
