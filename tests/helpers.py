"""Matrix, lattice and reflection helpers the tests share; the package itself has no use for them."""

from fractions import Fraction as Q
from operator import mul

from orthoforms import Lattice
from orthoforms.linalg import vec_gcd


def mat_mul(a, b):
    """The product of two matrices of ints and Fractions, as a tuple of tuples."""
    return tuple(tuple(sum(map(mul, row, col)) for col in zip(*b)) for row in a)


def direct_sum(*lats: Lattice) -> Lattice:
    """The orthogonal direct sum, labelled like "A2+A1"."""
    n = sum(l.rank for l in lats)
    gram = [[0] * n for _ in range(n)]
    offset = 0
    for l in lats:
        for i, row in enumerate(l.gram):
            gram[offset + i][offset:offset + l.rank] = row
        offset += l.rank
    return Lattice(tuple(map(tuple, gram)), "+".join(l.label or "?" for l in lats))


def reflect(lat: Lattice, x, r) -> tuple:
    """Reflection of x in the hyperplane orthogonal to r: x - 2(r,x)/(r,r) r."""
    rr = lat.norm(r)
    if rr == 0:
        raise ValueError("cannot reflect in an isotropic vector")
    factor = Q(2) * lat.pairing(r, x) / rr
    return tuple(Q(a) - factor * b for a, b in zip(x, r))


def div(lat: Lattice, v) -> int:
    """Positive generator of the pairing ideal (v, L)."""
    if not any(v):
        raise ValueError("div of the zero vector is undefined")
    if any(not isinstance(x, int) for x in v):
        raise ValueError("div requires integral coordinates")
    return vec_gcd(lat.gram_times(v))
