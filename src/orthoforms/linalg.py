"""Exact linear algebra over the integers and rationals.

All routines operate on immutable tuple-of-tuples matrices whose entries
are ints or Fractions.  Nothing here ever touches floating point.

The hot routines scale to ints instead of running Fraction loops, and each
scaling is exact:

- ``rank`` multiplies every row by the lcm of its denominators; scaling a
  row by a nonzero number does not change the rank.
- ``_int_image`` computes G·x for an integral Gram matrix G as G·(D·x) / D,
  with D the lcm of the denominators of x; so x lies in the dual lattice
  exactly when D divides every entry of G·(D·x).
- ``short_vectors_of_form`` multiplies the LDL form by a common denominator
  D that makes every pivot weight an integer; the norm of an integer vector
  then becomes an integer, and the bound an exact integer comparison.
"""

from __future__ import annotations

from fractions import Fraction as Q
from math import gcd, isqrt, lcm
from operator import mul
from typing import Iterable, Sequence

Vec = tuple[Q, ...]
Mat = tuple[tuple[Q, ...], ...]


def freeze(rows: Iterable[Iterable]) -> Mat:
    return tuple(tuple(x for x in row) for row in rows)


def identity(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m: Mat) -> Mat:
    return tuple(zip(*m))


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def mat_vec(m: Mat, v: Sequence) -> Vec:
    return tuple(sum(map(mul, row, v)) for row in m)


def vec_gcd(v: Sequence[int]) -> int:
    g = 0
    for x in v:
        g = gcd(g, int(x))
    return g


def _gauss_jordan(m: Mat, augment: bool = False) -> tuple[Q, list[list[Q]]]:
    """Gauss-Jordan elimination of m over the rationals, optionally of [m | I].

    Returns the determinant of m, the signed product of the pivots, with the
    reduced rows; with augment the right half of the rows is then m^-1.  On a
    singular m the determinant is 0 and the rows are left part-reduced.
    """
    n = len(m)
    a = [
        [Q(x) for x in row] + ([Q(int(i == j)) for j in range(n)] if augment else [])
        for i, row in enumerate(m)
    ]
    d = Q(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Q(0), a
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            d = -d
        p = a[col][col]
        d *= p
        a[col] = [x / p for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return d, a


def det(m: Mat):
    """Exact determinant: an int for int input, else a Fraction (Q(0) if singular)."""
    d, _ = _gauss_jordan(m)
    return int(d) if all(isinstance(x, int) for row in m for x in row) else d


def inverse(m: Mat) -> Mat:
    """Exact inverse via Gauss-Jordan; raises ValueError on singular input."""
    d, rows = _gauss_jordan(m, augment=True)
    if d == 0:
        raise ValueError("singular matrix")
    return freeze(row[len(m):] for row in rows)


def _int_row(row: Sequence) -> list[int]:
    """The row times the lcm of its denominators, as ints."""
    scale = lcm(*(x.denominator for x in row))
    return [x.numerator * (scale // x.denominator) for x in row]


def rank(m: Mat) -> int:
    """Rank of an int or Fraction matrix, by fraction-free integer elimination.

    Each row is first scaled by the lcm of its denominators; a nonzero row
    scaling does not change the rank, so the elimination runs on ints.  Rows
    are reduced one at a time against the echelon rows kept so far, each
    update divided by the gcd of its entries to keep it small; the scan stops
    once the rank reaches the column count.
    """
    cols = len(m[0]) if m else 0
    echelon: list[tuple[int, list[int]]] = []  # (pivot column, row)
    for row in m:
        if len(echelon) == cols:
            break
        v = _int_row(row)
        for c, top in echelon:
            f = v[c]
            if f:
                p = top[c]
                v = [p * x - f * y for x, y in zip(v, top)]
                g = vec_gcd(v)
                if g > 1:
                    v = [x // g for x in v]
        pivot = next((c for c, x in enumerate(v) if x), None)
        if pivot is not None:
            echelon.append((pivot, v))
    return len(echelon)


def _divided(vectors: Sequence[Sequence[int]], den: int) -> list[Vec]:
    """Each integer vector divided by den, with one Fraction per distinct entry."""
    q = {v: Q(v, den) for v in {v for x in vectors for v in x}}
    return [tuple(map(q.__getitem__, x)) for x in vectors]


def _int_image(gram: Mat, x: Sequence) -> tuple[tuple[int, ...], int]:
    """G·x over the integers: (y, e) with G·x = y / e and e >= 1 minimal.

    With D the lcm of the denominators of x, D·x is integral, so
    y' = G·(D·x) is an integer vector and G·x = y' / D; dividing y' and D by
    their gcd gives (y, e).  For an integral Gram matrix, x lies in the dual
    lattice exactly when D divides G·(D·x), that is when e == 1.
    """
    d = lcm(*(c.denominator for c in x))
    xs = [c.numerator * (d // c.denominator) for c in x]
    y = [sum(map(mul, row, xs)) for row in gram]
    if d == 1:
        return tuple(y), 1
    g = gcd(d, *y)
    if g > 1:
        d //= g
        y = [v // g for v in y]
    return tuple(y), d


def ldl(gram: Mat) -> tuple[Vec, Mat]:
    """LDL^T data of a symmetric matrix: pivots d and unit upper factor u.

    The quadratic form becomes sum_i d[i] * (x_i + sum_{j>i} u[i][j] x_j)^2.
    Raises ArithmeticError when a zero pivot blocks the decomposition.
    """
    n = len(gram)
    a = [[Q(x) for x in row] for row in gram]
    d = []
    for i in range(n):
        p = a[i][i]
        if p == 0:
            raise ArithmeticError("zero pivot in LDL decomposition")
        d.append(p)
        for j in range(i + 1, n):
            a[i][j] = a[i][j] / p
        for j in range(i + 1, n):
            for k in range(j, n):
                a[j][k] -= p * a[i][j] * a[i][k]
    u = freeze(
        [Q(1) if j == i else (a[i][j] if j > i else Q(0)) for j in range(n)]
        for i in range(n)
    )
    return tuple(d), u


def is_positive_definite(gram: Mat) -> bool:
    try:
        pivots, _ = ldl(gram)
    except ArithmeticError:
        return False
    return all(p > 0 for p in pivots)


def smith_normal_form(m: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Diagonal of the Smith normal form of an integer matrix.

    Returns the nonzero invariant factors, nonnegative, each dividing the
    next.  For a nondegenerate square matrix the product equals |det|.

    A nondegenerate square matrix is eliminated modulo r, the order of the
    cokernel of its trailing block (|det| at the start).  That order kills
    the cokernel, so the columns r e_i lie in the column lattice: entries
    may be taken mod r, which stops them from growing, and a pivot p
    contributes gcd(p, r).  Other matrices are eliminated over the integers.
    """
    a = [[int(x) for x in row] for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    r = abs(det(a)) if rows == cols > 0 else 0

    def red(x):
        return x % r if r else x

    diag = []
    s = 0
    while s < min(rows, cols):
        for row in a[s:]:
            row[s:] = map(red, row[s:])
        # locate a minimal nonzero entry in the trailing block
        best = None
        for i in range(s, rows):
            for j in range(s, cols):
                if a[i][j] and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None and not r:
            break
        if best is not None:  # else the block is 0 mod r, so r = 1 or it is 1 x 1
            i, j = best
            a[s], a[i] = a[i], a[s]
            for row in a:
                row[s], row[j] = row[j], row[s]
        while best is not None:
            changed = False
            for i in range(s + 1, rows):
                if a[i][s]:
                    q = a[i][s] // a[s][s]
                    a[i] = [red(x - q * y) for x, y in zip(a[i], a[s])]
                    if a[i][s]:
                        a[s], a[i] = a[i], a[s]
                    changed = True
            for j in range(s + 1, cols):
                if a[s][j]:
                    q = a[s][j] // a[s][s]
                    for row in a:
                        row[j] = red(row[j] - q * row[s])
                    if a[s][j]:
                        for row in a:
                            row[s], row[j] = row[j], row[s]
                    changed = True
            if not changed:
                break
        diag.append(gcd(a[s][s], r))  # gcd(p, 0) = |p|
        r //= diag[-1]
        s += 1
    # enforce the divisibility chain; diag(a, b) and diag(gcd, lcm) are equivalent
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            if diag[i + 1] % diag[i]:
                g = gcd(diag[i], diag[i + 1])
                diag[i], diag[i + 1] = g, diag[i] * diag[i + 1] // g
                changed = True
    return tuple(diag)


def short_vectors_of_form(gram: Mat, max_norm) -> list[tuple[int, ...]]:
    """All nonzero integer vectors with v^T gram v <= max_norm, both signs.

    Fincke-Pohst branch-and-prune on the LDL pivots, in integer arithmetic;
    requires a positive definite form.  Output is sorted lexicographically.

    The form is sum_i d_i (x_i + sum_{j>i} u_ij x_j)^2.  With L_i the lcm of
    the denominators of row i of u and D the lcm over i of den(d_i) * L_i^2,
    every w_i = D d_i / L_i^2 and every U_ij = L_i u_ij is an integer, and
    D v^T gram v = sum_i w_i (L_i x_i + sum_{j>i} U_ij x_j)^2.  The left side
    is an integer, so the bound is exactly D v^T gram v <= floor(D max_norm),
    and each coordinate's range comes from isqrt of the remaining budget
    over w_i with no slack and no after-the-fact filtering.
    """
    n = len(gram)
    pivots, u = ldl(gram)
    if any(p <= 0 for p in pivots):
        raise ArithmeticError("form is not positive definite")
    row_den = [lcm(*(u[i][j].denominator for j in range(i + 1, n))) for i in range(n)]
    scale = lcm(*(p.denominator * l * l for p, l in zip(pivots, row_den)))
    weights = [int(scale * p / (l * l)) for p, l in zip(pivots, row_den)]
    offsets = [
        [(j, int(u[i][j] * row_den[i])) for j in range(i + 1, n) if u[i][j]]
        for i in range(n)
    ]
    bound = Q(max_norm) * scale
    budget = bound.numerator // bound.denominator
    out: list[tuple[int, ...]] = []
    if budget < 0:
        return out
    coords = [0] * n

    def descend(i: int, remaining: int) -> None:
        w, l = weights[i], row_den[i]
        shift = sum(c * coords[j] for j, c in offsets[i])
        s = isqrt(remaining // w)
        # all x with -s <= l*x + shift <= s
        xs = range(-((s + shift) // l), (s - shift) // l + 1)
        if i == 0:
            skip_zero = not any(coords)
            for x in xs:
                if x or not skip_zero:
                    coords[0] = x
                    out.append(tuple(coords))
            coords[0] = 0
            return
        for x in xs:
            t = l * x + shift
            coords[i] = x
            descend(i - 1, remaining - w * t * t)
        coords[i] = 0

    descend(n - 1, budget)
    out.sort()
    return out
