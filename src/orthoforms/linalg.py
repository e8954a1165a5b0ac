"""Exact linear algebra over the integers and rationals.

Matrices are immutable tuple-of-tuples.  Every matrix routine takes
integer matrices only, as every ``Lattice`` Gram is, and reads its rows
through one guard, ``_int_rows``, which raises ValueError on other input.
Rationals enter only as vectors (``_int_image``, ``_scaled``) and as
weights (``_sum_rule``).  Nothing here ever touches floating point.

One elimination on ints, ``_echelon``, serves ``det``, ``inverse``,
``rank``, ``is_positive_definite`` and ``_half_of_form``: Bareiss's
fraction-free Gaussian elimination (Bareiss, "Sylvester's identity and
multistep integer-preserving Gaussian elimination", Math. Comp. 22, 1968).
Rows are taken one at a time, and a row v is reduced against the pivot rows
r_1, ..., r_k kept so far (pivot columns c_j, pivots p_j = r_j[c_j],
p_0 = 1) by v <- (p_j v - v[c_j] r_j) / p_{j-1}.  Each division is exact:
by Sylvester's identity, after step j each v[c] is the integer minor of the
original rows of r_1, ..., r_j, v on the columns c_1, ..., c_j, c.  So p_j
is the minor of the first j pivot rows on their pivot columns, no entry
outgrows a minor, and a row that reduces to zero, being in the span of the
pivot rows, is dropped.

``_half_of_form`` is the one short-vector enumeration (Fincke-Pohst).  It
works up to sign: the set v^T G v <= B is closed under v -> -v, so only the
vectors whose first nonzero coordinate is positive are searched.  The
search fixes x_0 first, which finds them in lex order, and
``short_vectors_of_form`` is their mirror: their negatives, reversed,
followed by them.  Each vector comes with G·v and its norm, read off the
search itself: one integer list carried down the recursion holds G·v so far
and the pending shift of every level below, fixing a coordinate adds one
precomputed column to it, and a leaf's norm is the budget it spent.  More
than ``VECTOR_CAP`` vectors, both signs counted, is refused.

``_int_image`` computes G·x for an integral Gram matrix G as G·(D·x) / D,
with D the lcm of the denominators of x; so x lies in the dual lattice
exactly when D divides every entry of G·(D·x).

``_sum_rule`` is the one check of the quadratic sum rule
sum_y w_y y y^T = 2c G on integer images y.  ``weyl.quadratic_weyl_constant``
runs it on the whole lattice; ``roots.sum_rule_constant`` runs it on the
span of its vectors, as a change of Gram matrix.
"""

from __future__ import annotations

from fractions import Fraction as Q
from math import gcd, isqrt, lcm
from operator import add, mul
from typing import Iterable, Iterator, Sequence

Vec = tuple[Q, ...]
Mat = tuple[tuple[Q, ...], ...]


def freeze(rows: Iterable[Iterable]) -> Mat:
    return tuple(tuple(x for x in row) for row in rows)


def mat_vec(m: Mat, v: Sequence) -> Vec:
    return tuple([sum(map(mul, row, v)) for row in m])


def is_positive_direction(coords: Sequence) -> bool:
    """Lexicographic ordering on dual vectors: first nonzero coordinate > 0."""
    for x in coords:
        if x != 0:
            return x > 0
    return False


def _scaled(coords: Sequence, den: int) -> tuple[int, ...]:
    """den * x as ints, for den a multiple of every entry's denominator."""
    return tuple([x.numerator * (den // x.denominator) for x in coords])


def _int_row(row: Sequence) -> tuple[int, ...]:
    """The rational row times the lcm of its denominators, as ints."""
    return _scaled(row, lcm(*(x.denominator for x in row)))


def _int_rows(m: Sequence[Sequence[int]], width: int | None = None) -> Iterator[Sequence[int]]:
    """The rows of m as ``_echelon`` takes them, each checked to be n ints (n = width, else len(m)).

    Lazy, so that ``rank`` reads no entry of a row past full column rank; a row that fails is a ValueError.
    """
    n = len(m) if width is None else width
    for row in m:
        if len(row) != n or not all(isinstance(x, int) for x in row):
            raise ValueError(f"not a {'square' if width is None else 'rectangular'} integer matrix")
        yield row


def _echelon(rows: Iterable[Sequence[int]]) -> list[tuple[int, Sequence[int]]]:
    """The (pivot column, pivot row) pairs of the fraction-free elimination.

    Integer rows are reduced one at a time against the pivot rows kept so
    far, as the module docstring describes; a row that reduces to zero is
    dropped, and the scan stops at full column rank.  Pivot row j is zero on
    the pivot columns before its own.
    """
    echelon: list[tuple[int, Sequence[int]]] = []
    for v in rows:
        if len(echelon) == len(v):
            break
        prev = 1
        for c, r in echelon:
            p, f = r[c], v[c]
            v = [(p * x - f * y) // prev for x, y in zip(v, r)]
            prev = p
        c = next((c for c, x in enumerate(v) if x), None)
        if c is not None:
            echelon.append((c, v))
    return echelon


def det(m: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix, an int (0 if singular).

    With every row kept, the last pivot is the determinant of the rows on
    the pivot columns c_1, ..., c_n, which differs from det(m) by the sign
    of that column order.
    """
    echelon = _echelon(_int_rows(m))
    if len(echelon) < len(m):
        return 0
    cols = [c for c, _ in echelon]
    sign = (-1) ** sum(a > b for i, a in enumerate(cols) for b in cols[i + 1:])
    return sign * echelon[-1][1][cols[-1]] if m else 1


def inverse(m: Sequence[Sequence[int]]) -> Mat:
    """Exact inverse adj(m) / det(m) of a square integer matrix; ValueError if singular.

    The elimination makes [m | I] into [T | R] = M [m | I], so m^-1 = T^-1 R.
    It keeps all n rows, and m is singular exactly when a pivot column falls
    in the right block.  Else T is triangular on the pivot columns, and with
    d = p_n = +-det(m) the rows of Z = d T^-1 R are +-rows of adj(m),
    integers: back substitution p_j z_j = d R_j - sum_{k>j} T_j[c_k] z_k
    divides exactly, and row c_j of m^-1 is z_j / d.
    """
    n = len(m)
    echelon = _echelon([*row, *(int(i == j) for j in range(n))] for i, row in enumerate(_int_rows(m)))
    if any(c >= n for c, _ in echelon):
        raise ValueError("singular matrix")
    d = echelon[-1][1][echelon[-1][0]] if m else 1
    solved: dict[int, list[int]] = {}  # pivot column c_k -> z_k
    for c, r in reversed(echelon):
        z = [d * x for x in r[n:]]
        for ck, zk in solved.items():
            if r[ck]:
                z = [x - r[ck] * y for x, y in zip(z, zk)]
        solved[c] = [x // r[c] for x in z]
    return tuple(tuple(Q(x, d) for x in solved[i]) for i in range(n))


def rank(m: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix, each row as wide as the first: the number of pivot rows.

    At full column rank the elimination stops early; the rows it never read
    are checked for their width only, in one pass at C speed.
    """
    n = len(m[0]) if m else 0
    pivots = len(_echelon(_int_rows(m, n)))
    if pivots == n and set(map(len, m)) - {n}:
        raise ValueError("not a rectangular integer matrix")
    return pivots


def _divided(vectors: Sequence[Sequence[int]], den: int) -> list[Vec]:
    """Each integer vector divided by den, with one Fraction per distinct entry."""
    q = {v: Q(v, den) for v in {v for x in vectors for v in x}}
    return [tuple(map(q.__getitem__, x)) for x in vectors]


def _int_image(gram: Mat, x: Sequence) -> tuple[tuple[int, ...], int]:
    """G·x over the integers: (y, e) with G·x = y / e and e >= 1 minimal.

    G is any integer matrix, given by its rows.  With D the lcm of the
    denominators of x, D·x is integral, so y' = G·(D·x) is an integer vector
    and G·x = y' / D; dividing y' and D by their gcd gives (y, e).  For an integral Gram matrix, x lies in the dual
    lattice exactly when D divides G·(D·x), that is when e == 1.
    """
    d = lcm(*(c.denominator for c in x))
    xs = _scaled(x, d)
    y = [sum(map(mul, row, xs)) for row in gram]
    if d == 1:
        return tuple(y), 1
    g = gcd(d, *y)
    if g > 1:
        d //= g
        y = [v // g for v in y]
    return tuple(y), d


def _sum_rule(gram: Sequence[Sequence[int]], weighted_images) -> tuple[Q | None, str | None]:
    """(c, None) with sum_y w_y y y^T = 2c G for integer vectors y, or (None, reason).

    S = sum_y w_y y y^T is built on ints over one denominator den: a term
    with weight w = p / t is p / t times y y^T, and den grows only when a
    term needs it, which never happens for integer weights.  S is then
    compared with the integer Gram matrix G entry by entry, row by row: the
    first entry where G is zero and S is not, or whose ratio differs from
    the earlier ones, fails with the reason.  (None, None) when G is zero.
    """
    n = len(gram)
    s = [[0] * n for _ in range(n)]
    den = 1
    for y, w in weighted_images:
        num, t = w.numerator, w.denominator
        if not num:
            continue
        if den % t:
            grow = t // gcd(den, t)
            s = [[v * grow for v in row] for row in s]
            den *= grow
        num *= den // t
        support = [(i, v) for i, v in enumerate(y) if v]
        for i, yi in support:
            row, a = s[i], num * yi
            for j, yj in support:
                row[j] += a * yj
    c = None
    for srow, gram_row in zip(s, gram):
        for a, b in zip(srow, gram_row):
            if b == 0:
                if a != 0:
                    return None, "left side is not a Gram multiple"
            elif c is None:
                c = Q(a, b)
            elif a * c.denominator != b * c.numerator:
                return None, f"left side has rank {rank(s)} and is not proportional to the Gram matrix"
    return (None if c is None else c / (2 * den)), None


def _definite_rows(gram: Mat) -> list[Sequence[int]] | None:
    """The pivot rows b of an integer Gram matrix, or None unless it is positive definite.

    By Sylvester's criterion a symmetric matrix is positive definite exactly
    when every leading minor is positive.  When the pivot columns are
    0, ..., n-1, pivot b_i[i] is the leading minor of order i + 1; otherwise
    some leading minor is zero.  None unless every pivot column is in place
    and positive.  A non-square or non-integer Gram is a ValueError.
    """
    echelon = _echelon(_int_rows(gram))
    if [c for c, _ in echelon] != list(range(len(gram))) or any(r[c] <= 0 for c, r in echelon):
        return None
    return [r for _, r in echelon]


def is_positive_definite(gram: Mat) -> bool:
    return _definite_rows(gram) is not None


def smith_normal_form(m: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Diagonal of the Smith normal form of a nondegenerate square integer matrix.

    Returns the invariant factors, positive, each dividing the next; their
    product is |det|.  A rectangular, non-integer or singular matrix is a
    ValueError: every caller passes a ``Lattice`` Gram, which is none of these.

    The matrix is eliminated modulo r, the order of the cokernel of its
    trailing block (|det| at the start).  That order kills the cokernel, so
    the columns r e_i lie in the column lattice: entries may be taken mod r,
    which stops them from growing, and a pivot p contributes gcd(p, r).
    """
    n = len(m)
    r = abs(det(m))
    if not r:
        raise ValueError("singular matrix")
    a = [list(row) for row in m]
    diag = []
    for s in range(n):
        for row in a[s:]:
            row[s:] = [x % r for x in row[s:]]
        # locate a minimal nonzero entry in the trailing block
        best = None
        for i in range(s, n):
            for j in range(s, n):
                if a[i][j] and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is not None:  # else the block is 0 mod r, so r = 1 or it is 1 x 1
            i, j = best
            a[s], a[i] = a[i], a[s]
            for row in a:
                row[s], row[j] = row[j], row[s]
        while best is not None:
            changed = False
            for i in range(s + 1, n):
                if a[i][s]:
                    q = a[i][s] // a[s][s]
                    a[i] = [(x - q * y) % r for x, y in zip(a[i], a[s])]
                    if a[i][s]:
                        a[s], a[i] = a[i], a[s]
                    changed = True
            for j in range(s + 1, n):
                if a[s][j]:
                    q = a[s][j] // a[s][s]
                    for row in a:
                        row[j] = (row[j] - q * row[s]) % r
                    if a[s][j]:
                        for row in a:
                            row[s], row[j] = row[j], row[s]
                    changed = True
            if not changed:
                break
        diag.append(gcd(a[s][s], r))
        r //= diag[-1]
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


# the enumeration refuses more vectors than this, both signs counted, as series.DEFAULT_TERM_CAP caps terms
VECTOR_CAP = 200_000


def _half_of_form(gram: Mat, max_norm) -> list[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """(v, G·v, v^T G v) for each lex-positive short vector v, in lex order.

    The v are the nonzero integer vectors with v^T G v <= max_norm whose
    first nonzero coordinate is positive.  Requires a positive definite
    integer Gram G (an ArithmeticError if it is not definite, a ValueError
    if an entry is not an int); a ValueError when both signs together
    exceed ``VECTOR_CAP``.

    Fincke-Pohst branch-and-prune on the pivot rows of the elimination, in
    integer arithmetic.  The search runs on the Gram with its basis order
    reversed, so that it fixes x_0 first and x_{n-1} last.  Its
    ``_definite_rows`` give the pivot rows b_i, with leading minors
    Delta_i = b_i[i] and Delta_{-1} = 1.  Then the norm is
    sum_i (b_i . y)^2 / (Delta_{i-1} Delta_i), y = x reversed: the LDL form
    with pivots d_i = Delta_i / Delta_{i-1} and unit rows b_i / Delta_i.
    With g_i the content of b_i, L_i = Delta_i / g_i and D the lcm over i of
    L_i^2 times the denominator of d_i, every w_i = D d_i / L_i^2 is an
    integer, and D v^T G v = sum_i w_i t_i^2 with t_i = b_i . y / g_i, which
    is L_i y_i plus the shift sum_{j > i} (b_i[j] / g_i) y_j.  The left side
    is an integer, so the bound is exactly D v^T G v <= floor(D max_norm),
    and each coordinate's range comes from isqrt of the remaining budget
    over w_i with no slack and no after-the-fact filtering.  At a leaf the
    budget spent is sum_i w_i t_i^2, so v^T G v is that over D.

    One integer list rides down the recursion: G·v so far, followed by the
    pending shift of every level not yet fixed, the next level's last.
    Fixing y_i adds y_i times one precomputed column, the column of G at
    its coordinate followed by each lower level's coefficient b_k[i] / g_k,
    and drops y_i's own shift; so no shift is summed and no product with
    the Gram is taken per vector.  Each multiple y·column is built the
    first time y is met at that level and kept.

    The set is closed under v -> -v, so it is enumerated up to sign
    (Fincke and Pohst, Math. Comp. 44, 1985): while every coordinate fixed
    so far is zero, the next one ranges over x >= 0 only, and the all-zero
    leaf is skipped.  That visits about half the nodes and finds each
    vector whose first nonzero coordinate is positive once, in lex order,
    as each range ascends and x_0 is fixed first.
    """
    n = len(gram)
    rows = _definite_rows(tuple(row[::-1] for row in gram[::-1]))
    if rows is None:
        raise ArithmeticError("form is not positive definite")
    minors = [1] + [r[i] for i, r in enumerate(rows)]
    rows = [[x // g for x in r] for r, g in zip(rows, [gcd(*r) for r in rows])]
    row_den = [r[i] for i, r in enumerate(rows)]
    scale = lcm(*(minors[i] // gcd(minors[i], minors[i + 1]) * l * l for i, l in enumerate(row_den)))
    weights = [scale // (l * l) * minors[i + 1] // minors[i] for i, l in enumerate(row_den)]
    # (w_i, L_i, coordinate p = n-1-i, column, its multiples by y) for each level i
    levels = [
        (w, l, n - 1 - i, [row[n - 1 - i] for row in gram] + [rows[k][i] for k in range(i)], {})
        for i, (w, l) in enumerate(zip(weights, row_den))
    ]
    bound = Q(max_norm) * scale
    budget = bound.numerator // bound.denominator
    half: list[tuple[tuple[int, ...], tuple[int, ...], int]] = []
    if budget < 0:
        return half
    coords = [0] * n

    def descend(i: int, remaining: int, signed: bool, carried: list[int]) -> None:
        # fixes coords[p]; signed: a coordinate before p is nonzero, so both signs are new
        w, l, p, column, step = levels[i]
        shift = carried[-1]
        s = isqrt(remaining // w)
        # all y with -s <= l*y + shift <= s; y >= 1 at an all-zero leaf, y >= 0 above it
        low = -((s + shift) // l) if signed else int(i == 0)
        ys = range(low, (s - shift) // l + 1)
        if i == 0:
            if 2 * (len(half) + len(ys)) > VECTOR_CAP:
                raise ValueError(f"short vectors of norm <= {max_norm} in rank {n} exceed the cap of {VECTOR_CAP}")
            spent = budget - remaining
            for y in ys:
                coords[p] = y
                t = l * y + shift
                image = tuple(map(add, carried, step.get(y) or step.setdefault(y, [y * c for c in column])))
                half.append((tuple(coords), image, (spent + w * t * t) // scale))
            coords[p] = 0
            return
        for y in ys:
            t = l * y + shift
            coords[p] = y
            child = list(map(add, carried, step.get(y) or step.setdefault(y, [y * c for c in column])))
            descend(i - 1, remaining - w * t * t, signed or y != 0, child)
        coords[p] = 0

    descend(n - 1, budget, False, [0] * (2 * n))
    # descend refers to itself through its closure: unbinding it frees the search now, not at a cycle collection
    del descend
    return half


def _mirrored(half: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Both signs of the lex-positive vectors in lex order: their negatives, reversed, then them."""
    return [tuple([-x for x in v]) for v in reversed(half)] + half


def short_vectors_of_form(gram: Mat, max_norm) -> list[tuple[int, ...]]:
    """All nonzero v with v^T G v <= max_norm, both signs, for a positive definite integer Gram G.

    Output is sorted lexicographically: the mirror of ``_half_of_form``.
    Every vector it finds sorts after every negated one, so the output is
    the negatives in reverse order followed by the vectors found, with no
    sort, and s[-1-k] == -s[k].
    """
    return _mirrored([v for v, _, _ in _half_of_form(gram, max_norm)])
