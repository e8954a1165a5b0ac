from fractions import Fraction as Q
from itertools import product
from math import isqrt

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from orthoforms import linalg


def test_inverse_known():
    m = ((2, -1), (-1, 2))
    assert linalg.inverse(m) == ((Q(2, 3), Q(1, 3)), (Q(1, 3), Q(2, 3)))


def test_inverse_identity_property():
    m = ((2, -1, 0), (-1, 2, -1), (0, -1, 2))
    inv = linalg.inverse(m)
    assert linalg.mat_mul(inv, m) == linalg.identity(3)


def test_inverse_singular():
    with pytest.raises(ValueError):
        linalg.inverse(((1, 1), (1, 1)))


def test_det():
    assert linalg.det(((2,),)) == 2
    assert linalg.det(((2, -1), (-1, 2))) == 3
    assert linalg.det(((1, 2), (3, 4))) == -2
    assert linalg.det(((1, 1), (1, 1))) == 0


def test_smith_normal_form():
    assert linalg.smith_normal_form([[2]]) == (2,)
    assert linalg.smith_normal_form([[2, -1], [-1, 2]]) == (1, 3)
    assert linalg.smith_normal_form([[2, 0], [0, 2]]) == (2, 2)
    # divisibility chain
    diag = linalg.smith_normal_form([[4, 0, 0], [0, 6, 0], [0, 0, 10]])
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0


def test_ldl_positive_definite():
    assert linalg.is_positive_definite(((2, -1), (-1, 2)))
    assert not linalg.is_positive_definite(((1, 0), (0, -1)))
    assert not linalg.is_positive_definite(((0, 1), (1, 0)))


def test_ldl_reconstructs_form():
    gram = ((2, -1, 0), (-1, 2, -1), (0, -1, 2))
    d, u = linalg.ldl(gram)
    v = (3, -2, 5)
    direct = sum(gram[i][j] * v[i] * v[j] for i in range(3) for j in range(3))
    via_ldl = sum(
        d[i] * (v[i] + sum(u[i][j] * v[j] for j in range(i + 1, 3))) ** 2
        for i in range(3)
    )
    assert direct == via_ldl


def test_short_vectors_of_form_matches_box_enumeration():
    gram = ((2, -1), (-1, 2))
    got = set(linalg.short_vectors_of_form(gram, 6))
    box = set()
    for x in range(-4, 5):
        for y in range(-4, 5):
            if (x, y) != (0, 0) and 2 * x * x - 2 * x * y + 2 * y * y <= 6:
                box.add((x, y))
    assert got == box


def test_rank_known():
    assert linalg.rank(((1, 2), (2, 4))) == 1


# ---------------------------------------------------------------------------
# properties against independent oracles: box enumeration and sympy
# ---------------------------------------------------------------------------

SMALL = st.integers(-2, 2)


@st.composite
def positive_definite_grams(draw):
    """B B^T (times a scale, plus an optional diagonal) for nonsingular B."""
    n = draw(st.integers(1, 3))
    b = draw(st.lists(st.lists(SMALL, min_size=n, max_size=n), min_size=n, max_size=n))
    assume(linalg.det(linalg.freeze(b)) != 0)
    scale = draw(st.integers(1, 3))
    shift = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    gram = linalg.mat_mul(b, linalg.transpose(b))
    return tuple(
        tuple(scale * x + (shift[i] if i == j else 0) for j, x in enumerate(row))
        for i, row in enumerate(gram)
    )


BOUNDS = st.builds(Q, st.integers(0, 24), st.sampled_from([1, 2, 3, 5]))


def box_radii(gram, bound):
    """|x_i| <= sqrt(bound * (G^-1)_ii) on the ellipsoid x^T G x <= bound."""
    inv = linalg.inverse(gram)
    return [isqrt(int(bound * inv[i][i])) + 1 for i in range(len(gram))]


def box_short_vectors(gram, radii, bound):
    """Every nonzero integer vector in the box with x^T G x <= bound."""
    n = len(gram)
    return [
        x
        for x in product(*[range(-r, r + 1) for r in radii])
        if any(x) and sum(gram[i][j] * x[i] * x[j] for i in range(n) for j in range(n)) <= bound
    ]


@settings(max_examples=200, deadline=None)
@given(positive_definite_grams(), BOUNDS)
def test_short_vectors_of_form_against_box(gram, bound):
    radii = box_radii(gram, bound)
    volume = 1
    for r in radii:
        volume *= 2 * r + 1
    assume(volume <= 20000)
    expected = box_short_vectors(gram, radii, bound)
    assert linalg.short_vectors_of_form(gram, bound) == sorted(expected)


def test_short_vectors_of_form_rejects_indefinite():
    with pytest.raises(ArithmeticError):
        linalg.short_vectors_of_form(((1, 0), (0, -1)), 4)


ENTRIES = st.one_of(
    st.integers(-4, 4),
    st.builds(Q, st.integers(-4, 4), st.integers(1, 4)),
)


@st.composite
def matrices(draw):
    """Random int/Fraction matrices, with products of thin factors for low rank and zero rows."""
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    if draw(st.booleans()):
        inner = draw(st.integers(1, 3))
        a = draw(st.lists(st.lists(ENTRIES, min_size=inner, max_size=inner), min_size=rows, max_size=rows))
        b = draw(st.lists(st.lists(ENTRIES, min_size=cols, max_size=cols), min_size=inner, max_size=inner))
        m = [list(r) for r in linalg.mat_mul(a, b)]
    else:
        m = draw(st.lists(st.lists(ENTRIES, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    for i in draw(st.lists(st.integers(0, rows - 1), max_size=2)):
        m[i] = [0] * cols
    return linalg.freeze(m)


def sympy_matrix(m):
    return sympy.Matrix([[sympy.Rational(Q(x).numerator, Q(x).denominator) for x in row] for row in m])


def sympy_rank(m):
    return sympy_matrix(m).rank()


def from_sympy(x):
    return Q(int(x.p), int(x.q))


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_rank_against_sympy(m):
    assert linalg.rank(m) == sympy_rank(m)


def test_rank_edge_cases():
    assert linalg.rank(()) == 0
    assert linalg.rank(((0, 0), (0, 0))) == 0
    assert linalg.rank(((Q(1, 2), Q(1, 3)), (3, 2))) == 1
    assert linalg.rank(((1, 0, 0),) * 4 + ((0, 0, 1),)) == 2


@st.composite
def square_matrices(draw):
    """Square int or int/Fraction matrices; about half are made singular."""
    n = draw(st.integers(1, 4))
    entries = draw(st.sampled_from([st.integers(-4, 4), ENTRIES]))
    m = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    if draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        c = draw(st.integers(-2, 2))
        m[i] = [c * x for x in m[j]] if i != j else [0] * n
    return linalg.freeze(m)


def all_ints(m):
    return all(isinstance(x, int) for row in m for x in row)


@settings(max_examples=300, deadline=None)
@given(square_matrices())
def test_det_against_sympy(m):
    got = linalg.det(m)
    assert got == from_sympy(sympy_matrix(m).det())
    if all_ints(m):
        assert type(got) is int
    else:
        assert type(got) is Q


@settings(max_examples=300, deadline=None)
@given(square_matrices())
def test_inverse_against_sympy(m):
    expected = sympy_matrix(m)
    if expected.det() == 0:
        with pytest.raises(ValueError, match="singular matrix"):
            linalg.inverse(m)
        return
    got = linalg.inverse(m)
    assert got == tuple(tuple(from_sympy(x) for x in row) for row in expected.inv().tolist())
    assert all(type(x) is Q for row in got for x in row)


def test_det_singular_types():
    assert type(linalg.det(((1, 2), (2, 4)))) is int
    assert linalg.det(((Q(1, 2), 1), (1, 2))) == Q(0)
    assert type(linalg.det(((Q(1, 2), 1), (1, 2)))) is Q


# ---------------------------------------------------------------------------
# smith_normal_form against sympy's
# ---------------------------------------------------------------------------


@st.composite
def integer_matrices(draw):
    """Square and rectangular integer matrices with negative entries; some made singular."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    row = st.lists(st.integers(-9, 9), min_size=cols, max_size=cols)
    m = draw(st.lists(row, min_size=rows, max_size=rows))
    if rows > 1 and draw(st.booleans()):
        # one row a combination of two others drops the rank
        i, j, k = (draw(st.integers(0, rows - 1)) for _ in range(3))
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        m[i] = [a * x + b * y for x, y in zip(m[j], m[k])]
    return m


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
def test_smith_normal_form_against_sympy(m):
    from sympy.matrices.normalforms import smith_normal_form

    snf = smith_normal_form(sympy.Matrix(m), domain=sympy.ZZ)
    diag = (abs(int(snf[i, i])) for i in range(min(snf.shape)))
    assert linalg.smith_normal_form(m) == tuple(d for d in diag if d)


def test_smith_normal_form_zero_and_negative():
    assert linalg.smith_normal_form([[0, 0], [0, 0], [0, 0]]) == ()
    assert linalg.smith_normal_form([[-2, 0], [0, 3]]) == (1, 6)
    assert linalg.smith_normal_form([[-4, -6, 2]]) == (2,)


# positive definite Gram of rank 10 from the CLI lattice fuzz: over the
# integers the elimination's entries grew without bound and did not finish
FUZZ_GRAM = [
    [10, -3, 2, 0, -3, -2, -1, 1, 0, 1], [-3, 6, 1, 1, 0, 4, -1, -5, 2, -1],
    [2, 1, 3, 0, -1, 2, 0, 0, -4, 1], [0, 1, 0, 9, 1, 2, 1, -1, -1, -1],
    [-3, 0, -1, 1, 7, 1, 2, 0, -3, 1], [-2, 4, 2, 2, 1, 5, 0, 0, -3, 2],
    [-1, -1, 0, 1, 2, 0, 3, -1, 0, 4], [1, -5, 0, -1, 0, 0, -1, 7, -3, -2],
    [0, 2, -4, -1, -3, -3, 0, -3, 7, -1], [1, -1, 1, -1, 1, 2, 4, -2, -1, 8],
]


@pytest.mark.parametrize("n", [8, 9, 10])
def test_smith_normal_form_rank_ten_gram(n):
    from sympy.matrices.normalforms import smith_normal_form

    m = [row[:n] for row in FUZZ_GRAM[:n]]
    snf = smith_normal_form(sympy.Matrix(m), domain=sympy.ZZ)
    assert linalg.smith_normal_form(m) == tuple(abs(int(snf[i, i])) for i in range(n))
