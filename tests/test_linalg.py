from fractions import Fraction as Q
from itertools import product
from math import isqrt

import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

from orthoforms import linalg
from orthoforms.lattice import builtin_lattice, builtin_names

from helpers import mat_mul


def test_inverse_known():
    m = ((2, -1), (-1, 2))
    assert linalg.inverse(m) == ((Q(2, 3), Q(1, 3)), (Q(1, 3), Q(2, 3)))


def test_inverse_identity_property():
    m = ((2, -1, 0), (-1, 2, -1), (0, -1, 2))
    inv = linalg.inverse(m)
    assert mat_mul(inv, m) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


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
    gram = mat_mul(b, tuple(zip(*b)))
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
    found = linalg.short_vectors_of_form(gram, bound)
    assert found == sorted(expected)
    # a Fraction Gram, the same form over 3, is refused: the enumerator takes integer Grams only
    thirds = tuple(tuple(Q(x, 3) for x in row) for row in gram)
    with pytest.raises(ValueError, match="^not a square integer matrix$"):
        linalg.short_vectors_of_form(thirds, bound / 3)
    # roots.detect_roots tests only the first half and mirrors it
    assert all(found[-1 - k] == tuple(-x for x in found[k]) for k in range(len(found)))


@settings(max_examples=200, deadline=None)
@given(positive_definite_grams(), BOUNDS)
def test_half_carries_images_and_norms(gram, bound):
    """Each (v, image, norm) of the lex-positive half is G·v and v^T G v, in lex order."""
    half = linalg._half_of_form(gram, bound)
    vectors = [v for v, _, _ in half]
    assert vectors == sorted(set(vectors))
    for v, image, norm in half:
        assert next(x for x in v if x) > 0
        assert image == linalg.mat_vec(gram, v)
        assert all(type(x) is int for x in image) and type(norm) is int
        assert norm == sum(gram[i][j] * v[i] * v[j] for i in range(len(v)) for j in range(len(v)))
        assert norm <= bound
    assert linalg._mirrored(vectors) == linalg.short_vectors_of_form(gram, bound)
    thirds = tuple(tuple(Q(x, 3) for x in row) for row in gram)
    with pytest.raises(ValueError, match="^not a square integer matrix$"):
        linalg._half_of_form(thirds, bound / 3)


def test_negative_bound_has_no_vectors():
    # the integer budget floor(D max_norm) is negative: no vector, and no search that isqrt would refuse
    gram = builtin_lattice("A2").gram
    assert linalg.short_vectors_of_form(gram, -1) == []
    assert linalg._half_of_form(gram, Q(-1, 3)) == []


def test_enumeration_past_the_cap_is_refused():
    # A8 up to norm 162 has about 10^9 vectors; the cap stops the search long before memory runs out
    gram = builtin_lattice("A8").gram
    with pytest.raises(ValueError, match=r"^short vectors of norm <= 162 in rank 8 exceed the cap of 200000$"):
        linalg.short_vectors_of_form(gram, 162)
    # E8 up to norm 14 has 199,920 vectors, just under the cap
    assert len(linalg.short_vectors_of_form(builtin_lattice("E8").gram, 14)) == 199_920


@settings(max_examples=200, deadline=None)
@given(positive_definite_grams(), st.data())
def test_pivot_rows_reconstruct_form(gram, data):
    """x^T G x = sum_i (b_i . x)^2 / (D_{i-1} D_i), with D_i sympy's leading minors."""
    n = len(gram)
    echelon = linalg._echelon([list(row) for row in gram])
    assert [c for c, _ in echelon] == list(range(n))
    minors = [1] + [r[c] for c, r in echelon]
    assert minors[1:] == [sympy.Matrix(gram)[:k, :k].det() for k in range(1, n + 1)]
    x = data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    via_rows = sum(
        Q(sum(b * v for b, v in zip(r, x)) ** 2, minors[i] * minors[i + 1])
        for i, (_, r) in enumerate(echelon)
    )
    assert via_rows == sum(gram[i][j] * x[i] * x[j] for i in range(n) for j in range(n))


@st.composite
def symmetric_matrices(draw):
    """Symmetric integer matrices: arbitrary, or B^T B for a possibly singular B (semidefinite)."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        b = draw(st.lists(st.lists(SMALL, min_size=n, max_size=n), min_size=draw(st.integers(1, n)), max_size=n))
        return mat_mul(tuple(zip(*b)), b)
    upper = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n))
    return tuple(tuple(upper[min(i, j)][max(i, j)] for j in range(n)) for i in range(n))


@settings(max_examples=300, deadline=None)
@given(symmetric_matrices())
@example(((0, 1), (1, 0)))
@example(((0, 0), (0, 1)))
@example(((1, 1), (1, 1)))
@example(((1, 1, 0), (1, 1, 1), (0, 1, 1)))
def test_is_positive_definite_against_sympy(gram):
    assert linalg.is_positive_definite(gram) == sympy.Matrix(gram).is_positive_definite


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
        m = [list(r) for r in mat_mul(a, b)]
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


def rows_rank_reads(m):
    """The rows rank's elimination takes: through the first one past full column rank, else all."""
    full = next((k for k in range(1, len(m) + 1) if sympy_rank(m[:k]) == len(m[0])), len(m))
    return m[:full + 1]


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_rank_against_sympy(m):
    # rank takes integer matrices only; a Fraction in a row past full column rank is never read
    if not all_ints(rows_rank_reads(m)):
        with pytest.raises(ValueError, match="^not a rectangular integer matrix$"):
            linalg.rank(m)
        return
    assert linalg.rank(m) == sympy_rank(m)


def test_rank_edge_cases():
    assert linalg.rank(()) == 0
    assert linalg.rank(((0, 0), (0, 0))) == 0
    # the rows (1/2, 1/3) and (3, 2) are proportional: 6 times the first is the second
    assert linalg.rank(((3, 2), (3, 2))) == 1
    with pytest.raises(ValueError, match="^not a rectangular integer matrix$"):
        linalg.rank(((Q(1, 2), Q(1, 3)), (3, 2)))
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
    if not all_ints(m):
        with pytest.raises(ValueError, match="^not a square integer matrix$"):
            linalg.det(m)
        return
    got = linalg.det(m)
    assert got == from_sympy(sympy_matrix(m).det())
    assert type(got) is int


@settings(max_examples=300, deadline=None)
@given(square_matrices())
def test_inverse_against_sympy(m):
    if not all_ints(m):
        with pytest.raises(ValueError, match="^not a square integer matrix$"):
            linalg.inverse(m)
        return
    expected = sympy_matrix(m)
    if expected.det() == 0:
        with pytest.raises(ValueError, match="singular matrix"):
            linalg.inverse(m)
        return
    got = linalg.inverse(m)
    assert got == tuple(tuple(from_sympy(x) for x in row) for row in expected.inv().tolist())
    assert all(type(x) is Q for row in got for x in row)


def test_det_singular_types():
    assert linalg.det(((1, 2), (2, 4))) == 0
    assert type(linalg.det(((1, 2), (2, 4)))) is int
    # the singular Fraction matrix that det once returned Q(0) for is refused
    with pytest.raises(ValueError, match="^not a square integer matrix$"):
        linalg.det(((Q(1, 2), 1), (1, 2)))


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
    """Every nondegenerate square draw matches sympy; every rectangular or singular one is refused."""
    from sympy.matrices.normalforms import smith_normal_form

    matrix = sympy.Matrix(m)
    if not matrix.is_square or matrix.det() == 0:
        with pytest.raises(ValueError, match="^(not a square integer matrix|singular matrix)$"):
            linalg.smith_normal_form(m)
        return
    snf = smith_normal_form(matrix, domain=sympy.ZZ)
    assert linalg.smith_normal_form(m) == tuple(abs(int(snf[i, i])) for i in range(len(m)))


def test_smith_normal_form_zero_and_negative():
    with pytest.raises(ValueError, match="^not a square integer matrix$"):
        linalg.smith_normal_form([[0, 0], [0, 0], [0, 0]])
    with pytest.raises(ValueError, match="^singular matrix$"):
        linalg.smith_normal_form([[0, 0], [0, 0]])
    assert linalg.smith_normal_form([[-2, 0], [0, 3]]) == (1, 6)
    with pytest.raises(ValueError, match="^not a square integer matrix$"):
        linalg.smith_normal_form([[-4, -6, 2]])


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


# a 9 x 10 slice of FUZZ_GRAM and a singular variant: an elimination over the integers ran past 30 s
# on each without finishing, so the Smith form must refuse both before it eliminates
FUZZ_REFUSED = {
    "9x10": FUZZ_GRAM[:9],
    "singular": FUZZ_GRAM[:9] + [[a + 2 * b for a, b in zip(FUZZ_GRAM[0], FUZZ_GRAM[1])]],
}


@pytest.mark.parametrize("name", sorted(FUZZ_REFUSED))
def test_smith_normal_form_refuses_fuzz_slices_at_once(deadline, name):
    with deadline(1), pytest.raises(ValueError, match="^(not a square integer matrix|singular matrix)$"):
        linalg.smith_normal_form(FUZZ_REFUSED[name])


@pytest.mark.parametrize(
    "routine",
    [
        linalg.det,
        linalg.inverse,
        linalg.rank,
        linalg.smith_normal_form,
        linalg.is_positive_definite,
        # the enumerator reads the Gram with its basis order reversed: flipped here, it reads m as written
        lambda m: linalg.short_vectors_of_form(tuple(row[::-1] for row in m[::-1]), 4),
    ],
    ids=["det", "inverse", "rank", "smith_normal_form", "is_positive_definite", "short_vectors_of_form"],
)
@pytest.mark.parametrize(
    "m",
    [
        ((Q(5, 2), 1), (1, 2)),
        ((Q(2), 1), (1, 2)),
        ((2.0, 1), (1, 2)),
        ((1, 0, 0),),
        ((1,), (0,), (0,)),
        ((1, 2), (3,)),
    ],
    ids=["fraction", "integral-fraction", "float", "1x3", "3x1", "ragged"],
)
def test_gram_routines_refuse_non_integer_entries(routine, m):
    """Every matrix routine refuses a non-int entry, put in the first row its elimination reads, or a wrong shape.

    An entry is refused, never truncated: int(5/2) would read the Gram as
    ((2, 1), (1, 2)).  rank takes rectangular matrices, so it ranks the
    1 x 3 and 3 x 1 ones instead; a ragged one it refuses.
    """
    if routine is linalg.rank and len(m[0]) == len(m[-1]) and len(m) != len(m[0]):
        assert linalg.rank(m) == 1
        return
    with pytest.raises(ValueError, match="^not a (square|rectangular) integer matrix$"):
        routine(m)


def oracle_grams():
    """The built-in Grams at scales 1 and 3 and negated, plus FUZZ_GRAM."""
    for name in builtin_names():
        gram = builtin_lattice(name).gram
        for scale in (1, 3, -1):
            yield pytest.param(tuple(tuple(scale * x for x in row) for row in gram), id=f"{name}({scale})")
    yield pytest.param(linalg.freeze(FUZZ_GRAM), id="fuzz")


@pytest.mark.parametrize("gram", oracle_grams())
def test_det_inverse_definiteness_against_sympy(gram):
    expected = sympy_matrix(gram)
    assert linalg.det(gram) == expected.det()
    assert linalg.inverse(gram) == tuple(tuple(from_sympy(x) for x in row) for row in expected.inv().tolist())
    assert linalg.is_positive_definite(gram) == expected.is_positive_definite
