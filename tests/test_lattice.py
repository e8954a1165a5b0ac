import json
import random
import re
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from orthoforms import (
    DegenerateLatticeError,
    Lattice,
    NotPositiveDefiniteError,
    builtin_lattice,
    builtin_names,
    discriminant_group,
    lattice_from_json,
    rescale,
    short_vectors,
)
from orthoforms import linalg
from orthoforms.lattice import _json_q

from helpers import direct_sum, div, mat_mul, reflect


A1 = builtin_lattice("A1")
A2 = builtin_lattice("A2")
E8 = builtin_lattice("E8")
D4 = builtin_lattice("D4")


class TestLatticeBasics:
    def test_dual_basis_a1(self):
        assert A1.dual_basis() == ((Q(1, 2),),)

    def test_dual_basis_a2(self):
        assert A2.dual_basis() == ((Q(2, 3), Q(1, 3)), (Q(1, 3), Q(2, 3)))

    def test_dual_basis_identity_gram(self):
        lat = Lattice(((1, 0), (0, 1)))
        assert lat.dual_basis() == ((Q(1), Q(0)), (Q(0), Q(1)))

    def test_dual_times_gram_is_identity(self):
        for name in ("A3", "D5", "E7"):
            lat = builtin_lattice(name)
            assert mat_mul(lat.dual_basis(), lat.gram) == tuple(
                tuple(int(i == j) for j in range(lat.rank)) for i in range(lat.rank)
            )

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateLatticeError):
            Lattice(((1, 1), (1, 1)))

    def test_asymmetric_rejected_with_entry_pair(self):
        with pytest.raises(ValueError, match=r"\(0,1\)"):
            Lattice(((2, 1), (0, 2)))

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError):
            Lattice(((2.0, 0), (0, 2)))

    def test_bool_rejected(self):
        with pytest.raises(ValueError, match=r"gram entry \(0,0\) is not an integer"):
            Lattice(((True,),))
        with pytest.raises(ValueError, match=r"gram entry \(1,1\) is not an integer"):
            Lattice(((2, 0), (0, False)))

    @pytest.mark.parametrize("gram", [[[2, 1], [1, 2]], [(2, 1), (1, 2)], ([2, 1], (1, 2))], ids=["lists", "list", "list-row"])
    def test_rows_that_are_not_tuples_rejected(self, gram):
        with pytest.raises(ValueError, match=r"^gram matrix must be a tuple of tuple rows$"):
            Lattice(gram)

    @pytest.mark.parametrize("label", [[1], 5, True], ids=["list", "int", "bool"])
    def test_label_that_is_not_a_string_rejected(self, label):
        with pytest.raises(ValueError, match=r"^'label' must be a string or null, got " + re.escape(repr(label)) + "$"):
            Lattice(((2,),), label)

    def test_builtin_determinants(self):
        expected = {"A1": 2, "A2": 3, "A7": 8, "D4": 4, "D8": 4, "E6": 3, "E7": 2, "E8": 1, "4A1": 16}
        for name, det in expected.items():
            assert builtin_lattice(name).determinant == det

    def test_builtin_even(self):
        for name in builtin_names():
            assert builtin_lattice(name).is_even

    def test_builtin_names(self):
        names = [
            "A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8",
            "D4", "D5", "D6", "D7", "D8",
            "E6", "E7", "E8",
            "2A1", "3A1", "4A1", "5A1", "6A1", "7A1", "8A1",
        ]
        assert builtin_names() == names
        lats = [builtin_lattice(name) for name in names]
        assert [lat.label for lat in lats] == names
        assert [lat.rank for lat in lats] == [*range(1, 9), *range(4, 9), 6, 7, 8, *range(2, 9)]


class TestDiscriminantGroup:
    def test_a1(self):
        d = discriminant_group(A1)
        assert d.elementary_divisors == (2,)
        assert d.order == 2

    def test_a2(self):
        d = discriminant_group(A2)
        assert d.elementary_divisors == (3,)
        assert d.order == 3

    def test_e8_trivial(self):
        d = discriminant_group(E8)
        assert d.elementary_divisors == ()
        assert d.order == 1
        assert d.level == 1

    def test_d4(self):
        d = discriminant_group(D4)
        assert d.elementary_divisors == (2, 2)
        assert d.order == 4
        assert d.level == 2

    def test_levels(self):
        assert discriminant_group(A1).level == 4
        assert discriminant_group(A2).level == 3
        assert discriminant_group(builtin_lattice("A3")).level == 8

    def test_smith_order_checked_against_det(self, monkeypatch):
        # A2's Smith form is (1, 3); a faked (1, 1) has order 1, not |det| = 3
        monkeypatch.setattr(linalg, "smith_normal_form", lambda gram: [1, 1])
        with pytest.raises(AssertionError, match=r"^Smith form order disagrees with \|det\|$"):
            discriminant_group(A2)

    def test_order_matches_det_for_all_builtins(self):
        for name in builtin_names():
            lat = builtin_lattice(name)
            assert discriminant_group(lat).order == abs(lat.determinant)


class TestDivAndRescale:
    def test_div_a1(self):
        assert div(A1, (1,)) == 2
        assert div(A1, (2,)) == 4

    def test_div_a2_simple_root(self):
        assert div(A2, (1, 0)) == 1

    def test_div_scales_linearly(self):
        rng = random.Random(1)
        for _ in range(20):
            v = tuple(rng.randint(-3, 3) for _ in range(4))
            if not any(v):
                continue
            k = rng.choice([-3, -2, 2, 5])
            assert div(D4, tuple(k * x for x in v)) == abs(k) * div(D4, v)

    def test_div_zero_vector(self):
        with pytest.raises(ValueError):
            div(A2, (0, 0))

    def test_rescale(self):
        assert rescale(A1, 2).gram == ((4,),)
        assert rescale(A2, -1).gram == ((-2, 1), (1, -2))
        assert rescale(rescale(A2, 2), 3).gram == rescale(A2, 6).gram

    def test_rescale_zero(self):
        with pytest.raises(ValueError):
            rescale(A1, 0)

    def test_direct_sum(self):
        lat = direct_sum(A1, A1)
        assert lat.gram == ((2, 0), (0, 2))


class TestShortVectors:
    def test_a1(self):
        assert short_vectors(A1, 2) == [(-1,), (1,)]

    def test_d4_norm2(self):
        assert len(short_vectors(D4, 2)) == 24

    def test_e8_norm2(self):
        assert len(short_vectors(E8, 2)) == 240

    def test_closed_under_negation_no_duplicates_sorted(self):
        vs = short_vectors(builtin_lattice("A3"), 4)
        assert len(set(vs)) == len(vs)
        assert sorted(vs) == vs
        assert all(tuple(-x for x in v) in set(vs) for v in vs)

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            short_vectors(Lattice(((2, 0), (0, -2))), 2)

    def test_odd_bound_rejected(self):
        with pytest.raises(ValueError):
            short_vectors(A1, 3)

    def test_rank_past_ten_rejected(self):
        # 11A1 has its 22 roots at norm 2, which the enumeration would find
        eleven = Lattice(tuple(tuple(2 * (i == j) for j in range(11)) for i in range(11)))
        with pytest.raises(ValueError, match=r"^short vector enumeration is limited to rank <= 10$"):
            short_vectors(eleven, 2)

    def test_matches_naive_box_enumeration(self):
        # independent oracle: box bound from the dual Gram diagonal
        for name, bound in (("A2", 6), ("D4", 4)):
            lat = builtin_lattice(name)
            dual = lat.dual_basis()
            radius = max(int((dual[i][i] * bound) ** 0.5) + 1 for i in range(lat.rank))
            box = []

            def rec(i, coords):
                if i == lat.rank:
                    v = tuple(coords)
                    if any(v) and lat.norm(v) <= bound:
                        box.append(v)
                    return
                for x in range(-radius, radius + 1):
                    rec(i + 1, coords + [x])

            rec(0, [])
            assert sorted(box) == short_vectors(lat, bound)


class TestReflect:
    def test_reflect_root_negates(self):
        assert reflect(A2, (1, 0), (1, 0)) == (-1, 0)

    def test_orthogonal_vector_fixed(self):
        # (1,2) is orthogonal to (0,1)... compute instead: pick x with (x,r)=0
        r = (1, 0)
        x = (1, 2)
        assert A2.pairing(x, r) == 0
        assert reflect(A2, x, r) == (Q(1), Q(2))

    def test_involution_and_isometry(self):
        rng = random.Random(5)
        roots = short_vectors(D4, 2)
        for _ in range(50):
            x = tuple(rng.randint(-4, 4) for _ in range(4))
            r = rng.choice(roots)
            y = reflect(D4, x, r)
            assert D4.norm(y) == D4.norm(x)
            assert reflect(D4, y, r) == tuple(Q(c) for c in x)

    def test_isotropic_rejected(self):
        lat = Lattice(((0, 1), (1, 0)))
        with pytest.raises(ValueError):
            reflect(lat, (1, 0), (1, 0))


class TestJson:
    def test_round_trip(self):
        doc = {"label": "A2", "gram": [[2, -1], [-1, 2]]}
        again = lattice_from_json(json.loads(json.dumps(doc)))
        assert again.gram == A2.gram
        assert again.label == A2.label

    def test_bad_document(self):
        with pytest.raises(ValueError):
            lattice_from_json({"label": "x"})

    @pytest.mark.parametrize("text", ["1e4299", "-2.5E-4300", "3e+0_4299", "7/2", "1e0"])
    def test_exponent_up_to_the_bound_is_parsed(self, text):
        assert _json_q(text, "x") == Q(text)

    @pytest.mark.parametrize(
        "value",
        ["1e4300", "3e+0_4300", "12345e4296", "-1e-4300", 10**4300],
        ids=["1e4300", "3e+0_4300", "12345e4296", "-1e-4300", "int 10**4300"],
    )
    def test_more_digits_than_print_is_refused(self, value):
        # within the exponent bound, but a numerator or denominator of 4301 digits, which q_str cannot print
        with pytest.raises(ValueError, match="^x has a numerator or denominator of more than 4300 digits$"):
            _json_q(value, "x")

    @pytest.mark.parametrize("text", ["1e4301", "-1e-4301", "1E4_301", "1e000000000000004301", "1e" + "9" * 5000])
    def test_exponent_beyond_the_bound_is_refused(self, text):
        with pytest.raises(ValueError, match="x has a decimal exponent beyond 4300 in absolute value"):
            _json_q(text, "x")


# ---------------------------------------------------------------------------
# the dual-lattice criterion of linalg._int_image against its Fraction definition
# ---------------------------------------------------------------------------

IN_DUAL_LATTICES = ["A1", "A2", "A3", "D4", "D5", "E6", "E7", "E8", "3A1", "A2(3)", "D4(2)"]


@st.composite
def lattices_and_vectors(draw):
    """A built-in lattice and a rational vector: a dual combination plus noise."""
    lat = builtin_lattice(draw(st.sampled_from(IN_DUAL_LATTICES)))
    n = lat.rank
    weights = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    dual = lat.dual_basis()
    v = [sum(w * row[i] for w, row in zip(weights, dual)) for i in range(n)]
    den = draw(st.sampled_from([1, 2, 3, 4, 6]))
    noise = [Q(k, den) for k in draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))]
    if draw(st.booleans()):
        v = [x + y for x, y in zip(v, noise)]
    if draw(st.booleans()):
        v = [Q(x).numerator if Q(x).denominator == 1 else x for x in v]
    return lat, tuple(v)


@settings(max_examples=300, deadline=None)
@given(lattices_and_vectors())
def test_in_dual_against_fraction_definition(case):
    lat, v = case
    expected = all(Q(x).denominator == 1 for x in lat.gram_times(tuple(Q(c) for c in v)))
    assert (linalg._int_image(lat.gram, v)[1] == 1) is expected
