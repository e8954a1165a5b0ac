import dataclasses
import hashlib
import json
import math
import random
import re
import time
from fractions import Fraction as Q
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from orthoforms import builtin_lattice
from orthoforms import series as series_mod
from orthoforms.series import (
    Monomial,
    ProductFactor,
    SeriesOverflowError,
    TruncatedSeries,
    WeightedSeries,
    ZeroSeriesError,
    expand_product,
    jacobian,
    log_derivative_residual,
    monomial,
    one,
    principal_block_residual,
    product_factors,
    series_from_json,
    series_to_json,
    syzygy_sum,
    zero,
)
from orthoforms.weyl import WeylVector

RECT = (Q(4), Q(4))


def key(a, l, t):
    return (Q(a), tuple(Q(x) for x in l), Q(t))


def series(rank, entries, rect=RECT, prefactor=None):
    return TruncatedSeries(rank, entries, rect, prefactor)


def random_series(rng, rank, rect=RECT, nterms=5, boundary_regular=False, unit=False):
    zero_l = tuple(Q(0) for _ in range(rank))
    terms = {}
    if unit:
        terms[key(0, zero_l, 0)] = Q(rng.randint(1, 5))
    for _ in range(nterms):
        a, t = rng.randint(0, 3), rng.randint(0, 3)
        if boundary_regular and (a == 0 or t == 0):
            l = zero_l
        else:
            l = tuple(Q(rng.randint(-2, 2)) for _ in range(rank))
        c = Q(rng.randint(-4, 4), rng.randint(1, 3))
        k = key(a, l, t)
        terms[k] = terms.get(k, Q(0)) + c
    return TruncatedSeries(rank, {k: v for k, v in terms.items() if v}, rect)


class TestArithmetic:
    def test_mul_identity(self):
        rng = random.Random(0)
        x = random_series(rng, 2)
        assert x * one(2, RECT) == x

    def test_monomial_product(self):
        q1 = monomial(1, RECT, 1, (0,), 0)
        xi1 = monomial(1, RECT, 0, (0,), 1)
        assert dict((q1 * xi1).terms) == {key(1, (0,), 1): Q(1)}

    def test_geometric_cancellation(self):
        rect = (Q(5), Q(5))
        one_minus_q = series(1, {key(0, (0,), 0): 1, key(1, (0,), 0): -1}, rect)
        geo = series(1, {key(a, (0,), 0): 1 for a in range(6)}, rect)
        assert one_minus_q * geo == one(1, rect)

    def test_ring_axioms_random(self):
        rng = random.Random(3)
        for _ in range(15):
            x = random_series(rng, 1)
            y = random_series(rng, 1)
            z = random_series(rng, 1)
            assert x + y == y + x
            assert (x + y) + z == x + (y + z)
            assert x * y == y * x
        for _ in range(8):
            x = random_series(rng, 2, nterms=3)
            y = random_series(rng, 2, nterms=3)
            z = random_series(rng, 2, nterms=3)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z

    def test_prefactor_merging(self):
        x = series(1, {key(0, (0,), 0): 1}, prefactor=Monomial(Q(2), (Q(0),), Q(1)))
        y = series(1, {key(0, (0,), 0): 1}, prefactor=Monomial(Q(1), (Q(1),), Q(0)))
        total = x + y
        absolute = total.absolute_terms()
        assert absolute[key(2, (0,), 1)] == 1
        assert absolute[key(1, (1,), 0)] == 1

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            one(1, RECT) + one(2, RECT)

    def test_product_rank_mismatch(self):
        # both have the single key 0 once packed, so the loop alone would return a series
        with pytest.raises(ValueError, match=r"^series rank mismatch$"):
            one(1, RECT) * one(2, RECT)

    def test_equal_to_no_other_type(self):
        x = one(1, RECT)
        assert (x == 1) is False and x != 1 and x != x.terms

    def test_denominator_validation(self):
        with pytest.raises(ValueError):
            TruncatedSeries(1, {key(Q(1, 7), (0,), 0): 1}, RECT)

    def test_prefactor_off_den_grid_rejected(self):
        for a, c in ((Q(1, 7), Q(0)), (Q(0), Q(1, 48))):
            with pytest.raises(ValueError, match=r"prefactor exponents .* not in \(1/24\)Z"):
                TruncatedSeries(1, {}, RECT, Monomial(a, (Q(0),), c), 24)
        # zeta exponents are unrestricted; ints are accepted as exponents
        x = TruncatedSeries(1, {}, RECT, Monomial(Q(1, 8), (Q(1, 7),), Q(5, 12)), 24)
        assert x.prefactor.a == Q(1, 8)
        assert TruncatedSeries(1, {}, RECT, Monomial(2, (0,), 1), 1).prefactor.c == 1


class TestFractionView:
    def test_built_only_on_access(self):
        rng = random.Random(5)
        x, y = random_series(rng, 2), random_series(rng, 2)
        z = x * y - x
        z.is_zero, z.leading_order(), z.rect, hash(z), z == x * y - x
        assert z._view is None
        assert z.terms is z.terms and z._view is not None
        with pytest.raises(TypeError):
            z.terms[key(0, (0, 0), 0)] = Q(1)


class TestDerive:
    def test_examples(self):
        q3 = monomial(1, RECT, 3, (0,), 0)
        assert dict(q3.derive("tau").terms) == {key(3, (0,), 0): Q(3)}
        assert one(1, RECT).derive("omega").is_zero
        m = series(1, {key(1, (Q(1, 2),), 1): 1})
        assert dict(m.derive("z1").terms) == {key(1, (Q(1, 2),), 1): Q(1, 2)}

    def test_prefactor_participates(self):
        x = series(1, {key(0, (0,), 0): 1}, prefactor=Monomial(Q(3), (Q(0),), Q(5)))
        assert dict(x.derive("tau").terms) == {key(0, (0,), 0): Q(3)}
        assert dict(x.derive("omega").terms) == {key(0, (0,), 0): Q(5)}

    def test_product_rule_and_commutation(self):
        rng = random.Random(9)
        for _ in range(10):
            f = random_series(rng, 2, nterms=4)
            g = random_series(rng, 2, nterms=4)
            for axis in ("tau", "z1", "z2", "omega"):
                assert (f * g).derive(axis) == f.derive(axis) * g + f * g.derive(axis)
            assert f.derive("tau").derive("omega") == f.derive("omega").derive("tau")
            assert f.derive("z1").derive("z2") == f.derive("z2").derive("z1")

    def test_invalid_axis(self):
        with pytest.raises(ValueError):
            one(1, RECT).derive("z2")
        with pytest.raises(ValueError):
            one(1, RECT).derive("nu")


class TestLeadingOrderAndInvert:
    def test_leading(self):
        x = series(1, {key(2, (0,), 3): 1, key(5, (0,), 3): 1})
        assert x.leading_order() == (2, 3)

    def test_prefactor_included(self):
        x = series(
            1, {key(0, (0,), 0): 7}, prefactor=Monomial(Q(1, 2), (Q(0),), Q(1, 2))
        )
        assert x.leading_order() == (Q(1, 2), Q(1, 2))

    def test_zero_series_signals(self):
        with pytest.raises(ZeroSeriesError, match="rectangle order"):
            zero(1, RECT).leading_order()


def weyl(rank, a=0, c=0):
    return WeylVector(Q(a), tuple(Q(0) for _ in range(rank)), Q(c))


class TestExpandProduct:
    def test_empty_input_gives_one(self):
        g = expand_product({}, weyl(1), (Q(2), Q(2)), 1)
        assert dict(g.terms) == {key(0, (0,), 0): Q(1)}

    def test_single_boundary_factor_slice(self):
        # the (a, t) = (0, 0) slice of the product is exactly 1 - zeta^(l0)
        g = expand_product({(0, (Q(-1),)): 1}, weyl(1), (Q(2), Q(2)), 1)
        slice00 = {k: v for k, v in g.terms.items() if k[0] == 0 and k[2] == 0}
        assert slice00 == {key(0, (0,), 0): Q(1), key(0, (-1,), 0): Q(-1)}

    def test_negative_boundary_exponent_rejected(self):
        with pytest.raises(ValueError, match="toric boundary"):
            expand_product({(0, (Q(-1),)): -1}, weyl(1), (Q(2), Q(2)), 1)

    def test_principal_part_gives_debt_terms(self):
        # factors (1 - q^n)^24, (1 - xi^m)^24 and (1 - q^-1 xi)
        coeffs = {(-1, (Q(0),)): 1, (0, (Q(0),)): 24}
        g = expand_product(coeffs, weyl(1, a=1), (Q(2), Q(2)), 1)
        assert g.terms[key(-1, (0,), 1)] == -1
        assert g.terms[key(1, (0,), 0)] == -24

    def test_negative_a_max_keeps_the_debt_terms(self):
        # q^-1 zeta xi needs the unit term times the second factor's u, so
        # no term may be cut at a <= a_max while the n < 0 factors go in
        coeffs = {(-1, (Q(0),)): 1, (-1, (Q(1),)): 1}
        g = expand_product(coeffs, weyl(1), (Q(-1), Q(2)), 1)
        wide = expand_product(coeffs, weyl(1), (Q(4), Q(2)), 1)
        assert dict(g.terms) == {k: c for k, c in wide.terms.items() if k[0] <= -1}
        assert g.terms[key(-1, (1,), 1)] == -1

    def test_moderate_boundary_block_succeeds(self):
        coeffs = {}
        for i in range(4):
            for s in (1, -1):
                l = [Q(0)] * 4
                l[i] = Q(s)
                coeffs[(0, tuple(l))] = 1
        g = expand_product(coeffs, weyl(4), (Q(1), Q(1)), 4)
        assert g.terms[(Q(0), (Q(0),) * 4, Q(0))] == 1

    def test_overflow_guard_triggers(self):
        coeffs = {}
        for i in range(10):
            coeffs[(0, (Q(-i - 1),))] = 3
            coeffs[(0, (Q(i + 1),))] = 3
        with mock.patch.object(series_mod, "DEFAULT_TERM_CAP", 50), pytest.raises(SeriesOverflowError):
            expand_product(coeffs, weyl(1), (Q(1), Q(1)), 1)

    def test_boundary_overflow_message_is_a_bound(self):
        # A6's 21 boundary factors have 7! = 5040 zeta monomials in all; the
        # guard trips on the bound 2^18 after 18 of them, before any product
        phi, wv = acceptance_dataset("A6")
        with pytest.raises(SeriesOverflowError) as exc:
            expand_product(phi.coefficient_table(), wv, (Q(1), Q(1)), 6)
        assert str(exc.value) == (
            "the bound prod (exponent + 1) on the zeta monomials of the m = n = 0 factor block "
            "is 262144 over its first 18 factors, which exceeds the term cap of 200000"
        )

    @pytest.mark.parametrize("f, digits", [(10**4300 - 1, 4301), (10**4299, 4300)], ids=["10^4300-1", "10^4299"])
    def test_boundary_bound_too_long_to_print_is_named_by_its_size(self, f, digits):
        # str() refuses the first bound, 10^4300, and would spell out the second in 4300 digits
        coeffs = {(0, (Q(1, 2),)): f, (0, (Q(-1, 2),)): f}
        with pytest.raises(SeriesOverflowError) as exc:
            expand_product(coeffs, weyl(1), (Q(1), Q(1)), 1)
        assert str(exc.value) == (
            "the bound prod (exponent + 1) on the zeta monomials of the m = n = 0 factor block "
            f"is a number of {digits} digits over its first 1 factors, which exceeds the term cap of 200000"
        )

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 4000).flatmap(lambda k: st.integers(1, 10**k)))
    def test_digits_is_the_length_of_the_decimal_string(self, n):
        assert series_mod._digits(n) == len(str(n))

    def test_digits_at_every_power_of_ten(self):
        # 10^k - 1, 10^k and 10^k + 1 for every k up to 4000: the boundaries where a count off by one shows
        p = 1
        for k in range(4001):
            assert series_mod._digits(p) == series_mod._digits(p + 1) == k + 1
            assert k == 0 or series_mod._digits(p - 1) == k
            p *= 10

    def test_overflow_message_names_the_factor(self):
        phi, wv = acceptance_dataset("G2")
        with mock.patch.object(series_mod, "DEFAULT_TERM_CAP", 500), pytest.raises(SeriesOverflowError) as exc:
            expand_product(phi.coefficient_table(), wv, (Q(3), Q(3)), 2)
        message = str(exc.value)
        assert "Fraction(" not in message
        assert message == (
            "expansion exceeded 500 stored terms at factor 16 of 124: "
            "(1 - q^1 zeta^(1/3,-1/3) xi^0)^1"
        )


class TestLogDerivativeOracle:
    def small_dataset(self):
        # A2 root data: f(0, l) = 1 on six dual roots, k solved to 9
        from orthoforms import build_dual_set, qzero_from_dual_sets, realize, solve_weight, weyl_vector

        comp = realize("A", 2, 1)
        phi = qzero_from_dual_sets(comp.lattice, [build_dual_set(comp)])
        phi = phi.with_weight(solve_weight(phi))
        return phi, weyl_vector(phi)

    def test_identity_holds(self):
        phi, wv = self.small_dataset()
        res = log_derivative_residual(
            phi.coefficient_table(), wv, (Q(2), Q(2)), phi.lattice.rank
        )
        assert res.is_zero

    def test_factorization_holds(self):
        phi, wv = self.small_dataset()
        res = principal_block_residual(
            phi.coefficient_table(), wv, (Q(2), Q(2)), phi.lattice.rank
        )
        assert res.is_zero

    def test_identity_detects_tampered_expansion(self):
        # the two sides agree for a correct expansion; flipping one stored
        # coefficient of the expansion must break the cleared identity
        from orthoforms.series import product_factors

        phi, wv = self.small_dataset()
        table = {k: v for k, v in phi.coefficient_table().items() if k[0] >= 0}
        rect = (Q(2), Q(2))
        rank = phi.lattice.rank
        g0 = expand_product(table, wv, rect, rank)
        xi_factors = [f for f in product_factors(table, rect, rank) if f.m > 0]
        p = one(rank, rect)
        for fac in xi_factors:
            p = p * (one(rank, rect) - monomial(rank, rect, fac.n, fac.l, fac.m))
        rhs_bracket = p.scale(wv.c)
        for fac in xi_factors:
            u = monomial(rank, rect, fac.n, fac.l, fac.m)
            geo = zero(rank, rect)
            j = 0
            while j * fac.m <= rect[1]:
                geo = geo + monomial(
                    rank, rect, j * fac.n, tuple(j * x for x in fac.l), j * fac.m
                )
                j += 1
            rhs_bracket = rhs_bracket + (u * (p * geo)).scale(Q(-fac.m * fac.exponent))
        assert (g0.derive("omega") * p - g0 * rhs_bracket).is_zero
        tampered_terms = dict(g0.terms)
        bump = (Q(1), tuple(Q(0) for _ in range(rank)), Q(1))
        tampered_terms[bump] = tampered_terms.get(bump, Q(0)) + 1
        g_bad = TruncatedSeries(rank, tampered_terms, g0.rect, g0.prefactor, g0.den)
        assert not (g_bad.derive("omega") * p - g_bad * rhs_bracket).is_zero

    @pytest.mark.parametrize(
        "oracle, target",
        [(log_derivative_residual, "_expand"), (principal_block_residual, "expand_product")],
        ids=["log_derivative_residual", "principal_block_residual"],
    )
    def test_oracles_detect_tampered_expansion(self, monkeypatch, oracle, target):
        # bump one coefficient of the expansion the oracle checks: for
        # log_derivative_residual its n >= 0 block, expanded by _expand from the
        # factor list it also reads, and for principal_block_residual the full
        # expansion, not the n >= 0 block
        phi, wv = self.small_dataset()
        table, rank = phi.coefficient_table(), phi.lattice.rank
        expand = getattr(series_mod, target)

        def tampered(first, *args, **kwargs):
            g = expand(first, *args, **kwargs)
            if oracle is principal_block_residual and first is not table:
                return g
            terms = dict(g.terms)
            bump = (Q(1), (Q(0),) * rank, Q(1))
            terms[bump] = terms.get(bump, Q(0)) + 1
            return TruncatedSeries(rank, terms, g.rect, g.prefactor, g.den)

        assert oracle(table, wv, (Q(2), Q(2)), rank).is_zero
        monkeypatch.setattr(series_mod, target, tampered)
        assert not oracle(table, wv, (Q(2), Q(2)), rank).is_zero

    def test_one_series_product(self, monkeypatch):
        calls = []
        mul = TruncatedSeries.__mul__

        def counting(x, y):
            calls.append(1)
            return mul(x, y)

        monkeypatch.setattr(TruncatedSeries, "__mul__", counting)
        phi, wv = acceptance_dataset("G2")
        assert log_derivative_residual(phi.coefficient_table(), wv, (Q(2), Q(2)), 2).is_zero
        assert len(calls) == 1


class TestJacobian:
    def monomials(self):
        return [
            WeightedSeries(one(1, RECT), 1),
            WeightedSeries(monomial(1, RECT, 1, (0,), 0), 1),
            WeightedSeries(monomial(1, RECT, 0, (1,), 0), 1),
            WeightedSeries(monomial(1, RECT, 0, (0,), 1), 1),
        ]

    def test_monomial_example(self):
        j = jacobian(self.monomials())
        assert dict(j.terms) == {key(1, (1,), 1): Q(1)}

    def test_duplicate_column_vanishes(self):
        forms = self.monomials()
        j = jacobian([forms[0], forms[0], forms[2], forms[3]])
        assert j.is_zero

    def test_constant_weight_zero_vanishes(self):
        forms = self.monomials()
        forms[0] = WeightedSeries(one(1, RECT), 0)
        # weight-zero constant: first row entry 0, derivative rows 0
        assert jacobian(forms).is_zero

    def test_form_count_enforced(self):
        with pytest.raises(ValueError, match="forms"):
            jacobian(self.monomials()[:3])

    def test_rank_mismatch(self):
        bad = self.monomials()[:3] + [WeightedSeries(one(2, RECT), 1)]
        with pytest.raises(ValueError):
            jacobian(bad)

    def test_antisymmetry(self):
        rng = random.Random(21)
        for s in (1, 2):
            forms = [
                WeightedSeries(random_series(rng, s, nterms=4), rng.randint(1, 6))
                for _ in range(s + 3)
            ]
            w = 3
            f0 = WeightedSeries(forms[0].series, w)
            f1 = WeightedSeries(forms[1].series, w)
            rest = forms[2:]
            assert jacobian([f0, f1] + rest) == jacobian([f1, f0] + rest).scale(-1)

    def test_algebraic_dependence_vanishes(self):
        rng = random.Random(22)
        for s in (1, 2):
            f = random_series(rng, s, nterms=3, unit=True)
            others = [
                WeightedSeries(random_series(rng, s, nterms=3), rng.randint(1, 5))
                for _ in range(s + 1)
            ]
            forms = [WeightedSeries(f, 2), WeightedSeries(f * f, 4)] + others
            assert jacobian(forms).is_zero

    def test_leading_order_bound(self):
        rng = random.Random(23)
        nonzero = 0
        for s in (1, 2):
            for _ in range(10):
                forms = [
                    WeightedSeries(
                        random_series(rng, s, nterms=4, boundary_regular=True, unit=True),
                        rng.randint(1, 6),
                    )
                    for _ in range(s + 3)
                ]
                j = jacobian(forms)
                if not j.is_zero:
                    nonzero += 1
                    lead = j.leading_order()
                    assert lead[0] >= s + 1 and lead[1] >= s + 1
        assert nonzero >= 5


class TestSyzygy:
    def test_monomials(self):
        rng = random.Random(31)
        for s in (1, 2):
            forms = []
            for _ in range(s + 4):
                a, t = rng.randint(0, 2), rng.randint(0, 2)
                l = tuple(Q(rng.randint(-1, 1)) for _ in range(s))
                forms.append(
                    WeightedSeries(monomial(s, RECT, a, l, t), rng.randint(1, 5))
                )
            assert syzygy_sum(forms).is_zero

    def test_duplicate_forms(self):
        rng = random.Random(32)
        f = random_series(rng, 1, nterms=3)
        forms = [WeightedSeries(f, 2)] * 2 + [
            WeightedSeries(random_series(rng, 1, nterms=3), rng.randint(1, 4))
            for _ in range(3)
        ]
        assert syzygy_sum(forms).is_zero

    def test_random_dense(self):
        rng = random.Random(33)
        for _ in range(5):
            forms = [
                WeightedSeries(random_series(rng, 1, nterms=4), rng.randint(1, 6))
                for _ in range(5)
            ]
            assert syzygy_sum(forms).is_zero

    def test_form_count(self):
        with pytest.raises(ValueError):
            syzygy_sum([WeightedSeries(one(1, RECT), 1)] * 4)

    def test_first_row_step_term_cap(self):
        # every minor reaches at most 11 keys and the sum along the first row 23,
        # so a cap of 11 is first exceeded by that last Laplace step
        entries = [[(0, 0, 0), (1, 1, 1)], [(0, 0, 0), (1, -1, 2)], [(0, 0, 0), (2, 0, 1)],
                   [(0, 1, 0), (1, 0, 1)], [(0, 0, 1), (1, 1, 0)]]
        forms = [
            WeightedSeries(series(1, {key(a, (l,), t): 1 for a, l, t in terms}, (Q(9), Q(9))), k)
            for k, terms in enumerate(entries, 1)
        ]
        with mock.patch.object(series_mod, "DEFAULT_TERM_CAP", 11):
            match = r"^sum of 5 products on rect \(9, 9\) exceeded the cap of 11 stored terms$"
            with pytest.raises(SeriesOverflowError, match=match):
                syzygy_sum(forms)
        with mock.patch.object(series_mod, "DEFAULT_TERM_CAP", 23):
            assert syzygy_sum(forms).is_zero


class TestJson:
    def test_round_trip(self):
        rng = random.Random(41)
        x = random_series(rng, 2, nterms=6)
        x = TruncatedSeries(
            2, x.terms, x.rect, Monomial(Q(31), (Q(1, 2), Q(0)), Q(30)), x.den
        )
        doc = json.loads(json.dumps(series_to_json(x)))
        assert series_from_json(doc) == x

    def test_schema_fields(self):
        doc = series_to_json(one(1, RECT))
        assert doc["rank"] == 1 and doc["den"] == 24
        assert doc["prefactor"]["A"] == "0/1"
        assert doc["rect"] == ["4/1", "4/1"]

    @pytest.mark.parametrize(
        "path, value, named",
        [
            (("terms", 0, "c"), 0.1, "terms[0].c"),
            (("terms", 0, "c"), True, "terms[0].c"),
            (("terms", 0, "l", 0), 2.0, "terms[0].l entry"),
            (("terms", 0, "a"), None, "terms[0].a"),
            (("prefactor", "A"), False, "prefactor A"),
            (("rect", 0), math.inf, "rect entry"),
            (("rect", 1), [4], "rect entry"),
        ],
    )
    def test_only_strings_and_integers_are_rationals(self, path, value, named):
        doc = json.loads(json.dumps(series_to_json(monomial(1, RECT, 1, (0,), 2, 3))))
        target = doc
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] = value
        with pytest.raises(ValueError, match=rf"^{re.escape(named)} must be a rational 'p/q', got "):
            series_from_json(json.loads(json.dumps(doc)))

    @pytest.mark.parametrize("field", ["rank", "rect"])
    def test_missing_field_is_named(self, field):
        doc = series_to_json(monomial(1, RECT, 1, (0,), 2, 3))
        del doc[field]
        with pytest.raises(ValueError, match=rf"^series document must contain a '{field}' field$"):
            series_from_json(doc)

    def test_given_b_builds_no_default(self, deadline):
        # a default B of 2**62 entries would not fit in memory
        with deadline(10), pytest.raises(ValueError, match=rf"^prefactor B must be a list of length {2**62}, got \[\]$"):
            series_from_json({"rank": 2**62, "rect": ["1/1", "1/1"], "prefactor": {"B": []}})

    def test_huge_rank_without_b_is_refused(self, deadline):
        # a default B of 2**62 entries would not fit in memory; the rank is refused first
        with deadline(10), pytest.raises(ValueError, match=rf"^rank must be at most 4096 when prefactor B is omitted, got {2**62}$"):
            series_from_json({"rank": 2**62, "rect": ["1/1", "1/1"]})
        assert series_from_json({"rank": 4096, "rect": ["1/1", "1/1"]}).rank == 4096

    def test_integers_are_rationals(self):
        doc = series_to_json(monomial(1, RECT, 1, (0,), 2, 3))
        doc["terms"][0].update(a=1, l=[0], t=2, c=3)
        doc["rect"] = [4, "4"]
        assert series_from_json(doc) == monomial(1, RECT, 1, (0,), 2, 3)


# ---------------------------------------------------------------------------
# the integer kernel against a naive Fraction-keyed convolution
# ---------------------------------------------------------------------------

def naive_convolve(xs, ys, keep):
    """All pairs of Fraction terms whose sum satisfies keep(a, t).

    Returns the sums per key, zero sums included, exactly as accumulated.
    """
    out = {}
    for (a1, l1, t1), c1 in xs:
        for (a2, l2, t2), c2 in ys:
            a, t = a1 + a2, t1 + t2
            if keep(a, t):
                k = (a, tuple(x + y for x, y in zip(l1, l2)), t)
                out[k] = out.get(k, Q(0)) + c1 * c2
    return out


def nonzero(terms):
    return {k: v for k, v in terms.items() if v}


ZETA = st.sampled_from([1, 2, 3, 6]).flatmap(
    lambda d: st.integers(-2 * d, 2 * d).map(lambda n: Q(n, d))
)
COEFF = st.builds(Q, st.integers(-9, 9), st.integers(1, 6))


# rectangle bounds, some of them off the (1/24)Z grid the exponents live on
BOUND = st.sampled_from([24, 48, 7]).flatmap(
    lambda d: st.integers(0, 3 * d).map(lambda n: Q(n, d))
)


@st.composite
def fractional_series(draw, rank):
    """(series, its drawn rect): terms with a, t in (1/24)Z, negative a allowed, some exactly on the rectangle."""
    a_max, t_max = draw(BOUND), draw(BOUND)

    def exponent(bound, lo):
        grid = st.integers(lo, 72).map(lambda n: Q(n, 24))
        return st.one_of(st.just(bound), grid) if 24 % bound.denominator == 0 else grid

    entries = draw(
        st.lists(
            st.tuples(exponent(a_max, -48), st.tuples(*[ZETA] * rank), exponent(t_max, 0), COEFF),
            max_size=7,
        )
    )
    terms = {}
    for a, l, t, c in entries:
        terms[(a, l, t)] = terms.get((a, l, t), Q(0)) + c
    return TruncatedSeries(rank, terms, (a_max, t_max)), (a_max, t_max)


SERIES_PAIRS = st.integers(1, 2).flatmap(
    lambda r: st.tuples(fractional_series(r), fractional_series(r))
)


def naive_product(x, y):
    """The product's rectangle and its accumulated terms, zero sums included."""
    fa1 = min((k[0] for k in x.terms), default=Q(0))
    ft1 = min((k[2] for k in x.terms), default=Q(0))
    fa2 = min((k[0] for k in y.terms), default=Q(0))
    ft2 = min((k[2] for k in y.terms), default=Q(0))
    ra = min(x.rect[0] + fa2, y.rect[0] + fa1)
    rt = min(x.rect[1] + ft2, y.rect[1] + ft1)
    keep = lambda a, t: a <= ra and t <= rt
    return (ra, rt), naive_convolve(x.terms.items(), y.terms.items(), keep)


class TestKernelAgainstNaive:
    @settings(max_examples=150, deadline=None)
    @given(SERIES_PAIRS)
    def test_mul(self, pair):
        (x, x_rect), (y, y_rect) = pair
        # a bound off the grid reads back exactly, not rounded onto it
        assert (x.rect, y.rect) == (x_rect, y_rect)
        product = x * y
        if x.is_zero or y.is_zero:
            assert product.is_zero
            return
        rect, expected = naive_product(x, y)
        assert product.rect == rect
        assert dict(product.terms) == nonzero(expected)
        assert all(
            type(v) is Q for (a, l, t), c in product.terms.items() for v in (a, *l, t, c)
        )

    @settings(max_examples=60, deadline=None)
    @given(SERIES_PAIRS)
    def test_mul_term_cap(self, pair):
        # the cap counts every key a kept pair reaches, zero sums included
        (x, _), (y, _) = pair
        if x.is_zero or y.is_zero:
            return
        _, expected = naive_product(x, y)
        keys = len(expected)
        with mock.patch.object(series_mod, "DEFAULT_TERM_CAP", keys):
            assert dict((x * y).terms) == nonzero(expected)
        if keys:
            with mock.patch.object(series_mod, "DEFAULT_TERM_CAP", keys - 1):
                sizes = f"product of {len(x.terms)} and {len(y.terms)} terms on rect"
                with pytest.raises(SeriesOverflowError, match=f"{sizes} .* cap of {keys - 1} "):
                    x * y


def naive_binomial(e, j):
    num = 1
    for i in range(j):
        num *= e - i
    return (-1) ** j * num // math.factorial(j)


def naive_expand(coeffs, rect, rank, term_cap):
    """expand_product's reduced terms by Fraction convolution, or None on overflow."""
    a_max, t_max = rect
    factors = product_factors(coeffs, rect, rank)
    if len(factors) > term_cap:  # the factors are counted, and refused, before any is built
        return None
    budget = 1
    for fac in factors:
        if fac.m == 0 and fac.n == 0:
            budget *= fac.exponent + 1
            if budget > term_cap:
                return None
    max_neg = max((-f.n for f in factors if f.n < 0), default=0)
    floor = -t_max * max_neg
    keep = lambda a, t: floor <= a <= a_max and t <= t_max
    acc = {(Q(0), (Q(0),) * rank, Q(0)): Q(1)}
    for fac in sorted(factors, key=lambda f: (f.n >= 0, f.m, f.n, f.l)):
        if fac.m > 0:
            j_max = math.floor(t_max / fac.m)
        elif fac.n > 0:
            j_max = math.floor((a_max + t_max * max_neg) / fac.n)
        else:
            j_max = fac.exponent
        poly = [
            (
                (Q(j * fac.n), tuple(j * x for x in fac.l), Q(j * fac.m)),
                Q(naive_binomial(fac.exponent, j)),
            )
            for j in range(j_max + 1)
        ]
        acc = nonzero(naive_convolve(acc.items(), poly, keep))
        if len(acc) > term_cap:
            return None
    return acc


# zeta entries up to 40 in magnitude, so packed digits run wide and carry
WIDE_ZETA = st.one_of(
    ZETA,
    st.sampled_from([1, 2, 3, 6]).flatmap(lambda d: st.integers(-40 * d, 40 * d).map(lambda n: Q(n, d))),
)


@st.composite
def coefficient_tables(draw, rank, principal=0):
    table = {}
    for _ in range(draw(st.integers(0, 3))):
        n = draw(st.integers(-1, 2))
        l = draw(st.tuples(*[WIDE_ZETA] * rank))
        # boundary factors need positive exponents
        table[(n, l)] = draw(st.integers(1, 2) if n == 0 else st.sampled_from([-2, -1, 1, 2, 3]))
    # that many more entries at n = -1, each a factor (1 - q^-1 zeta^l xi)^f
    for _ in range(principal):
        table[(-1, draw(st.tuples(*[WIDE_ZETA] * rank)))] = draw(st.sampled_from([-2, -1, 1, 2, 3]))
    return table


class TestExpandAgainstNaive:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 4).flatmap(lambda r: st.tuples(st.just(r), coefficient_tables(r))),
        st.integers(0, 48).map(lambda n: Q(n, 24)),
        st.integers(0, 48).map(lambda n: Q(n, 24)),
        st.integers(0, 40),
    )
    # three factors under a cap of 2 whose expansion keeps 2 terms: the factor count refuses it
    @example((1, {(1, (Q(0),)): -2, (-1, (Q(0),)): -2, (1, (Q(1),)): -2}), Q(0), Q(1), 2)
    def test_expand_product(self, table_of_rank, a_max, t_max, term_cap):
        rank, table = table_of_rank
        rect = (a_max, t_max)
        wv = WeylVector(Q(1, 24), (Q(1, 2),) * rank, Q(-5, 24))
        expected = naive_expand(table, rect, rank, term_cap)
        with mock.patch.object(series_mod, "DEFAULT_TERM_CAP", term_cap):
            if expected is None:
                with pytest.raises(SeriesOverflowError):
                    expand_product(table, wv, rect, rank)
                return
            g = expand_product(table, wv, rect, rank)
        assert dict(g.terms) == expected
        assert g.rect == rect
        assert g.prefactor == Monomial(wv.a, wv.b, wv.c)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 4).flatmap(lambda r: st.tuples(st.just(r), coefficient_tables(r, principal=2))),
        st.integers(-72, -1).map(lambda n: Q(n, 24)),
        st.integers(24, 48).map(lambda n: Q(n, 24)),
    )
    def test_negative_a_max(self, table_of_rank, a_max, t_max):
        # a rect below a = 0 is the a_max = 0 expansion cut to a <= a_max:
        # the factors it adds all lie above a_max; two or more principal-part
        # factors are where a cut at a_max during the n < 0 block loses terms
        rank, table = table_of_rank
        wv = WeylVector(Q(1, 24), (Q(1, 2),) * rank, Q(-5, 24))
        expected = naive_expand(table, (Q(0), t_max), rank, math.inf)
        g = expand_product(table, wv, (a_max, t_max), rank)
        assert dict(g.terms) == {k: c for k, c in expected.items() if k[0] <= a_max}
        assert g.rect == (a_max, t_max)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 4).flatmap(lambda r: st.tuples(st.just(r), coefficient_tables(r))),
        st.integers(-72, 72).map(lambda n: Q(n, 24)),
        st.integers(-36, 60).map(lambda n: Q(n, 24)),
    )
    # f(0, 1) = f(0, 2) = 1 on rect (2, 0) starts (1 - q zeta)(1 - q zeta^2): the second
    # factor adds row a = 0 into row a = 1 and row 1 into row 2, so it reads row 1 first
    @example((1, {(0, (Q(1),)): 1, (0, (Q(2),)): 1}), Q(2), Q(0))
    def test_multiply_out_box(self, table_of_rank, a_max, t_max):
        # the kernel on its own: it keeps a <= max(floor(a_max), 0) and
        # t <= t_max after every factor, cuts at a <= a_max once at the end,
        # and writes its keys on the grid of den and the z it is given; below
        # t = 0 a first factor drops the term 1, which stays when there is none
        rank, table = table_of_rank
        rect = (a_max, t_max)
        factors = product_factors(table, rect, rank)
        max_neg = max((-f.n for f in factors if f.n < 0), default=0)
        n_hi = math.floor(a_max + t_max * max_neg)
        keep = lambda a, t: a <= max(math.floor(a_max), 0) and t <= t_max
        expected = {(Q(0), (Q(0),) * rank, Q(0)): Q(1)}
        for fac in factors:
            j_max = math.floor(t_max / fac.m) if fac.m else n_hi // fac.n if fac.n else fac.exponent
            poly = [
                ((Q(j * fac.n), tuple(j * x for x in fac.l), Q(j * fac.m)), Q(naive_binomial(fac.exponent, j)))
                for j in range(j_max + 1)
            ]
            expected = nonzero(naive_convolve(expected.items(), poly, keep))
        den, z = 24, 2 * math.lcm(*{x.denominator for f in factors for x in f.l})
        ints = [(f.n, tuple(int(x * z) for x in f.l), f.m, f.exponent) for f in factors]
        terms = series_mod._multiply_out(ints, rank, *rect, den, z, (0, (0,) * rank, 0))
        got = {(Q(a, den), tuple(Q(x, z) for x in l), Q(t, den)): Q(c) for (a, l, t), c in terms.items()}
        assert got == {k: c for k, c in expected.items() if k[0] <= a_max}

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 4).flatmap(lambda r: st.tuples(st.just(r), coefficient_tables(r, principal=2))),
        st.integers(-72, 72).map(lambda n: Q(n, 24)),
        st.integers(0, 72).map(lambda n: Q(n, 24)),
    )
    def test_principal_block(self, table_of_rank, a_max, t_max):
        # principal_block_residual's n < 0 block: the whole product of the
        # binomials (1 - q^n zeta^l xi^m)^f(nm, l), m | nm, with no q bound, cut at the rect
        rank, table = table_of_rank
        neg = {key: f for key, f in table.items() if key[0] < 0}
        expected = {(Q(0), (Q(0),) * rank, Q(0)): Q(1)}
        for (nm, l), f in neg.items():
            for m in (m for m in range(1, math.floor(t_max) + 1) if nm % m == 0):
                poly = [
                    ((Q(j * nm // m), tuple(j * x for x in l), Q(j * m)), Q(naive_binomial(f, j)))
                    for j in range(math.floor(t_max / m) + 1)
                ]
                expected = nonzero(naive_convolve(expected.items(), poly, lambda a, t: t <= t_max))
        g = expand_product(neg, WeylVector(Q(0), (Q(0),) * rank, Q(0)), (a_max, t_max), rank)
        assert dict(g.terms) == {k: c for k, c in expected.items() if k[0] <= a_max}

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 4).flatmap(lambda r: st.tuples(st.just(r), coefficient_tables(r, principal=2))),
        st.integers(-72, 72).map(lambda n: Q(n, 24)),
        st.integers(0, 72).map(lambda n: Q(n, 24)),
    )
    def test_principal_block_residual_rect(self, table_of_rank, a_max, t_max):
        # the residual vanishes on the smaller of the full expansion's rect and
        # that of (n >= 0 block) * (n < 0 block), both blocks on a <= max(a_max, 0);
        # there the n < 0 block holds its term 1, so its a floor f is <= 0
        rank, table = table_of_rank
        rect, wv = (a_max, t_max), WeylVector(Q(1, 24), (Q(1, 2),) * rank, Q(-5, 24))
        wide = (max(a_max, 0), t_max)
        g0 = expand_product({k: f for k, f in table.items() if k[0] >= 0}, wv, wide, rank)
        neg = expand_product({k: f for k, f in table.items() if k[0] < 0}, weyl(rank), wide, rank)
        f = min(a for a, _, _ in neg.terms)
        assert (g0 * neg).rect == (wide[0] + f, t_max)
        residual = principal_block_residual(table, wv, rect, rank)
        assert residual.is_zero
        assert residual.rect == (min(a_max, wide[0] + f), t_max)


class TestProductFactors:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 4).flatmap(lambda r: st.tuples(st.just(r), coefficient_tables(r, principal=2))),
        st.integers(-48, 48).map(lambda n: Q(n, 24)),
        st.integers(0, 72).map(lambda n: Q(n, 24)),
    )
    def test_principal_factors_come_first(self, table_of_rank, a_max, t_max):
        # expand_product multiplies the factors in this order, and its
        # truncation is sound only if every n < 0 factor precedes every other
        rank, table = table_of_rank
        nonneg = [f.n >= 0 for f in product_factors(table, (a_max, t_max), rank)]
        assert nonneg == sorted(nonneg)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 4).flatmap(lambda r: st.tuples(st.just(r), coefficient_tables(r, principal=2))),
        st.integers(-72, 72).map(lambda n: Q(n, 24)),
        st.integers(-24, 72).map(lambda n: Q(n, 24)),
    )
    def test_factors_and_their_count(self, table_of_rank, a_max, t_max):
        # the factors of a walk over every (n, m) in the budget, sorted on
        # Fraction tuples; the cap counts them exactly
        rank, table = table_of_rank
        factors = product_factors(table, (a_max, t_max), rank)
        assert factors == sorted(naive_factors(table, a_max, t_max), key=lambda f: (f.n >= 0, f.m, f.n, f.l))
        with mock.patch.object(series_mod, "DEFAULT_TERM_CAP", len(factors)):
            assert product_factors(table, (a_max, t_max), rank) == factors
        if factors:
            with mock.patch.object(series_mod, "DEFAULT_TERM_CAP", len(factors) - 1):
                match = f"has {len(factors)} factors, .* cap of {len(factors) - 1}$"
                with pytest.raises(SeriesOverflowError, match=match):
                    product_factors(table, (a_max, t_max), rank)

    def test_entries_of_another_rank_are_refused(self):
        # a rank-2 table read at rank 1 packs more digits than are unpacked
        table = {(-1, (Q(0), Q(0))): 1, (0, (Q(1), Q(-1))): 2}
        match = r"^coefficient entry f\(-1, \['0', '0'\]\) has length 2, not rank 1$"
        with pytest.raises(ValueError, match=match):
            expand_product(table, weyl(1), (Q(2), Q(2)), 1)
        assert len(expand_product(table, weyl(2), (Q(2), Q(2)), 2).terms) > 0

    def test_huge_rect_is_refused_before_any_factor_is_built(self, deadline):
        # one factor per n <= n_hi for each n = 0 entry: counted, not built
        phi, wv = acceptance_dataset("A2")
        start = time.perf_counter()
        # the count, 10^400 and more, is printed by its digits, as the boundary block's bound is
        match = r"^the expansion has a 40\d-digit number of factors, more than the term cap of 200000$"
        with deadline(10), pytest.raises(SeriesOverflowError, match=match):
            expand_product(phi.coefficient_table(), wv, (Q(10**400), Q(1)), phi.lattice.rank)
        assert time.perf_counter() - start < 1

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 4).flatmap(lambda r: st.tuples(st.just(r), coefficient_tables(r, principal=2))),
        st.integers(-72, 72).map(lambda n: Q(n, 24)),
        st.integers(-24, 72).map(lambda n: Q(n, 24)),
        st.lists(st.sampled_from([Q(0), Q(1, 2), Q(-5, 3), Q(7, 4), 2]), max_size=4),
    )
    def test_int_factors_map_back(self, table_of_rank, a_max, t_max, b):
        # the int list the expansion reads is product_factors, in order, on one z:
        # the lcm of the zeta denominators of the support and of the B it is given
        rank, table = table_of_rank
        z, ints = series_mod._factors(table, (a_max, t_max), rank, b)
        factors = product_factors(table, (a_max, t_max), rank)
        assert z == math.lcm(*{Q(x).denominator for x in b}, *{x.denominator for (_, l), f in table.items() if f for x in l})
        assert [(n, tuple(Q(x, z) for x in l), m, f) for n, l, m, f in ints] == [tuple(f) for f in factors]
        assert all(type(x) is int for _, l, _, _ in ints for x in l)
        assert all(type(x) is Q for f in factors for x in f.l)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(-60, 60),
        st.sampled_from([(0, 1), (-1, 2), (1, 3), (2, 0), (1, 0), (0, 0)]),
        st.integers(0, 40),
    )
    def test_binomial_against_the_falling_factorial(self, f, nm, budget):
        # the recurrence c_j = -c_(j-1) (f - j + 1) / j, negative exponents included,
        # up to the budget of the factor's (n, m); it stops at the first zero
        n, m = nm
        pairs = series_mod._binomial(n, m, f, budget, budget)
        j_max = budget // m if m else budget // n if n else f
        assert pairs == [(j, naive_binomial(f, j)) for j in range(1, j_max + 1) if naive_binomial(f, j)]

    def test_binomial_of_a_large_exponent(self, deadline):
        # (1 - zeta^(-1/2))^20000 on rect (0, 0): one boundary factor, 20001 terms of up
        # to 6019 digits; one math.comb per term made this take minutes
        table = {(-1, (Q(0),)): 1, (0, (Q(1, 2),)): 20000, (0, (Q(-1, 2),)): 20000}
        with deadline(10):
            g = expand_product(table, weyl(1), (Q(0), Q(0)), 1)
            terms = g.terms
        assert len(terms) == 20001
        for j in (0, 1, 2, 3, 4999, 10000, 10001, 19999, 20000):
            assert terms[key(0, (Q(-j, 2),), 0)] == (-1) ** j * math.comb(20000, j)

    def test_binomial_stops_at_a_nonnegative_exponent(self, deadline):
        # (1 - q^-1 xi)^1 on t <= 10^400: the binomial has u^0 and u^1 only
        start = time.perf_counter()
        with deadline(10):
            g = expand_product({(-1, (Q(0),)): 1}, weyl(1), (Q(0), Q(10**400)), 1)
        assert time.perf_counter() - start < 1
        assert dict(g.terms) == {key(0, (0,), 0): 1, key(-1, (0,), 1): -1}


def naive_factors(table, a_max, t_max):
    """The factors (n, l, m) > 0 of the table meeting the rect, by a walk over every n and m."""
    max_neg = max((-n0 for (n0, _), f in table.items() if f and n0 < 0), default=0)
    n_hi = math.floor(a_max + t_max * max_neg)
    factors = []
    for (n0, l), f in table.items():
        if f and n0 == 0 and next((x for x in l if x), 0) < 0:  # l < 0: its first nonzero entry
            factors.append(ProductFactor(0, l, 0, f))
    # m = 0 and n = 0 are taken on any rect, as every n = 0 entry has its factors along both
    for m in range(0, max(math.floor(t_max), 0) + 1):
        for n in range(-max_neg, max(n_hi, 0) + 1):
            if (n, m) != (0, 0) and (n >= 0 or m > 0) and (n <= n_hi or n == 0):
                factors += [ProductFactor(n, l, m, f) for (n0, l), f in table.items() if f and n0 == n * m]
    return factors


class TestPacking:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 40).flatmap(lambda w: st.tuples(
        st.just(w),
        st.lists(st.one_of(
            st.sampled_from([(1 << (w - 1)) - 1, 1 - (1 << (w - 1)), 0]),
            st.integers(1 - (1 << (w - 1)), (1 << (w - 1)) - 1),
        ), max_size=5),
    )))
    def test_round_trip_at_the_digit_boundary(self, wl):
        w, l = wl
        k = series_mod._pack(l, w)
        assert series_mod._unpack([k], len(l), w) == {k: tuple(l)}

    @settings(max_examples=200, deadline=None)
    @given(st.integers(3, 12).flatmap(lambda w: st.tuples(
        st.just(w), *[st.lists(st.integers(-(1 << (w - 3)), 1 << (w - 3)), min_size=4, max_size=4)] * 2
    )))
    def test_keys_add(self, wl):
        # digits up to a quarter of 2^w: sums of two stay inside the digit range
        w, l1, l2 = wl
        k = series_mod._pack(l1, w) + series_mod._pack(l2, w)
        assert series_mod._unpack([k], 4, w) == {k: tuple(x + y for x, y in zip(l1, l2))}

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 5), st.integers(1, 40).flatmap(lambda w: st.tuples(st.just(w), st.lists(st.one_of(
        st.sampled_from([(1 << (w - 1)) - 1, 1 - (1 << (w - 1)), 0]),
        st.integers(1 - (1 << (w - 1)), (1 << (w - 1)) - 1),
    ), min_size=40, max_size=40), st.integers(0, 8))))
    def test_batch_is_the_keys_one_by_one(self, rank, drawn):
        # one call over up to 8 keys, unpacked one digit position at a time, gives each key its own vector
        w, digits, count = drawn
        ls = [digits[i * rank:(i + 1) * rank] for i in range(count)] if rank else [[]] * count
        keys = [series_mod._pack(l, w) for l in ls]
        assert series_mod._unpack(keys, rank, w) == {k: tuple(l) for k, l in zip(keys, ls)}


# SHA-256 of series_to_json(expand_product(...)) on rect (3,3), recorded
# before the integer kernel replaced the Fraction-keyed loops
EXPANSION_DIGESTS = {
    "A1 plain": "47f1ad7e5548eb42e3caaa83cf609ee21d33769313b53c62e052215d94cb0a0d",
    "A1 subcase i": "2e15cd7e470304411474c630274dc77753457370dbb46a6277c7b75552d76757",
    "A2": "9d79c45080d38a959b5ae436706820ca1cbf9db65f2970969da6bfd68350f51f",
    "B2 plain": "6efd3b3006bbd0a20d7bf9495cec91c0b7e096d55e53e8e7df424d26f972cd07",
    "G2": "5f642f348d5c45f4c0f2c848edc31f2f1cc0264f460b82660f69b3b452e300a7",
    "empty weight 12": "da394b23d824b790d12d4709e8815964ea1d243bb19e85b77b014358638a5480",
}


def acceptance_dataset(name):
    from orthoforms import (
        QZeroData,
        build_dual_set,
        qzero_from_dual_sets,
        realize,
        solve_weight,
        weyl_vector,
    )

    if name == "empty weight 12":
        phi = QZeroData(builtin_lattice("A1"), {(-1, (Q(0),)): 1}, 12)
        return phi, weyl_vector(phi)
    args, changes = {
        "A1 plain": (("A", 1, 1), {"short_div": 1}),
        "A1 subcase i": (("A", 1, 1), {"subcase": "i"}),
        "A2": (("A", 2, 1), {}),
        "B2 plain": (("B", 2, 1), {"short_div": 1}),
        "G2": (("G2", 2, 1), {}),
        "A3": (("A", 3, 1), {}),
        "A6": (("A", 6, 1), {}),
        "C3": (("C", 3, 1), {}),
        "D4": (("D", 4, 1), {}),
    }[name]
    comp = dataclasses.replace(realize(*args), **changes)
    phi = qzero_from_dual_sets(comp.lattice, [build_dual_set(comp)])
    phi = phi.with_weight(solve_weight(phi))
    return phi, weyl_vector(phi)


# SHA-256 of series_to_json(expand_product(...)) on rect (r, r), recorded
# before the expansion moved to packed zeta keys: rank >= 3 is where a
# packed key holds more than one digit
RANK3_EXPANSION_DIGESTS = {
    ("A3", 1): "7e7e21d6acfbda8f0f35a8cb469de4a0917faf0f8b0490d9d50013f25fdac37c",
    ("C3", 1): "6eb6525a19210402e432fbc275b250405138cc516e001cf7ecbbc552dd7f36ae",
    ("D4", 1): "088ebfa65006deaa58f971a87de3c519670bed81ee94f442a7d0de660dbb226f",
    ("A3", 2): "61fabdd1f0957e1acee6bac097ca8d3a05a0c12df3c04e74721ec99c955fa172",
}


def _digest(g):
    text = json.dumps(series_to_json(g), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(EXPANSION_DIGESTS))
def test_expansion_json_unchanged(name):
    phi, wv = acceptance_dataset(name)
    g = expand_product(phi.coefficient_table(), wv, (Q(3), Q(3)), phi.lattice.rank)
    assert _digest(g) == EXPANSION_DIGESTS[name]


@pytest.mark.parametrize("name, r", sorted(RANK3_EXPANSION_DIGESTS))
def test_rank3_expansion_json_unchanged(name, r):
    phi, wv = acceptance_dataset(name)
    g = expand_product(phi.coefficient_table(), wv, (Q(r), Q(r)), phi.lattice.rank)
    assert _digest(g) == RANK3_EXPANSION_DIGESTS[(name, r)]


# SHA-256 of series_to_json of the two residual oracles on rect (3,3),
# recorded while log_derivative_residual still cleared denominators
RESIDUAL_DIGESTS = {
    ("A1 plain", "log"): "30e1bdc2fe2069a0f003ba8fd8caf98fbbff8e5fa37873463dc07f1f782b85d3",
    ("A1 plain", "principal"): "869b9de925fbbc7b6e846887e7422ccb68d452a38e587c77d841d649d7b5d5ce",
    ("A1 subcase i", "log"): "b11627be84b35a95a76052ca630f27cedf1131f27abe72b8d6f6e4109cee6fac",
    ("A1 subcase i", "principal"): "78e593083a8a5a893b31c396a70787162de4479b792ef42d53750cc4fccfc2f3",
    ("A2", "log"): "381f5de6602c8a72998f39a37fd9929a3c11c75cf82b6414712f2f638c32e623",
    ("A2", "principal"): "e6c6f8e6281b010473858c79af0972ed0ca52aedc9ad10e7b60fecf702f4590f",
    ("B2 plain", "log"): "73b8c55e4087f27c2c2661f6f86f3ee4417f424bcd0a6b026a1a78f81c0439b3",
    ("B2 plain", "principal"): "b586f94f82aca73a4a1023e53f33179998bf87dad0e9ff1feec4dc57ae712712",
    ("G2", "log"): "f73a82c86ee8c184179476cb2beb6f069226cf10374ed9e3408edf62cf852d30",
    ("G2", "principal"): "6295320335af2351d4e8a6c55b2a59c78bd0b5dd32cdf169c50f75101c6eda1b",
    ("empty weight 12", "log"): "ca748192486a70135b82c830b4071e1a75eb8a302647ee8dd05ac6d31bb71aed",
    ("empty weight 12", "principal"): "d3bf603224ee434c187d0e5b16a8d787e255bc4643a96c4f1a07cb8964715f9b",
}


@pytest.mark.parametrize("name, oracle", sorted(RESIDUAL_DIGESTS))
def test_residual_json_unchanged(name, oracle):
    phi, wv = acceptance_dataset(name)
    residual = {"log": log_derivative_residual, "principal": principal_block_residual}[oracle]
    res = residual(phi.coefficient_table(), wv, (Q(3), Q(3)), phi.lattice.rank)
    assert res.is_zero
    assert _digest(res) == RESIDUAL_DIGESTS[(name, oracle)]


# ---------------------------------------------------------------------------
# Jacobians, syzygies and sums against the Fraction fold they replaced
# ---------------------------------------------------------------------------
#
# The reference below is the fold-based code that the shared-minor syzygy_sum
# and the one-pass signed merge replaced, kept verbatim except that `+` is
# spelled reference_add and the rank check is written out.


def reference_add(self, other):
    if self.rank != other.rank:
        raise ValueError("series rank mismatch")
    den = math.lcm(self.den, other.den)
    pa = min(self.prefactor.a, other.prefactor.a)
    pc = min(self.prefactor.c, other.prefactor.c)
    pb = self.prefactor.b
    common = Monomial(pa, pb, pc)
    merged = {}
    for series in (self, other):
        da = series.prefactor.a - pa
        dc = series.prefactor.c - pc
        db = tuple(x - y for x, y in zip(series.prefactor.b, pb))
        for (a, l, t), c in series.terms.items():
            key = (a + da, tuple(x + y for x, y in zip(l, db)), t + dc)
            merged[key] = merged.get(key, Q(0)) + c
    ra = min(self.prefactor.a + self.rect[0], other.prefactor.a + other.rect[0]) - pa
    rt = min(self.prefactor.c + self.rect[1], other.prefactor.c + other.rect[1]) - pc
    return TruncatedSeries(self.rank, merged, (ra, rt), common, den)


def reference_jacobian(forms):
    if not forms:
        raise ValueError("no forms given")
    s = forms[0].series.rank
    size = s + 3
    if len(forms) != size:
        raise ValueError(f"rank {s} needs exactly {size} forms, got {len(forms)}")
    if any(f.series.rank != s for f in forms):
        raise ValueError("series rank mismatch")
    rect = (
        min(f.series.rect[0] for f in forms),
        min(f.series.rect[1] for f in forms),
    )
    den = math.lcm(*(f.series.den for f in forms))
    axes = ["tau"] + [f"z{i}" for i in range(1, s + 1)] + ["omega"]
    rows = [[f.series.scale(f.weight) for f in forms]]
    for axis in axes:
        rows.append([f.series.derive(axis) for f in forms])
    return reference_det(rows, s, rect, den)


def reference_det(rows, rank, rect, den):
    size = len(rows)
    memo = {}

    def minor(i, cols):
        if not cols:
            return one(rank, rect, den)
        key = (i, cols)
        hit = memo.get(key)
        if hit is not None:
            return hit
        total = zero(rank, rect, den)
        for pos, j in enumerate(cols):
            entry = rows[i][j]
            if entry.is_zero:
                continue
            sub = minor(i + 1, cols[:pos] + cols[pos + 1 :])
            term = entry * sub
            total = reference_add(total, term if pos % 2 == 0 else -term)
        memo[key] = total
        return total

    return minor(0, tuple(range(size)))


def reference_syzygy_sum(forms):
    if not forms:
        raise ValueError("no forms given")
    s = forms[0].series.rank
    if len(forms) != s + 4:
        raise ValueError(f"rank {s} syzygy needs exactly {s + 4} forms")
    total = None
    for idx, f in enumerate(forms):
        others = list(forms[:idx]) + list(forms[idx + 1 :])
        jt = reference_jacobian(others)
        term = (f.series * jt).scale(f.weight)
        signed = -term if (idx + 1) % 2 else term
        total = signed if total is None else reference_add(total, signed)
    return total


def json_of(x):
    return json.dumps(series_to_json(x), sort_keys=True, separators=(",", ":"))


def digest_of(x):
    return hashlib.sha256(json_of(x).encode()).hexdigest()


ZETA_12 = st.sampled_from([1, 2]).flatmap(
    lambda d: st.integers(-2 * d, 2 * d).map(lambda n: Q(n, d))
)


@st.composite
def grid_series(draw, rank, zeta=ZETA_12, modular=False):
    """One to four terms on the series' own den grid (den 12, 24 or 48).

    The rect lies on (1/12)Z or, off the den grid, on (1/7)Z or (1/36)Z, so
    sums and Laplace steps meet bounds that are not whole multiples of
    1/den.  The prefactor's a and c lie on (1/den)Z, in [-1/2, 1/4], or in
    [0, 1/4] if modular, which puts the series in the domain of ``jacobian``.
    Zeta entries, drawn from zeta, have denominator 1 or 2 by default.
    Exponents and prefactors stay small enough that most Jacobians keep
    terms inside their rect.
    """
    den = draw(st.sampled_from([12, 24, 48]))
    exponent = st.integers(0, den).map(lambda n: Q(n, den))
    pref_part = st.integers(0 if modular else -den // 2, den // 4).map(lambda n: Q(n, den))
    entries = draw(
        st.lists(
            st.tuples(exponent, st.tuples(*[zeta] * rank), exponent, COEFF),
            min_size=1,
            max_size=4,
        )
    )
    terms = {}
    for a, l, t, c in entries:
        terms[(a, l, t)] = terms.get((a, l, t), Q(0)) + c
    rect = tuple(
        draw(st.sampled_from([12, 12, 7, 36]).flatmap(lambda d: st.integers(5 * d // 2, 5 * d).map(lambda n: Q(n, d))))
        for _ in range(2)
    )
    pref = Monomial(draw(pref_part), draw(st.tuples(*[zeta] * rank)), draw(pref_part))
    return TruncatedSeries(rank, terms, rect, pref, den)


def flattened(x, axis):
    """x with every term moved to a = -A (axis 0) or to t = -C (axis 2), so its tau or omega row is empty."""
    p, terms = x.prefactor, {}
    for (a, l, t), c in x.terms.items():
        key = (-p.a, l, t) if axis == 0 else (a, l, -p.c)
        terms[key] = terms.get(key, 0) + c
    return TruncatedSeries(x.rank, nonzero(terms), x.rect, p, x.den)


EMPTYING = [lambda x: x.scale(0), lambda x: flattened(x, 0), lambda x: flattened(x, 2)]


def weighted_forms(rank, modular=False):
    """rank + 4 weighted grid_series, about a third of them emptied or with an empty tau or omega row.

    Those make Laplace pairs with an empty operand, whose prefactor and rect
    still enter the sum's.  A flattened form keeps its floor at 0.
    """
    emptied = st.builds(lambda x, f: f(x), grid_series(rank, modular=modular), st.sampled_from(EMPTYING))
    drawn = grid_series(rank, modular=modular)
    form = st.builds(WeightedSeries, st.one_of(drawn, drawn, emptied), st.integers(0, 6))
    return st.lists(form, min_size=rank + 4, max_size=rank + 4)


def outside_the_domain(forms):
    """The index of the first nonempty form with an exponent below 0, prefactor included, or None."""
    for i, f in enumerate(forms):
        p, keys = f.series.prefactor, f.series.absolute_terms()
        if keys and min(p.a, p.c, *(a for a, _, _ in keys), *(t for _, _, t in keys)) < 0:
            return i
    return None


def assert_fold_or_refusal(forms):
    """jacobian and syzygy_sum refuse the forms exactly when a nonempty one is outside the domain, else equal the fold."""
    for operation, part, fold in ((jacobian, forms[:-1], reference_jacobian), (syzygy_sum, forms, reference_syzygy_sum)):
        index = outside_the_domain(part)
        if index is None:
            assert json_of(operation(part)) == json_of(fold(part))
        else:
            with pytest.raises(ValueError, match=rf"^form {index} has (prefactor [AC]|a term at absolute [at]) = -\d"):
                operation(part)


def rank1_forms(rect, *forms):
    """Rank-1 WeightedSeries from (weight, {(a, l, t): c}) with integer entries."""
    return [WeightedSeries(TruncatedSeries(1, {key(a, (l,), t): c for (a, l, t), c in terms.items()}, rect), w)
            for w, terms in forms]


def replaced(forms, i, x):
    """forms with the series of form i replaced by x."""
    return [WeightedSeries(x, f.weight) if j == i else f for j, f in enumerate(forms)]


# 1, q, zeta, xi and a fifth form, each with a second term, on rect (4, 4); of the three variants
# below, form 1 emptied by scale(0) is a zero column of every Jacobian, and form 0 with prefactor
# A = -1 and form 2 with a term at t = -1 are no modular forms' expansions, so both are refused
BASE_FORMS = rank1_forms(
    (4, 4),
    (4, {(0, 0, 0): 1, (1, 1, 1): 2}),
    (6, {(1, 0, 0): 1, (0, -1, 1): -1}),
    (10, {(0, 1, 0): 1, (2, 0, 1): 3}),
    (12, {(0, 0, 1): 1, (1, -1, 0): 1}),
    (5, {(1, 1, 0): 2, (0, 0, 2): -1}),
)
NEGATIVE_A = replaced(BASE_FORMS, 0, TruncatedSeries(1, BASE_FORMS[0].series.terms, (4, 4), Monomial(-1, (0,), 0)))
EMPTIED = replaced(BASE_FORMS, 1, BASE_FORMS[1].series.scale(0))
NEGATIVE_T = replaced(BASE_FORMS, 2, BASE_FORMS[2].series + monomial(1, (4, 4), 1, (0,), -1))


class TestAgainstFold:
    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([1, 1, 2]).flatmap(lambda rank: weighted_forms(rank, modular=True)))
    @example(EMPTIED)
    def test_jacobian_and_syzygy(self, forms):
        # the forms are in the domain: prefactors in [0, 1/4], terms at a, t >= 0, some emptied or flattened
        assert outside_the_domain(forms) is None
        assert json_of(jacobian(forms[:-1])) == json_of(reference_jacobian(forms[:-1]))
        assert json_of(syzygy_sum(forms)) == json_of(reference_syzygy_sum(forms))

    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from([1, 1, 2]).flatmap(weighted_forms))
    @example(NEGATIVE_A)
    @example(NEGATIVE_T)
    def test_domain(self, forms):
        # prefactors in [-1/2, 1/4]: most draws hold a form outside the domain, named by the refusal
        assert_fold_or_refusal(forms)

    @pytest.mark.parametrize("forms, message", [
        (NEGATIVE_A, "form 0 has prefactor A = -1 below 0"),
        (NEGATIVE_T, "form 2 has a term at absolute t = -1 below 0"),
    ])
    def test_refusal_names_the_form_and_exponent(self, forms, message):
        for operation, part in ((jacobian, forms[:-1]), (syzygy_sum, forms)):
            with pytest.raises(ValueError, match=f"^{message}: the Jacobian takes modular forms only"):
                operation(part)

    @pytest.mark.parametrize("name, x", [
        ("prefactor A", TruncatedSeries(1, {key(1, (0,), 0): 1}, (4, 4), Monomial(-1, (0,), 0))),
        ("prefactor C", TruncatedSeries(1, {key(0, (0,), 1): 1}, (4, 4), Monomial(0, (0,), -1))),
        ("a term at absolute a", TruncatedSeries(1, {key(-1, (0,), 0): 1, key(0, (1,), 0): 1}, (4, 4))),
        ("a term at absolute t", TruncatedSeries(1, {key(0, (0,), -1): 1, key(1, (0,), 0): 1}, (4, 4))),
    ])
    def test_each_exponent_below_0_alone_is_named(self, name, x):
        # form 2 has exactly one exponent below 0, prefactor included: the refusal names that one
        forms = replaced(BASE_FORMS, 2, x)
        for operation, part in ((jacobian, forms[:-1]), (syzygy_sum, forms)):
            with pytest.raises(series_mod._NotModular, match=f"^form 2 has {name} = -1 below 0: the Jacobian") as caught:
                operation(part)
            assert caught.value.args == (2, name, -1)

    def test_two_exponents_below_0_name_the_first(self):
        # prefactor C = -1 and a term at absolute a = -1: the names run A, C, a, t, so C is named
        forms = replaced(BASE_FORMS, 1, TruncatedSeries(1, {key(-1, (0,), 1): 1}, (4, 4), Monomial(0, (0,), -1)))
        for operation, part in ((jacobian, forms[:-1]), (syzygy_sum, forms)):
            with pytest.raises(ValueError, match="^form 1 has prefactor C = -1 below 0: the Jacobian takes modular forms only"):
                operation(part)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 2).flatmap(lambda r: st.tuples(grid_series(r), grid_series(r))))
    def test_add_and_sub(self, pair):
        x, y = pair
        for v in (x, y, x + y):
            # the one view that subtracts the prefactor agrees with the two that do not
            p, absolute = v.prefactor, v.absolute_terms()
            assert absolute == {(a + p.a, tuple(map(sum, zip(l, p.b))), t + p.c): c for (a, l, t), c in v.terms.items()}
            if absolute:
                assert v.leading_order() == (min(k[0] for k in absolute), min(k[2] for k in absolute))
        assert json_of(x + y) == json_of(reference_add(x, y))
        assert json_of(x - y) == json_of(reference_add(x, -y))
        assert json_of(x - x) == json_of(reference_add(x, -x))
        assert json_of(y + (-y)) == json_of(reference_add(y, -y))


def wide_forms(rank, modular=False):
    """rank + 4 weighted forms with zeta entries up to 40 (WIDE_ZETA), some with floors above 0 and some emptied."""
    wide = st.one_of(grid_series(rank, WIDE_ZETA, modular), floored_series(rank, WIDE_ZETA))
    form = st.builds(WeightedSeries, st.one_of(wide, wide, wide.map(lambda x: x.scale(0))), st.integers(0, 6))
    return st.lists(form, min_size=rank + 4, max_size=rank + 4)


# monomials at zeta^39 and zeta^40: the Jacobian's one term sits at zeta^159, its digit the sum
# 159 of the largest entries, so a packed width one bit short (2^7 <= 159) unpacks it wrongly
WIDE_MONOMIALS = rank1_forms(
    (4, 4), (4, {(0, 40, 0): 1}), (6, {(1, 40, 0): 1}), (10, {(0, 39, 0): 1}), (12, {(0, 40, 1): 1}), (5, {(1, 39, 1): 1})
)


class TestWideZeta:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([1, 2]).flatmap(lambda rank: wide_forms(rank, modular=True)))
    @example(WIDE_MONOMIALS)
    def test_jacobian_and_syzygy(self, forms):
        # the Laplace expansions on packed keys, whose digits run wide and carry, against the fold
        assert outside_the_domain(forms) is None
        assert json_of(jacobian(forms[:-1])) == json_of(reference_jacobian(forms[:-1]))
        assert json_of(syzygy_sum(forms)) == json_of(reference_syzygy_sum(forms))

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([1, 2]).flatmap(wide_forms))
    def test_domain(self, forms):
        assert_fold_or_refusal(forms)


def naive_mul(x, y):
    """x * y built from naive_product, without the series kernel.

    A product with an empty operand has no terms and the smaller rects.
    """
    if x.is_zero or y.is_zero:
        rect, terms = (min(x.rect[0], y.rect[0]), min(x.rect[1], y.rect[1])), {}
    else:
        rect, terms = naive_product(x, y)
    p, r = x.prefactor, y.prefactor
    prefactor = Monomial(p.a + r.a, tuple(map(sum, zip(p.b, r.b))), p.c + r.c)
    return TruncatedSeries(x.rank, nonzero(terms), rect, prefactor, math.lcm(x.den, y.den))


def packed_operands(rank):
    """grid_series operands, some with zeta entries up to 40 so packed digits carry, some emptied by scale(0)."""
    operand = st.one_of(grid_series(rank), grid_series(rank, WIDE_ZETA))
    return st.one_of(operand, operand.map(lambda x: x.scale(0)))


class TestPackedProduct:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda r: st.tuples(packed_operands(r), packed_operands(r))))
    def test_equals_the_pair_loop(self, pair):
        # __mul__'s loop on packed rows against the Fraction reference, which
        # shares no code with the int loops: terms, rect, prefactor and den agree
        x, y = pair
        assert json_of(x * y) == json_of(naive_mul(x, y))


def seeded_forms(s, seed, count, modular=False):
    """Forms of mixed den, rect and prefactor, drawn from a fixed seed.

    The prefactor's A and C lie in [-1, 1], or in [0, 1/4] if modular: the
    same draws of every other field, in the domain of ``jacobian``.
    """
    rng = random.Random(seed)
    forms = []
    for _ in range(count):
        den = rng.choice([12, 24, 48])
        terms = {}
        for _ in range(4):
            k = (
                Q(rng.randint(0, 18), 12),
                tuple(Q(rng.randint(-4, 4), 2) for _ in range(s)),
                Q(rng.randint(0, 18), 12),
            )
            terms[k] = terms.get(k, Q(0)) + Q(rng.randint(-4, 4), rng.randint(1, 3))
        rect = (Q(rng.randint(36, 60), 12), Q(rng.randint(36, 60), 12))
        low, high = (0, den // 4) if modular else (-den, den)
        pref = Monomial(
            Q(rng.randint(low, high), den),
            tuple(Q(rng.randint(-2, 2), 2) for _ in range(s)),
            Q(rng.randint(low, high), den),
        )
        series = TruncatedSeries(s, terms, rect, pref, den)
        forms.append(WeightedSeries(series, rng.randint(1, 6)))
    return forms


# SHA-256 of series_to_json for seeded_forms(s, 100 * s + seed, s + 4, modular=True), recorded
# while _determinants still kept an uncut path for forms outside the domain
JACOBIAN_DIGESTS = {
    ("jacobian", 1, 1): "f9010ffd83c088f1bb685cbdecf515d34d73b26e64c1494101d59d05198a2243",
    ("syzygy_sum", 1, 1): "64fdadbbbf776f5af6d94a0e79fd3bb3ecc3af7632bf5a31e6d8bf6d19c19093",
    ("jacobian", 1, 3): "5c530694b0e85771d4c448f85d350ece1144fa23699bc2767edfbc0dc1c176ea",
    ("syzygy_sum", 1, 3): "5005ca58820748426c47733ee6de653bd455ed656c69e573a41a31ee675f8227",
    ("jacobian", 2, 3): "e83ed2a6e0b60a201e445fe02a954fa2eb9ddfd0d7ab8a3c7ddccd891fa42c89",
    ("syzygy_sum", 2, 3): "ea39a9c735d46e245fcd3649390e67398df1d126e679097601d76db82321a50b",
    ("jacobian", 2, 5): "52721602dec078a918c4c53606040958aaa99bc0529cb968712f2a643bf66046",
    ("syzygy_sum", 2, 5): "b1eacb06ef906eeb7d2067ccf5087ae435bfc3cd8cf081616170f7b1153fdfe2",
}


@pytest.mark.parametrize("what, s, seed", sorted(JACOBIAN_DIGESTS))
def test_jacobian_json_unchanged(what, s, seed):
    operation, size = (jacobian, s + 3) if what == "jacobian" else (syzygy_sum, s + 4)
    # the draw on the same seed with prefactors in [-1, 1] has a negative one: refused, naming its form
    forms = seeded_forms(s, 100 * s + seed, s + 4)[:size]
    with pytest.raises(ValueError, match=rf"^form {outside_the_domain(forms)} has prefactor [AC] = -"):
        operation(forms)
    out = operation(seeded_forms(s, 100 * s + seed, s + 4, modular=True)[:size])
    assert digest_of(out) == JACOBIAN_DIGESTS[(what, s, seed)]


def pool_forms(s, index):
    """The benchmark's jacobian pool instance: s + 4 four-term forms on rect (3,3)."""
    rng = random.Random(1000 * s + index)
    forms = []
    for _ in range(s + 4):
        terms = {}
        for _ in range(4):
            k = (
                Q(rng.randint(0, 3)),
                tuple(Q(rng.randint(-2, 2)) for _ in range(s)),
                Q(rng.randint(0, 3)),
            )
            terms[k] = terms.get(k, Q(0)) + Q(rng.randint(-4, 4), rng.randint(1, 3))
        series = TruncatedSeries(s, {k: c for k, c in terms.items() if c}, (Q(3), Q(3)))
        forms.append(WeightedSeries(series, rng.randint(1, 6)))
    return forms


# the benchmark's digests of every pool instance, read from its reference file
POOL_REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
POOL_JOBS = [f"{what}:s{s}#{i}" for what in ("jacobian", "syzygy_sum") for s in (1, 2) for i in range(24)]


@pytest.fixture(scope="module")
def pool_reference():
    return json.loads(POOL_REFERENCE.read_text())


@pytest.mark.parametrize("job", POOL_JOBS)
def test_pool_json_unchanged(pool_reference, job):
    what, s, i = re.fullmatch(r"(\w+):s(\d)#(\d+)", job).groups()
    forms = pool_forms(int(s), int(i))
    out = jacobian(forms[:-1]) if what == "jacobian" else syzygy_sum(forms)
    assert digest_of(out) == pool_reference[job]


# pairs the pair loop evaluates per syzygy_sum: C(s+4, i) minors on row i,
# each with s+3-i entries, plus s+4 top-level pairs; the per-J_t expansion
# needed 165 and 486 products
@pytest.mark.parametrize("s, products", [(1, 80), (2, 192)])
def test_syzygy_shares_minors(monkeypatch, s, products):
    pairs = []
    kernel = series_mod._accumulate

    def counting(terms, *args):
        pairs.extend(terms)
        return kernel(terms, *args)

    monkeypatch.setattr(series_mod, "_accumulate", counting)
    assert syzygy_sum(pool_forms(s, 0)).is_zero
    assert len(pairs) == products


@pytest.mark.parametrize("what", ["jacobian", "syzygy_sum"])
def test_jacobian_term_cap(monkeypatch, what):
    # the 1x1 minors on the last row already hold up to four terms each; a term 1 in
    # every form puts its floors at 0, so the minor cut keeps all of them
    forms = pool_forms(1, 0)
    monkeypatch.setattr(series_mod, "DEFAULT_TERM_CAP", 3)
    if what == "jacobian":  # the first four's t floors sum past the rect: no minor is built
        assert jacobian(forms[:-1]).is_zero
    forms = [WeightedSeries(f.series + one(1, f.series.rect), f.weight) for f in forms]
    assert all(f.series.leading_order() == (0, 0) for f in forms)
    with pytest.raises(SeriesOverflowError, match=r"^1x1 minor at row 3, columns \[\d\], on rect \(3, 3\) .* cap of 3 "):
        jacobian(forms[:-1]) if what == "jacobian" else syzygy_sum(forms)


# the first overflow of a pool instance under a small cap, in a minor whose columns are not
# consecutive: its column list is spelled from the memo key, so each line is pinned whole
@pytest.mark.parametrize("what, s, index, cap, line", [
    ("jacobian", 1, 6, 1, "2x2 minor at row 2, columns [1, 3], on rect (3, 3) exceeded the cap of 1 stored terms"),
    ("syzygy_sum", 1, 1, 8, "3x3 minor at row 1, columns [0, 2, 4], on rect (3, 3) exceeded the cap of 8 stored terms"),
    ("syzygy_sum", 1, 4, 8, "4x4 minor at row 0, columns [0, 1, 3, 4], on rect (3, 3) exceeded the cap of 8 stored terms"),
    ("syzygy_sum", 2, 0, 6, "3x3 minor at row 2, columns [1, 2, 5], on rect (3, 3) exceeded the cap of 6 stored terms"),
])
def test_overflow_names_non_consecutive_columns(monkeypatch, what, s, index, cap, line):
    forms = pool_forms(s, index)
    monkeypatch.setattr(series_mod, "DEFAULT_TERM_CAP", cap)
    with pytest.raises(SeriesOverflowError) as caught:
        jacobian(forms[:-1]) if what == "jacobian" else syzygy_sum(forms)
    assert str(caught.value) == line


def test_sparse_rank_40_jacobian(deadline):
    # 1, q, zeta_1 .. zeta_40 and xi: the matrix is triangular up to its first column, and the
    # Jacobian is the one term q zeta^(1, .., 1) xi; a memo with a slot per column subset needs 2^43
    s = 40
    forms = [monomial(s, (2, 2), 0, (0,) * s, 0), monomial(s, (2, 2), 1, (0,) * s, 0)]
    forms += [monomial(s, (2, 2), 0, tuple(int(i == j) for i in range(s)), 0) for j in range(s)]
    forms.append(monomial(s, (2, 2), 0, (0,) * s, 1))
    with deadline(10):
        out = jacobian([WeightedSeries(f, 1) for f in forms])
    assert out.terms == {(Q(1), (Q(1),) * s, Q(1)): Q(1)}
    assert out.rect == (Q(2), Q(2))


# ---------------------------------------------------------------------------
# the minor cut: forms with nonnegative prefactors and floors, against the fold
# ---------------------------------------------------------------------------


@st.composite
def floored_series(draw, rank, zeta=ZETA_12):
    """One to four terms above a floor drawn per axis from 0 to 1, with prefactor A, C in {0, 1/12, 1/4}.

    These are the forms ``_determinants`` cuts the minors of: over s + 3 or
    s + 4 of them the floors sum to either side of the rect, which is drawn
    per form from 3 to 6 on (1/12)Z or, off the den grid, on (1/7)Z.  About
    half the Jacobians and a fifth of the syzygy sums are empty by their
    floors alone; the rest build cut minors.  Zeta entries and B come from
    zeta.
    """
    den = draw(st.sampled_from([12, 24]))
    floor = st.sampled_from([0, 0, 0, 1, 2, 4])
    fa, ft = draw(floor), draw(floor)
    step = st.integers(0, 4)
    entries = draw(st.dictionaries(
        st.tuples(step.map(lambda n: Q(fa + n, 4)), st.tuples(*[zeta] * rank), step.map(lambda n: Q(ft + n, 4))),
        COEFF.filter(bool), min_size=1, max_size=4,
    ))
    rect = tuple(draw(st.sampled_from([12, 7]).flatmap(lambda d: st.integers(3 * d, 6 * d).map(lambda n: Q(n, d))))
                 for _ in range(2))
    pref = st.sampled_from([0, 0, 1, 3]).map(lambda n: Q(n, 12))
    return TruncatedSeries(rank, entries, rect, Monomial(draw(pref), draw(st.tuples(*[zeta] * rank)), draw(pref)), den)


def floored_forms(rank):
    form = st.builds(WeightedSeries, floored_series(rank), st.integers(0, 6))
    return st.lists(form, min_size=rank + 4, max_size=rank + 4)


# every form has a-floor 1 on rect (5, 5): the syzygy sum's a bound is 6, one
# above the rect, as f_t's floor 1 lifts J_t's rect; cutting the J_t's minors
# by f_t's floor as well empties J_t and gives (5, 5)
FLOOR_ONE = rank1_forms(
    (5, 5),
    (4, {(1, 0, 1): 1, (3, 0, 1): -1}),
    (3, {(1, 0, 0): -1}),
    (3, {(1, -1, 0): -1, (3, 1, 2): 1}),
    (4, {(1, -1, 0): -1, (2, 1, 0): -1}),
    (5, {(1, 0, 0): -1, (2, 1, 1): 1}),
)
# a-floors 1, 0, 0, 2, 4 and t-floors 1, 1, 1, 2, 1 on rect (4, 4): each J_t's cap
# on row 0 lies max_j f_j - f_t past the rect, and a J_t that kept terms there
# would lift the syzygy sum's t bound to 5
UNEQUAL_FLOORS = rank1_forms(
    (4, 4),
    (3, {(1, -1, 1): -1}),
    (1, {(0, 0, 1): 2}),
    (4, {(0, 0, 1): 2, (0, 1, 2): -1, (0, 0, 3): 2}),
    (1, {(2, -1, 2): 2}),
    (4, {(4, 1, 1): 2}),
)


class TestMinorCut:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([1, 1, 2]).flatmap(floored_forms))
    @example(FLOOR_ONE)
    @example(UNEQUAL_FLOORS)
    def test_against_the_fold(self, forms):
        assert json_of(jacobian(forms[:-1])) == json_of(reference_jacobian(forms[:-1]))
        assert json_of(syzygy_sum(forms)) == json_of(reference_syzygy_sum(forms))

    def test_example_rects(self):
        assert syzygy_sum(FLOOR_ONE).rect == (6, 5)
        assert syzygy_sum(UNEQUAL_FLOORS).rect == (4, 4)

    def test_floors_past_the_rect_multiply_no_pair(self, monkeypatch):
        # q, q^2, q zeta, q xi: a-floors 1 + 2 + 1 + 1 = 5 past the rect's 3
        def forms(rect):
            return [
                WeightedSeries(TruncatedSeries(1, {key(*k): 1}, rect), w)
                for k, w in zip([(1, (0,), 0), (2, (0,), 0), (1, (1,), 0), (1, (0,), 1)], (4, 6, 10, 12))
            ]

        products = []
        kernel = series_mod._accumulate

        def counting(pairs, *args):
            products.extend(pairs)
            return kernel(pairs, *args)

        monkeypatch.setattr(series_mod, "_accumulate", counting)
        j = jacobian(forms((3, 3)))
        assert products == []
        assert j.is_zero and json_of(j) == json_of(reference_jacobian(forms((3, 3))))
        # on rect (5, 5) the floors reach the rect, and the same hook sees the pair loop's products
        assert not jacobian(forms((5, 5))).is_zero and products


# ---------------------------------------------------------------------------
# the Jacobian against a sympy polynomial determinant
# ---------------------------------------------------------------------------
#
# For s = 1 forms with zero prefactor and nonnegative floors, scaling a and t
# by D and zeta exponents by Z makes every form a Laurent polynomial in
# x, y, w with integer exponents.  The normalized derivatives are the Euler
# operators x d/dx / D, y d/dy / Z and w d/dw / D, so sympy's determinant of
# those rows, scaled back, is the Jacobian.  It is exact on the Jacobian's
# rect, because no term outside a form's rect can reach it.


@st.composite
def holomorphic_form(draw):
    den = draw(st.sampled_from([12, 24]))
    # exponent 0 is drawn often, so that most Jacobians have terms on the rect
    exponent = st.one_of(st.just(Q(0)), st.integers(1, 6).map(lambda n: Q(n, 4)))
    entries = draw(st.dictionaries(
        st.tuples(exponent, st.tuples(ZETA_12), exponent), COEFF.filter(bool), min_size=2, max_size=4
    ))
    rect = tuple(draw(st.integers(24, 42).map(lambda n: Q(n, 12))) for _ in range(2))
    return WeightedSeries(TruncatedSeries(1, entries, rect, den=den), draw(st.integers(1, 6)))


def sympy_jacobian(forms, rect):
    import sympy
    from sympy.polys.matrices import DomainMatrix

    x, y, w = sympy.symbols("x y w")
    keys = [k for f in forms for k in f.series.terms]
    d = math.lcm(*(v.denominator for a, _, t in keys for v in (a, t)))
    z = math.lcm(*(l.denominator for _, (l,), _ in keys))
    polys = [
        sum(
            sympy.Rational(c.numerator, c.denominator) * x ** int(a * d) * y ** int(l * z) * w ** int(t * d)
            for (a, (l,), t), c in f.series.terms.items()
        )
        for f in forms
    ]
    rows = [
        [f.weight * p for f, p in zip(forms, polys)],
        [x * sympy.diff(p, x) / d for p in polys],
        [y * sympy.diff(p, y) / z for p in polys],
        [w * sympy.diff(p, w) / d for p in polys],
    ]
    # y^shift clears the negative zeta powers of every entry; the
    # determinant carries it four times
    shift = max(0, *(-int(l * z) for _, (l,), _ in keys))
    ring = sympy.QQ[x, y, w]
    matrix = DomainMatrix(
        [[ring.from_sympy(sympy.expand(e * y**shift)) for e in row] for row in rows], (4, 4), ring
    )
    out = {}
    for (ea, el, et), c in matrix.det().terms():
        a, t = Q(ea, d), Q(et, d)
        if a <= rect[0] and t <= rect[1]:
            out[(a, (Q(el - 4 * shift, z),), t)] = Q(int(c.numerator), int(c.denominator))
    return out


class TestJacobianAgainstSympy:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(holomorphic_form(), min_size=4, max_size=4))
    def test_s1_determinant(self, forms):
        j = jacobian(forms)
        assert j.prefactor == Monomial.zero(1)
        assert dict(j.terms) == sympy_jacobian(forms, j.rect)

    def test_monomials(self):
        forms = TestJacobian().monomials()
        assert sympy_jacobian(forms, RECT) == {key(1, (1,), 1): Q(1)}


# forms q*1, q*q, q*zeta, q*xi with weights 4, 6, 10, 12: their Jacobian is
# q^5 zeta xi * det((4, 6, 10, 12), (1, 2, 1, 1), (0, 0, 1, 0), (0, 0, 0, 1))
@pytest.mark.xfail(
    strict=True,
    reason="det's zero head in _determinants takes the forms' rects relative to their prefactors, "
    "so the Jacobian's absolute rect is capped at the forms' relative rect",
)
def test_jacobian_of_forms_with_positive_prefactor():
    q = Monomial(Q(1), (Q(0),), Q(0))
    forms = [
        WeightedSeries(TruncatedSeries(1, {key(*k): 1}, RECT, q), w)
        for k, w in zip([(0, (0,), 0), (1, (0,), 0), (0, (1,), 0), (0, (0,), 1)], (4, 6, 10, 12))
    ]
    assert jacobian(forms).absolute_terms() == {key(5, (1,), 1): Q(2)}


# ---------------------------------------------------------------------------
# rect soundness: an operation on rect R equals the same operation on inputs
# known on a larger rect R' containing R, truncated to the result's rect
# ---------------------------------------------------------------------------

GRID = 12
SOUND_ZETA = st.integers(-2, 2).map(Q)
SOUND_COEFF = st.builds(Q, st.integers(-5, 5).filter(bool), st.integers(1, 3))
SOUND_PREF = st.integers(-GRID, GRID).map(lambda n: Q(n, GRID))


def sound_exponent(lo, hi):
    return st.integers(lo * GRID, hi * GRID).map(lambda n: Q(n, GRID))


@st.composite
def extended_series(draw, rank):
    """(x, x_big): x_big known on R', and x its truncation to R inside R'.

    The prefactor is nonzero and floors go negative and positive.  Terms of
    x_big outside R stay at or above the floors of x, the support the
    product's rect rule reads off the stored terms.
    """
    rect = (draw(sound_exponent(0, 2)), draw(sound_exponent(0, 2)))
    big = (rect[0] + draw(sound_exponent(0, 1)), rect[1] + draw(sound_exponent(0, 1)))
    zeta = st.tuples(*[SOUND_ZETA] * rank)
    inner = draw(st.dictionaries(
        st.tuples(sound_exponent(-1, 2), zeta, sound_exponent(-1, 2)), SOUND_COEFF, min_size=1, max_size=4
    ))
    inner = {k: c for k, c in inner.items() if k[0] <= rect[0] and k[2] <= rect[1]} or {
        (Q(-1, 2), (Q(0),) * rank, Q(0)): Q(1)
    }
    fa, ft = min(k[0] for k in inner), min(k[2] for k in inner)
    between = lambda lo, hi: st.integers(int(lo * GRID), int(hi * GRID)).map(lambda n: Q(n, GRID))
    outer = draw(st.dictionaries(
        st.tuples(between(fa, big[0]), zeta, between(ft, big[1])), SOUND_COEFF, max_size=3
    ))
    outer = {k: c for k, c in outer.items() if k[0] > rect[0] or k[2] > rect[1]}
    pref = Monomial(draw(SOUND_PREF), draw(zeta), draw(SOUND_PREF))
    x_big = TruncatedSeries(rank, {**inner, **outer}, big, pref)
    return TruncatedSeries(rank, x_big.terms, rect, pref), x_big


def assert_sound(small, big):
    """small's terms are big's terms on small's rect, and big is exact there."""
    assert small.prefactor == big.prefactor
    assert small.rect[0] <= big.rect[0] and small.rect[1] <= big.rect[1]
    cut = TruncatedSeries(big.rank, big.terms, small.rect, big.prefactor, big.den)
    assert dict(small.terms) == dict(cut.terms)


EXTENDED_PAIRS = st.integers(1, 2).flatmap(
    lambda r: st.tuples(extended_series(r), extended_series(r))
)


class TestRectSoundness:
    @settings(max_examples=150, deadline=None)
    @given(EXTENDED_PAIRS)
    def test_ring_operations(self, pairs):
        (x, x_big), (y, y_big) = pairs
        assert_sound(x * y, x_big * y_big)
        assert_sound(x + y, x_big + y_big)
        assert_sound(x - y, x_big - y_big)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 2).flatmap(extended_series), SOUND_COEFF)
    def test_scale_and_derive(self, pair, factor):
        x, x_big = pair
        assert_sound(x.scale(factor), x_big.scale(factor))
        for axis in ["tau", "omega"] + [f"z{i}" for i in range(1, x.rank + 1)]:
            assert_sound(x.derive(axis), x_big.derive(axis))

    @pytest.mark.xfail(
        strict=True,
        reason="a product with a zero operand keeps the min of the rects, "
        "though the other operand's negative floor lowers what is known",
    )
    def test_product_with_zero_operand(self):
        x_big = series(1, {key(4, (0,), 0): 1}, (Q(5), Q(5)))
        y_big = series(1, {key(-2, (0,), 0): 1}, (Q(5), Q(5)))
        x, y = (TruncatedSeries(1, s.terms, (Q(3), Q(3))) for s in (x_big, y_big))
        assert x.is_zero
        assert_sound(x * y, x_big * y_big)

    @pytest.mark.xfail(
        strict=True,
        reason="the product's rect reads the floors off the stored terms, and "
        "terms outside both operands' rects may lie below them",
    )
    def test_product_of_extensions_below_the_floors(self):
        x_big = series(1, {key(0, (0,), 0): 1, key(4, (0,), -2): 1}, (Q(5), Q(5)))
        y_big = series(1, {key(0, (0,), 0): 1, key(-2, (0,), 4): 1}, (Q(5), Q(5)))
        x, y = (TruncatedSeries(1, s.terms, (Q(3), Q(3))) for s in (x_big, y_big))
        assert_sound(x * y, x_big * y_big)
