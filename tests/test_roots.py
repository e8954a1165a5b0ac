import dataclasses
import random
from fractions import Fraction as Q

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from orthoforms import (
    Lattice,
    SubcaseRequiredError,
    UnrecognizedRootSystemError,
    build_dual_set,
    builtin_lattice,
    coxeter_number,
    decompose,
    direct_sum,
    detect_roots,
    modified_coxeter,
    modified_coxeter_value,
    realize,
    reflect,
    rescale,
    sum_rule_constant,
)
from orthoforms import linalg
from orthoforms.roots import _identify


class TestDetect:
    def test_a2(self):
        assert len(detect_roots(builtin_lattice("A2"), 2).roots) == 6

    def test_d4_includes_norm4_class(self):
        rd = detect_roots(builtin_lattice("D4"), 4)
        assert rd.norms() == {2: 24, 4: 24}

    def test_rank_one_norm_six(self):
        rd = detect_roots(Lattice(((6,),), "L6"), 6)
        assert rd.roots == ((-1,), (1,))

    def test_indefinite_rejected(self):
        with pytest.raises(Exception):
            detect_roots(Lattice(((2, 0), (0, -2))), 2)

    def test_reflection_stability(self):
        rd = detect_roots(builtin_lattice("D4"), 4)
        root_set = set(rd.roots)
        for r in rd.roots[:8]:
            for x in rd.roots:
                image = reflect(rd.lattice, x, r)
                assert tuple(int(c) for c in image) in root_set

    def test_crystallographic_pairings(self):
        rd = detect_roots(builtin_lattice("A2"), 6)  # the G2 configuration
        for r in rd.roots:
            rr = rd.lattice.norm(r)
            for x in rd.roots:
                assert Q(2 * rd.lattice.pairing(r, x), rr).denominator == 1


class TestDecompose:
    def test_two_a1(self):
        comps = decompose(detect_roots(builtin_lattice("2A1"), 2))
        assert [(c.type_tag, c.rank, c.d) for c in comps] == [("A", 1, 1), ("A", 1, 1)]

    def test_e8(self):
        comps = decompose(detect_roots(builtin_lattice("E8"), 2))
        assert [(c.type_tag, c.rank, len(c.roots)) for c in comps] == [("E8", 8, 240)]

    def test_b3_on_3a1(self):
        comps = decompose(detect_roots(builtin_lattice("3A1"), 4))
        (c,) = comps
        assert (c.type_tag, c.rank, c.d, len(c.roots)) == ("B", 3, 1, 18)
        assert c.scale == 2 and c.label == "B3(2)"

    def test_f4_on_d4(self):
        (c,) = decompose(detect_roots(builtin_lattice("D4"), 4))
        assert (c.type_tag, c.rank, len(c.roots)) == ("F4", 4, 48)
        assert (c.short_div, c.long_div) == (1, 2)

    def test_g2_on_a2(self):
        (c,) = decompose(detect_roots(builtin_lattice("A2"), 6))
        assert (c.type_tag, c.rank, len(c.roots)) == ("G2", 2, 12)
        assert (c.short_div, c.long_div) == (1, 3)

    def test_partition_and_orthogonality(self):
        lat = builtin_lattice("4A1")
        rd = detect_roots(lat, 2)
        comps = decompose(rd)
        seen = [r for c in comps for r in c.roots]
        assert sorted(seen) == sorted(rd.roots)
        for i, c1 in enumerate(comps):
            for c2 in comps[i + 1 :]:
                for r in c1.roots:
                    for s in c2.roots:
                        assert lat.pairing(r, s) == 0

    def test_empty_rejected(self):
        from orthoforms import RootDatum

        with pytest.raises(ValueError):
            decompose(RootDatum(builtin_lattice("A1"), ()))

    def test_unrecognized(self):
        # a fake "component" that matches no crystallographic shape
        lat = builtin_lattice("A2")
        with pytest.raises(UnrecognizedRootSystemError):
            _identify(lat, [(1, 0), (-1, 0), (0, 1), (0, -1)])


REALIZATION_COUNTS = [
    ("A", 1, 2),
    ("A", 4, 20),
    ("B", 2, 8),
    ("B", 5, 50),
    ("C", 3, 18),
    ("C", 4, 32),
    ("C", 8, 128),
    ("D", 6, 60),
    ("E6", 6, 72),
    ("E7", 7, 126),
    ("E8", 8, 240),
    ("F4", 4, 48),
    ("G2", 2, 12),
]


class TestRealize:
    @pytest.mark.parametrize("tag,rank,count", REALIZATION_COUNTS)
    def test_root_counts(self, tag, rank, count):
        for d in (1, 2):
            comp = realize(tag, rank, d)
            assert len(comp.roots) == count
            shorts = comp.short_roots()
            assert all(comp.lattice.norm(r) == 2 * d for r in shorts)

    def test_norm_multisets(self):
        c = realize("B", 3, 2)
        assert sorted(int(c.lattice.norm(r)) for r in c.roots) == [4] * 6 + [8] * 12
        g = realize("G2", 2, 1)
        assert sorted(int(g.lattice.norm(r)) for r in g.roots) == [2] * 6 + [6] * 6


class TestCoxeterNumber:
    @pytest.mark.parametrize(
        "tag,rank,expected",
        [
            ("A", 1, 2),
            ("A", 2, 3),
            ("A", 7, 8),
            ("B", 3, 4),
            ("B", 8, 9),
            ("C", 3, 5),
            ("C", 8, 15),
            ("D", 4, 6),
            ("D", 8, 14),
            ("E6", 6, 12),
            ("E7", 7, 18),
            ("E8", 8, 30),
            ("F4", 4, 9),
            ("G2", 2, 4),
        ],
    )
    def test_values(self, tag, rank, expected):
        assert coxeter_number(realize(tag, rank, 1)) == expected

    def test_rescale_invariant(self):
        assert coxeter_number(realize("E8", 8, 3)) == 30
        assert coxeter_number(realize("C", 5, 2)) == 9

    def test_sum_rule_on_simply_laced_roots(self):
        # the root-side identity: sum (Gr)(Gr)^T = 2 h d G on the span
        for tag, rank, h in (("A", 3, 4), ("D", 5, 8), ("E8", 8, 30)):
            for d in (1, 2):
                comp = realize(tag, rank, d)
                c = sum_rule_constant(
                    comp.lattice.gram, [(r, 1) for r in comp.roots]
                )
                assert c == h * d

    def test_trace_oracle_agrees(self):
        # independent derivation: sum of root norms = 2 H rank on the span
        for tag, rank in (("B", 4, ), ("C", 6,), ("G2", 2,), ("F4", 4,)):
            comp = realize(tag, rank, 1)
            c = sum_rule_constant(comp.lattice.gram, [(r, 1) for r in comp.roots])
            trace = sum(comp.lattice.norm(r) for r in comp.roots)
            assert 2 * c * comp.rank == trace


MC_TABLE_CASES = [
    ("A", 1, 1, "2d", "i", Q(1, 2)),
    ("A", 1, 1, "2d", "ii", Q(2)),
    ("A", 1, 1, "2d", "iii", Q(3, 2)),
    ("A", 1, 2, "d", None, Q(1)),
    ("A", 5, 1, "d", None, Q(6)),
    ("B", 2, 1, "2d", "iii", Q(5, 2)),
    ("B", 4, 2, "d", None, Q(5, 2)),
    ("B", 6, 1, "2d", "i", Q(11, 2)),
    ("C", 3, 1, "d", None, Q(5)),
    ("C", 8, 2, "d", None, Q(15, 2)),
    ("D", 5, 1, "d", None, Q(8)),
    ("E6", 6, 2, "d", None, Q(6)),
    ("E7", 7, 2, "d", None, Q(9)),
    ("E8", 8, 3, "d", None, Q(10)),
    ("G2", 2, 1, "d", None, Q(4)),
    ("F4", 4, 1, "d", None, Q(9)),
]


class TestModifiedCoxeter:
    @pytest.mark.parametrize("tag,rank,d,div_case,subcase,expected", MC_TABLE_CASES)
    def test_table(self, tag, rank, d, div_case, subcase, expected):
        assert modified_coxeter_value(tag, rank, d, div_case, subcase) == expected

    def test_subcase_required(self):
        comp = realize("A", 1, 1)  # natural short div is 2d here
        with pytest.raises(SubcaseRequiredError):
            modified_coxeter(comp)
        with pytest.raises(SubcaseRequiredError):
            build_dual_set(comp)

    def test_component_routing(self):
        comp = dataclasses.replace(realize("B", 3, 1), subcase="iii")
        assert modified_coxeter(comp) == Q(7, 2)
        plain = dataclasses.replace(realize("B", 3, 1), short_div=1)
        assert modified_coxeter(plain) == Q(4)


class TestDualSets:
    def test_c_dualizes_to_b_shape(self):
        comp = realize("C", 4, 1)
        ds = build_dual_set(comp)
        norms = sorted(comp.lattice.norm(x.coords) for x in ds)
        # B4 at half scale: 8 short of norm 1, 24 long of norm 2
        assert norms == [Q(1)] * 8 + [Q(2)] * 24

    def test_g2_dualizes_to_third_scale(self):
        comp = realize("G2", 2, 1)
        ds = build_dual_set(comp)
        norms = sorted(comp.lattice.norm(x.coords) for x in ds)
        assert norms == [Q(2, 3)] * 6 + [Q(2)] * 6

    def test_a1_subcase_ii_union(self):
        comp = dataclasses.replace(realize("A", 1, 1), subcase="ii")
        ds = build_dual_set(comp)
        norms = sorted(comp.lattice.norm(x.coords) for x in ds)
        assert norms == [Q(1, 2), Q(1, 2), Q(2), Q(2)]
        flags = {tuple(x.coords): x.half_in_dual for x in ds}
        assert flags[(Q(1),)] is True and flags[(Q(1, 2),)] is False

    def test_b_subcase_ii_adds_a1_block(self):
        comp = dataclasses.replace(realize("B", 2, 1), subcase="ii")
        ds = build_dual_set(comp)
        assert len(ds) == 4 + 4 + 4  # long/2d, short/d, short/2d


class TestSumRuleOracle:
    """Modified Coxeter numbers against the exact matrix identity."""

    def variants(self, comp):
        if comp.type_tag == "B" or (comp.type_tag == "A" and comp.rank == 1):
            yield dataclasses.replace(comp, short_div=comp.d, subcase=None)
            for sub in ("i", "ii", "iii"):
                yield dataclasses.replace(comp, subcase=sub)
        else:
            yield comp

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_sample_ranks(self, d):
        from orthoforms import quadratic_weyl_constant, qzero_from_dual_sets

        specs = [("A", 1), ("A", 4), ("B", 2), ("B", 5), ("C", 3), ("D", 4), ("G2", 2), ("F4", 4), ("E6", 6)]
        for tag, rank in specs:
            for comp in self.variants(realize(tag, rank, d)):
                phi = qzero_from_dual_sets(comp.lattice, [build_dual_set(comp)])
                assert quadratic_weyl_constant(phi).c == modified_coxeter(comp), comp.label


# ---------------------------------------------------------------------------
# decompose and the sum rule against naive Fraction oracles
# ---------------------------------------------------------------------------


def fraction_pairing(gram, u, v):
    n = len(gram)
    return sum(Q(u[i]) * gram[i][j] * Q(v[j]) for i in range(n) for j in range(n))


def naive_components(lat, roots):
    """Connected components of the non-orthogonality graph, by Fraction pairings."""
    parent = list(range(len(roots)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            if fraction_pairing(lat.gram, roots[i], roots[j]) != 0:
                parent[find(i)] = find(j)
    groups = {}
    for i, r in enumerate(roots):
        groups.setdefault(find(i), []).append(r)
    return sorted(tuple(sorted(g)) for g in groups.values())


def check_decompose(lat, max_norm):
    rd = detect_roots(lat, max_norm)
    comps = decompose(rd)
    assert sorted(c.roots for c in comps) == naive_components(lat, rd.roots)
    return comps


class TestDecomposeAgainstNaive:
    def test_a2_a1_d4(self):
        lat = direct_sum(*(builtin_lattice(x) for x in ("A2", "A1", "D4")))
        comps = check_decompose(lat, 2)
        assert [(c.type_tag, c.rank) for c in comps] == [("A", 1), ("A", 2), ("D", 4)]

    def test_3a1_a2(self):
        lat = direct_sum(builtin_lattice("3A1"), builtin_lattice("A2"))
        comps = check_decompose(lat, 2)
        assert [(c.type_tag, c.rank) for c in comps] == [("A", 1)] * 3 + [("A", 2)]

    def test_d4_a2_norm4(self):
        lat = direct_sum(builtin_lattice("D4"), builtin_lattice("A2"))
        comps = check_decompose(lat, 4)
        assert [(c.type_tag, c.rank) for c in comps] == [("A", 2), ("F4", 4)]

    def test_rescaled_summands(self):
        lat = direct_sum(*(builtin_lattice(x) for x in ("A2", "A2(2)", "A3(2)")))
        comps = check_decompose(lat, 4)
        assert [(c.type_tag, c.rank, c.d) for c in comps] == [("A", 2, 1), ("A", 2, 2), ("A", 3, 2)]

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.sampled_from(["A1", "A2", "A3", "D4", "2A1"]), min_size=1, max_size=3))
    def test_random_direct_sums(self, names):
        lattices = [builtin_lattice(x) for x in names]
        if sum(l.rank for l in lattices) > 7:
            lattices = lattices[:1]
        check_decompose(direct_sum(*lattices), 2)


def naive_sum_rule(gram, weighted):
    """The sum rule constant in Fractions, with sympy choosing the spanning basis."""
    vectors = [(tuple(Q(x) for x in v), Q(w)) for v, w in weighted]
    n = len(gram)
    s = [[sum(w * g[i] * g[j] for g, w in ((linalg.mat_vec(gram, v), w) for v, w in vectors))
          for j in range(n)] for i in range(n)]
    basis = []
    for v, _ in vectors:
        if sympy.Matrix([list(b) for b in basis] + [list(v)]).rank() > len(basis):
            basis.append(v)
    c = None
    for x in basis:
        for y in basis:
            lhs = sum(x[i] * s[i][j] * y[j] for i in range(n) for j in range(n))
            rhs = fraction_pairing(gram, x, y)
            if rhs == 0:
                if lhs != 0:
                    return None
            elif c is None:
                c = lhs / rhs
            elif c != lhs / rhs:
                return None
    return None if c is None else c / 2


SCALES = st.sampled_from([Q(1), Q(2), Q(1, 2), Q(1, 3), Q(-3, 2)])


class TestSumRuleAgainstNaive:
    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from([("A", 2), ("A", 3), ("D", 4), ("G2", 2), ("B", 3), ("C", 3)]),
        st.integers(1, 2),
        st.builds(Q, st.integers(-5, 5), st.integers(1, 6)),
        st.data(),
    )
    def test_rescaled_roots(self, spec, d, weight, data):
        # x -> x/lam with weight lam^2 leaves each term unchanged, so c stays w h d
        comp = realize(spec[0], spec[1], d)
        lams = data.draw(st.lists(SCALES, min_size=len(comp.roots), max_size=len(comp.roots)))
        weighted = [
            (tuple(Q(x) / lam for x in r), weight * lam * lam)
            for r, lam in zip(comp.roots, lams)
        ]
        got = sum_rule_constant(comp.lattice.gram, weighted)
        assert got == naive_sum_rule(comp.lattice.gram, weighted)
        if weight:
            assert got == weight * sum_rule_constant(comp.lattice.gram, [(r, 1) for r in comp.roots])

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["A1", "A2", "3A1", "D4"]), st.data())
    def test_random_vectors(self, name, data):
        gram = builtin_lattice(name).gram
        coord = st.builds(Q, st.integers(-3, 3), st.integers(1, 4))
        weighted = data.draw(st.lists(
            st.tuples(st.tuples(*[coord] * len(gram)), st.builds(Q, st.integers(-3, 3), st.integers(1, 3))),
            min_size=1, max_size=5,
        ))
        assert sum_rule_constant(gram, weighted) == naive_sum_rule(gram, weighted)
