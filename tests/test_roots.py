import dataclasses
import itertools
import random
from collections import Counter
from fractions import Fraction as Q
from math import isqrt, lcm, prod
from types import SimpleNamespace
from typing import Sequence

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from orthoforms import (
    Lattice,
    SubcaseRequiredError,
    UnrecognizedRootSystemError,
    build_dual_set,
    builtin_lattice,
    coxeter_number,
    decompose,
    detect_roots,
    modified_coxeter,
    modified_coxeter_value,
    realize,
    rescale,
    sum_rule_constant,
)
from orthoforms import linalg
from orthoforms import roots as roots_mod
from orthoforms.roots import (
    TYPES,
    InconsistentDivProfileError,
    IrreducibleComponent,
    RootDatum,
    _class_div,
    _identify,
    _orthogonal_frame,
)
from orthoforms.lattice import short_vectors

from helpers import direct_sum, div, reflect


class TestDetect:
    def test_a2(self):
        assert len(detect_roots(builtin_lattice("A2"), 2).roots) == 6

    def test_d4_includes_norm4_class(self):
        rd = detect_roots(builtin_lattice("D4"), 4)
        assert Counter(rd.lattice.norm(r) for r in rd.roots) == {2: 24, 4: 24}

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
            _identify(lat, entries(lat, [(1, 0), (-1, 0), (0, 1), (0, -1)]))


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
                c = quadratic_weyl_constant(phi).c
                assert c == modified_coxeter(comp), comp.label
                # the support spans the lattice, so the span-restricted rule agrees
                assert c == sum_rule_constant(comp.lattice.gram, phi.q0_entries()), comp.label


# ---------------------------------------------------------------------------
# decompose and the sum rule against naive Fraction oracles
# ---------------------------------------------------------------------------


def fraction_pairing(gram, u, v):
    n = len(gram)
    return sum(Q(u[i]) * gram[i][j] * Q(v[j]) for i in range(n) for j in range(n))


def entries(lat, roots):
    """The (root, norm, div) entries _identify reads, computed one by one."""
    return [(r, int(lat.norm(r)), div(lat, r)) for r in roots]


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


HYPERBOLIC = ((0, 1), (1, 0))  # the hyperbolic plane, indefinite
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
    @given(
        st.sampled_from([builtin_lattice(name).gram for name in ("A1", "A2", "3A1", "D4")] + [HYPERBOLIC]),
        st.data(),
    )
    def test_random_vectors(self, gram, data):
        coord = st.builds(Q, st.integers(-3, 3), st.integers(1, 4))
        weighted = data.draw(st.lists(
            st.tuples(st.tuples(*[coord] * len(gram)), st.builds(Q, st.integers(-3, 3), st.integers(1, 3))),
            min_size=1, max_size=5,
        ))
        assert sum_rule_constant(gram, weighted) == naive_sum_rule(gram, weighted)

    def test_isotropic_span(self):
        # (1, 0) spans an isotropic line: the Gram matrix on the span is zero
        assert sum_rule_constant(HYPERBOLIC, [((1, 0), 1)]) is None
        assert naive_sum_rule(HYPERBOLIC, [((1, 0), 1)]) is None


# ---------------------------------------------------------------------------
# the Cartan-type table against the per-type code it replaced
# ---------------------------------------------------------------------------
# Verbatim copies of the per-type chains that roots.TYPES replaced (only the
# names of the top-level functions carry a chain_ prefix).  The table-driven
# code must agree with them on every case below, up to two differences:
# the E6/E7/E8/F4/G2 rank messages take the A-D wording, and realize rejects
# a rank outside the type's range with a ValueError up front.

SIMPLY_LACED = ("A", "D", "E6", "E7", "E8")
DOUBLY_LACED = ("B", "C", "F4")
ALL_TYPES = SIMPLY_LACED + DOUBLY_LACED + ("G2",)


def chain_post_init(self):
    t, n = self.type_tag, self.rank
    if t not in ALL_TYPES:
        raise ValueError(f"unknown type tag {t!r}")
    bounds = {"A": (1, 8), "B": (2, 8), "C": (3, 8), "D": (4, 8)}
    if t in bounds and not bounds[t][0] <= n <= bounds[t][1]:
        raise ValueError(f"rank {n} out of range for type {t}")
    if t in ("E6", "E7", "E8") and n != int(t[1]):
        raise ValueError(f"type {t} must have rank {t[1]}")
    if t == "F4" and n != 4 or t == "G2" and n != 2:
        raise ValueError(f"bad rank {n} for {t}")
    if self.d < 1:
        raise ValueError("rescale must be positive")
    ambiguous = t == "B" or (t == "A" and n == 1)
    if ambiguous:
        if self.short_div not in (self.d, 2 * self.d):
            raise InconsistentDivProfileError(
                f"short-root div {self.short_div} must be d or 2d for {t}{n}"
            )
    elif self.short_div != self.d:
        raise InconsistentDivProfileError(
            f"short-root div {self.short_div} must equal d={self.d} for {t}{n}"
        )
    expected_long = {"B": 2, "C": 2, "F4": 2, "G2": 3}
    if t in expected_long:
        if self.long_div != expected_long[t] * self.d:
            raise InconsistentDivProfileError(
                f"long-root div {self.long_div} inconsistent for {t}{n}(d={self.d})"
            )
    elif self.long_div is not None:
        raise InconsistentDivProfileError(f"type {t} has no long roots")
    if self.subcase is not None:
        if self.subcase not in ("i", "ii", "iii"):
            raise ValueError(f"bad subcase {self.subcase!r}")
        if not (ambiguous and self.short_div == 2 * self.d):
            raise ValueError("subcase tag only applies to A1/B with div 2d")


def chain_identify(lat: Lattice, roots: Sequence[tuple[int, ...]]) -> IrreducibleComponent:
    by_norm: dict[int, list] = {}
    for r in roots:
        by_norm.setdefault(int(lat.norm(r)), []).append(r)
    norms = sorted(by_norm)
    k = linalg.rank(tuple(roots))
    count = len(roots)
    if len(norms) == 1:
        nn = norms[0]
        if nn % 2:
            raise UnrecognizedRootSystemError(f"odd root norm {nn}")
        d = nn // 2
        if k == 1 and count == 2:
            tag = "A"
        elif count == k * (k + 1):
            tag = "A"
        elif k >= 4 and count == 2 * k * (k - 1):
            tag = "D"
        elif (k, count) in ((6, 72), (7, 126), (8, 240)):
            tag = f"E{k}"
        else:
            raise UnrecognizedRootSystemError(
                f"single-norm system: rank {k}, {count} roots, norm {nn}"
            )
        return IrreducibleComponent(
            lat, tag, k, d, tuple(roots), _class_div([div(lat, r) for r in roots]), None
        )
    if len(norms) == 2:
        n1, n2 = norms
        c1, c2 = len(by_norm[n1]), len(by_norm[n2])
        if n1 % 2:
            raise UnrecognizedRootSystemError(f"odd short norm {n1}")
        d = n1 // 2
        short_div = _class_div([div(lat, r) for r in by_norm[n1]])
        long_div = _class_div([div(lat, r) for r in by_norm[n2]])
        if n2 == 3 * n1 and k == 2 and c1 == c2 == 6:
            tag = "G2"
        elif n2 == 2 * n1:
            if k == 4 and c1 == c2 == 24:
                tag = "F4"
            elif c1 == 2 * k and c2 == 2 * k * (k - 1):
                tag = "B"
            elif k >= 3 and c1 == 2 * k * (k - 1) and c2 == 2 * k:
                tag = "C"
            else:
                raise UnrecognizedRootSystemError(
                    f"two-norm system: rank {k}, counts ({c1},{c2}), norms ({n1},{n2})"
                )
        else:
            raise UnrecognizedRootSystemError(
                f"norm ratio {Q(n2, n1)} matches no crystallographic type"
            )
        return IrreducibleComponent(
            lat, tag, k, d, tuple(roots), short_div, long_div
        )
    raise UnrecognizedRootSystemError(f"{len(norms)} distinct root norms")


def chain_modified_coxeter_value(
    type_tag: str, rank: int, d: int, div_case: str, subcase: str | None
) -> Q:
    """Table of modified Coxeter numbers keyed by (type, d, div case, subcase).

    ``div_case`` is "d" or "2d" and describes the div of the short roots in
    the ambient lattice; it only branches for A1 and B components.
    """
    n = rank
    if type_tag == "A" and n == 1:
        if div_case == "d":
            return Q(2, d)
        return {"i": Q(1, 2 * d), "ii": Q(2, d), "iii": Q(3, 2 * d)}[
            _subcase_key(type_tag, subcase)
        ]
    if type_tag == "B":
        if div_case == "d":
            return Q(n + 1, d)
        return {
            "i": Q(2 * n - 1, 2 * d),
            "ii": Q(n + 1, d),
            "iii": Q(2 * n + 1, 2 * d),
        }[_subcase_key(type_tag, subcase)]
    if div_case != "d":
        raise InconsistentDivProfileError(f"div 2d does not occur for type {type_tag}")
    if type_tag == "A":
        return Q(n + 1, d)
    if type_tag == "C":
        return Q(2 * n - 1, d)
    if type_tag == "D":
        return Q(2 * (n - 1), d)
    if type_tag in ("E6", "E7", "E8"):
        return Q({"E6": 12, "E7": 18, "E8": 30}[type_tag], d)
    if type_tag == "G2":
        return Q(4, d)
    if type_tag == "F4":
        return Q(9, d)
    raise ValueError(f"unknown type {type_tag}")


def _subcase_key(type_tag: str, subcase: str | None) -> str:
    if subcase not in ("i", "ii", "iii"):
        raise SubcaseRequiredError(
            f"type {type_tag} with short div 2d requires a subcase tag"
        )
    return subcase


def chain_realize(type_tag: str, rank: int, d: int = 1) -> IrreducibleComponent:
    """Build a concrete component of the given type on a built-in lattice.

    A_n, D_n, E_n come from their own root lattices; B_n lives on nA1, C_n
    on D_n (with an orthogonal long frame), G2 on A2, F4 on D4.
    """
    if type_tag == "A":
        lat = _maybe_rescale(builtin_lattice(f"A{rank}"), d)
        comps = decompose(detect_roots(lat, 2 * d))
    elif type_tag == "D":
        lat = _maybe_rescale(builtin_lattice(f"D{rank}"), d)
        comps = decompose(detect_roots(lat, 2 * d))
    elif type_tag in ("E6", "E7", "E8"):
        lat = _maybe_rescale(builtin_lattice(type_tag), d)
        comps = decompose(detect_roots(lat, 2 * d))
    elif type_tag == "B":
        base = builtin_lattice(f"{rank}A1") if rank >= 2 else builtin_lattice("A1")
        lat = _maybe_rescale(base, d)
        comps = decompose(detect_roots(lat, 4 * d))
    elif type_tag == "G2":
        lat = _maybe_rescale(builtin_lattice("A2"), d)
        comps = decompose(detect_roots(lat, 6 * d))
    elif type_tag == "F4":
        lat = _maybe_rescale(builtin_lattice("D4"), d)
        comps = decompose(detect_roots(lat, 4 * d))
    elif type_tag == "C":
        base = builtin_lattice("A3") if rank == 3 else builtin_lattice(f"D{rank}")
        lat = _maybe_rescale(base, d)
        rd = detect_roots(lat, 4 * d)
        shorts = [r for r in rd.roots if lat.norm(r) == 2 * d]
        frame = _orthogonal_frame(lat, [r for r in rd.roots if lat.norm(r) == 4 * d])
        if len(frame) != 2 * rank:
            raise AssertionError(f"C{rank} long frame has {len(frame)} vectors")
        comps = decompose(RootDatum(lat, tuple(sorted(shorts + frame))))
    else:
        raise ValueError(f"unknown type {type_tag}")
    if len(comps) != 1 or comps[0].type_tag != type_tag or comps[0].rank != rank:
        raise AssertionError(f"realization of {type_tag}{rank}({d}) failed: {comps}")
    return comps[0]


def _maybe_rescale(lat: Lattice, d: int) -> Lattice:
    return rescale(lat, d) if d != 1 else lat


def outcome(fn, *args):
    """The value of fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # every exception is compared, not just ValueError
        return type(exc), str(exc)


GRID_TAGS = list(TYPES) + ["Z"]


class TestTableAgainstChains:
    def test_component_checks(self):
        reworded = 0
        lat = builtin_lattice("A1")
        for tag, n, d in itertools.product(GRID_TAGS, range(10), range(4)):
            for short_div, long_div, subcase in itertools.product(
                (d, 2 * d, d + 1), (None, 2 * d, 3 * d), (None, "i", "ii", "iii", "iv")
            ):
                fields = (tag, n, d, (), short_div, long_div, subcase)
                names = ("type_tag", "rank", "d", "roots", "short_div", "long_div", "subcase")
                old = outcome(chain_post_init, SimpleNamespace(**dict(zip(names, fields))))
                new = outcome(IrreducibleComponent, lat, *fields)
                if old is None:
                    assert isinstance(new, IrreducibleComponent)
                elif old != new:
                    assert old[0] is ValueError and old[1] in (f"type {tag} must have rank {tag[1]}", f"bad rank {n} for {tag}")
                    assert new == (ValueError, f"rank {n} out of range for type {tag}")
                    reworded += 1
        # of 18,000 cases: E6, E7, E8, F4 and G2 at the nine ranks outside their range
        assert reworded == 5 * 9 * 4 * 45

    def test_modified_coxeter_value(self):
        for tag, n, d, div_case, subcase in itertools.product(
            GRID_TAGS, range(10), range(4), ("d", "2d"), (None, "i", "ii", "iii", "iv")
        ):
            args = (tag, n, d, div_case, subcase)
            assert outcome(modified_coxeter_value, *args) == outcome(chain_modified_coxeter_value, *args), args

    def test_realize(self):
        for tag, n, d in itertools.product(GRID_TAGS, range(10), range(4)):
            new = outcome(realize, tag, n, d)
            if tag in TYPES and n not in TYPES[tag].ranks:
                assert new == (ValueError, f"rank {n} out of range for type {tag}")
            else:
                assert new == outcome(chain_realize, tag, n, d), (tag, n, d)


def first_root_order(roots, groups):
    """The groups ordered by the position of their first member in roots."""
    position = {}
    for i, r in enumerate(roots):
        position.setdefault(r, i)
    return sorted(groups, key=lambda g: min(position[r] for r in g))


def check_identify(lat, roots):
    """_identify and decompose against the copy of the chain _identify, group by group.

    decompose identifies the groups in the order of their first root, so
    when some cannot be identified it must raise the first one's error.
    """
    groups = first_root_order(roots, naive_components(lat, roots))
    old = [outcome(chain_identify, lat, g) for g in groups]
    assert [outcome(_identify, lat, entries(lat, g)) for g in groups] == old
    if roots:
        new = outcome(decompose, RootDatum(lat, tuple(roots)))
        failed = [c for c in old if not isinstance(c, IrreducibleComponent)]
        if failed:
            assert new == failed[0]
        else:
            assert new == sorted(old, key=lambda c: (c.rank, c.type_tag, c.d, c.roots))
    return old


SUMMANDS = ["A1", "A2", "A3", "D4", "2A1", "3A1"]
ODD = [Lattice(((1,),)), Lattice(((3,),)), Lattice(((2, 1), (1, 3))), Lattice(((1, 0), (0, 2)))]


class TestIdentifyAgainstChains:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(st.sampled_from(SUMMANDS), st.integers(1, 3)), min_size=1, max_size=3),
        st.sampled_from([2, 4, 6]),
        st.booleans(),
    )
    def test_rescaled_direct_sums(self, parts, max_norm, odd):
        lattices = [builtin_lattice(f"{name}({d})") for name, d in parts]
        if odd:
            lattices.append(ODD[len(parts)])
        while sum(l.rank for l in lattices) > 6:
            lattices.pop(0)
        lat = direct_sum(*lattices)
        check_identify(lat, detect_roots(lat, max_norm).roots)

    @settings(max_examples=250, deadline=None)
    @given(
        st.sampled_from([("A", 1), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("D", 4), ("F4", 4), ("G2", 2)]),
        st.integers(1, 2),
        st.data(),
    )
    def test_subsets_of_realized_roots(self, spec, d, data):
        comp = realize(spec[0], spec[1], d)
        subset = data.draw(st.lists(st.sampled_from(comp.roots), unique=True, max_size=len(comp.roots)))
        check_identify(comp.lattice, sorted(subset))


@st.composite
def small_lattices(draw):
    """Direct sums of rank <= 4 of rescaled built-ins and the odd lattices."""
    summand = st.one_of(
        st.sampled_from(ODD),
        st.builds(lambda name, d: builtin_lattice(f"{name}({d})"), st.sampled_from(SUMMANDS), st.integers(1, 3)),
    )
    lattices = draw(st.lists(summand, min_size=1, max_size=3))
    while sum(l.rank for l in lattices) > 4:
        lattices.pop(0)
    return direct_sum(*lattices)


class TestDetectAgainstDefinition:
    @settings(max_examples=80, deadline=None)
    @given(small_lattices(), st.sampled_from([2, 4, 6]))
    def test_box_enumeration(self, lat, max_norm):
        # |v_i| <= sqrt(max_norm (G^-1)_ii) on the ellipsoid, independent of short_vectors
        dual = lat.dual_basis()
        radii = [isqrt(int(max_norm * dual[i][i])) for i in range(lat.rank)]
        box = [
            v for v in itertools.product(*(range(-r, r + 1) for r in radii))
            if any(v) and lat.norm(v) <= max_norm
        ]
        expected = [v for v in box if (2 * div(lat, v)) % lat.norm(v) == 0]
        rd = detect_roots(lat, max_norm)
        assert rd.roots == tuple(sorted(expected))
        assert rd.images == tuple(lat.gram_times(v) for v in rd.roots)


def exponent(lat):
    """The exponent of L*/L: the lcm of the dual basis denominators."""
    return lcm(*(x.denominator for row in lat.dual_basis() for x in row))


class TestMaxNormClamp:
    # the clamp is 4e² on the odd lattices and 2e² on the even ones (E8, A2, D4(2))
    @pytest.mark.parametrize("lat", [builtin_lattice("E8"), builtin_lattice("A2"), builtin_lattice("D4(2)"), *ODD])
    def test_large_max_norm_is_clamped_to_4e2(self, lat, monkeypatch):
        asked = []

        def spy(lat, max_norm):
            asked.append(max_norm)
            return short_vectors(lat, max_norm)

        monkeypatch.setattr(roots_mod, "short_vectors", spy)
        bound = (2 if lat.is_even else 4) * exponent(lat) ** 2
        assert detect_roots(lat, 10**6) == detect_roots(lat, bound)
        assert asked == [bound, bound]

    @settings(max_examples=40, deadline=None)
    @given(small_lattices().filter(lambda lat: lat.is_even))
    def test_even_roots_are_at_most_2e2(self, lat):
        # every root up to the general bound 4e², by box enumeration as in
        # TestDetectAgainstDefinition; boxes above 20,000 points are skipped
        e = exponent(lat)
        dual = lat.dual_basis()
        radii = [isqrt(int(4 * e * e * dual[i][i])) for i in range(lat.rank)]
        assume(prod(2 * r + 1 for r in radii) <= 20_000)
        norms = [
            n for v in itertools.product(*(range(-r, r + 1) for r in radii))
            if any(v) and (n := lat.norm(v)) <= 4 * e * e and (2 * div(lat, v)) % n == 0
        ]
        assert max(norms, default=0) <= 2 * e * e

    def test_e8(self):
        e8 = builtin_lattice("E8")
        assert detect_roots(e8, 10**6) == detect_roots(e8, 2)

    def test_bound_is_attained(self):
        # on Z, e = 1 and 2 is a root of norm 4 = 4e^2: (2, Z) = 2Z and 4 | 2 * 2
        assert detect_roots(Lattice(((1,),)), 10**6).roots == ((-2,), (-1,), (1,), (2,))

    def test_odd_max_norm_still_rejected(self):
        with pytest.raises(ValueError, match="positive even"):
            detect_roots(builtin_lattice("E8"), 10**6 + 1)


@st.composite
def vector_sets(draw, rank):
    """Sets of distinct nonzero integer vectors, in drawn order."""
    vector = st.tuples(*[st.integers(-2, 2)] * rank).filter(any)
    return draw(st.lists(vector, unique=True, min_size=1, max_size=12))


class TestDecomposeArbitraryVectors:
    @settings(max_examples=150, deadline=None)
    @given(small_lattices(), st.data())
    def test_partition_entries_and_order(self, lat, data):
        vectors = data.draw(vector_sets(lat.rank))
        seen = []

        def record(lat_, group):
            assert group == sorted(group) and group == entries(lat, [r for r, _, _ in group])
            seen.append(tuple(r for r, _, _ in group))
            return SimpleNamespace(rank=0, type_tag="", d=0, roots=seen[-1])

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(roots_mod, "_identify", record)
            decompose(RootDatum(lat, tuple(vectors)))
        assert sorted(seen) == naive_components(lat, vectors)
        assert seen == first_root_order(vectors, seen)

    @settings(max_examples=150, deadline=None)
    @given(small_lattices(), st.data())
    def test_identify_against_chain(self, lat, data):
        check_identify(lat, data.draw(vector_sets(lat.rank)))
