import dataclasses
import hashlib
import json
import re
from fractions import Fraction as Q
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

import pytest
from hypothesis import assume, given, settings, strategies as st

from orthoforms import (
    QZeroData,
    build_dual_set,
    builtin_lattice,
    character_data,
    quadratic_weyl_constant,
    qzero_from_dual_sets,
    realize,
    solve_weight,
    weyl_vector,
)
from orthoforms.lattice import Lattice
from orthoforms.linalg import is_positive_direction
from orthoforms.roots import DualRoot
from orthoforms.weyl import CoefficientConflictError, Coords, SymbolicWeightError, _image_reader

from helpers import dual_root

A1 = builtin_lattice("A1")


def phi_for(tag, rank, d, subcase=None, short_div=None, k=None):
    comp = realize(tag, rank, d)
    if subcase is not None or short_div is not None:
        comp = dataclasses.replace(
            comp, short_div=short_div or comp.short_div, subcase=subcase
        )
    return qzero_from_dual_sets(comp.lattice, [build_dual_set(comp)], k)


def solved(phi):
    k = solve_weight(phi)
    return k, weyl_vector(phi.with_weight(k))


class TestQZeroData:
    def test_requires_principal_part(self):
        with pytest.raises(ValueError, match="principal"):
            QZeroData(A1, {(0, (Q(1),)): 1, (0, (Q(-1),)): 1})

    def test_rejects_other_principal_parts(self):
        with pytest.raises(ValueError):
            QZeroData(A1, {(-1, (Q(0),)): 1, (-2, (Q(0),)): 1})
        with pytest.raises(ValueError):
            QZeroData(A1, {(-1, (Q(0),)): 2})

    def test_rejects_odd_support(self):
        with pytest.raises(ValueError, match="partner"):
            QZeroData(A1, {(-1, (Q(0),)): 1, (0, (Q(1),)): 1})

    def test_rejects_vectors_outside_dual(self):
        with pytest.raises(ValueError):
            QZeroData(A1, {(-1, (Q(0),)): 1, (0, (Q(1, 3),)): 1, (0, (Q(-1, 3),)): 1})

    def test_rejects_positive_index(self):
        with pytest.raises(ValueError):
            QZeroData(A1, {(-1, (Q(0),)): 1, (1, (Q(0),)): 1})

    def test_f00_of_a_quarter_weight_is_refused(self):
        # f(0, 0) = 2k = 1/2 is no coefficient; int() would read it as 0
        phi = QZeroData(A1, {(-1, (Q(0),)): 1}, Q(1, 4))
        with pytest.raises(ValueError, match=r"^f\(0,0\) must be an integer$"):
            phi.f(0, (0,))

    def test_repr(self):
        phi = QZeroData(A1, {(-1, (Q(0),)): 1}, 12)
        assert repr(phi) == "QZeroData(Lattice(A1), 1 entries, k=12)"

    def test_f_lookup(self):
        phi = QZeroData(A1, {(-1, (Q(0),)): 1}, 12)
        assert phi.f(-1, (0,)) == 1
        assert phi.f(0, (0,)) == 24
        assert phi.f(0, (1,)) == 0
        with pytest.raises(SymbolicWeightError):
            QZeroData(A1, {(-1, (Q(0),)): 1}).f(0, (0,))
        # the E8 table at k = 252: 240 roots of f(0, r) = 1, no principal part off 0
        comp = realize("E8", 8, 1)
        phi = qzero_from_dual_sets(comp.lattice, [build_dual_set(comp)], 252)
        r = comp.roots[0]
        assert phi.f(-1, (0,) * 8) == 1
        assert phi.f(-1, r) == 0
        assert phi.f(0, r) == 1
        assert phi.f(0, tuple(2 * x for x in r)) == 0
        assert phi.f(0, (0,) * 8) == 504


class TestAssembly:
    def test_e8_assembly(self):
        phi = phi_for("E8", 8, 1, k=252)
        entries = phi.q0_entries()
        assert len(entries) == 240
        assert all(v == 1 for _, v in entries)

    def test_a1_suppression(self):
        phi = phi_for("A", 1, 1, subcase="iii")
        table = dict(phi.q0_entries())
        assert table[(Q(1),)] == 1 and table[(Q(-1),)] == 1
        assert table[(Q(1, 2),)] == -1 and table[(Q(-1, 2),)] == -1

    def test_a1_case_ii_drops_half_vector(self):
        phi = phi_for("A", 1, 1, subcase="ii")
        table = dict(phi.q0_entries())
        assert table == {(Q(1),): 1, (Q(-1),): 1}

    def test_empty_dual_set(self):
        phi = qzero_from_dual_sets(A1, [], 12)
        assert phi.q0_entries() == []


class TestWeylVector:
    def test_e8(self):
        k, wv = solved(phi_for("E8", 8, 1))
        assert (k, wv.a, wv.c) == (252, 31, 30)
        assert wv.a == wv.c + 1

    def test_empty_weight_12(self):
        phi = QZeroData(A1, {(-1, (Q(0),)): 1}, 12)
        wv = weyl_vector(phi)
        assert (wv.a, wv.b, wv.c) == (1, (0,), 0)

    def test_a1_subcase_iii(self):
        k, wv = solved(phi_for("A", 1, 1, subcase="iii"))
        assert k == 30 and wv.c == Q(3, 2)

    def test_symbolic_weight_rejected(self):
        with pytest.raises(SymbolicWeightError):
            weyl_vector(phi_for("E8", 8, 1))

    def test_b_doubles_to_integral_vector(self):
        _, wv = solved(phi_for("E8", 8, 1))
        assert all((2 * x).denominator == 1 for x in wv.b)


class TestSumRule:
    def test_e8_constant(self):
        assert quadratic_weyl_constant(phi_for("E8", 8, 1)).c == 30

    def test_g2_constant(self):
        assert quadratic_weyl_constant(phi_for("G2", 2, 1)).c == 4

    @pytest.mark.parametrize(
        "name,l,reason",
        [
            ("A2", (1, 0), "left side has rank 1 and is not proportional to the Gram matrix"),
            ("2A1", (1, 1), "left side is not a Gram multiple"),
        ],
        ids=["A2", "2A1"],
    )
    def test_non_spanning_failure(self, name, l, reason):
        lat = builtin_lattice(name)
        phi = QZeroData(lat, {(-1, (0, 0)): 1, (0, l): 1, (0, tuple(-x for x in l)): 1})
        report = quadratic_weyl_constant(phi)
        assert not report.ok
        assert report.reason == reason

    def test_weyl_c_equals_sum_rule_c(self):
        for args in (("A", 3, 1), ("C", 4, 1), ("F4", 4, 2), ("E7", 7, 2)):
            phi = phi_for(*args)
            k = solve_weight(phi)
            wv = weyl_vector(phi.with_weight(k))
            assert wv.c == quadratic_weyl_constant(phi).c
            assert wv.a == wv.c + 1


class TestSolveWeight:
    @pytest.mark.parametrize(
        "args,kwargs,expected",
        [
            ((("E8", 8, 3)), {}, 12),
            ((("E8", 8, 1)), {}, 252),
            ((("E8", 8, 2)), {}, 72),
            ((("E7", 7, 2)), {}, 57),
            ((("A", 1, 1)), {"subcase": "iii"}, 30),
            ((("B", 8, 1)), {"short_div": 1}, 56),
        ],
    )
    def test_values(self, args, kwargs, expected):
        assert solve_weight(phi_for(*args, **kwargs)) == expected

    def test_failure_propagates(self):
        lat = builtin_lattice("A2")
        phi = QZeroData(
            lat, {(-1, (Q(0), Q(0))): 1, (0, (Q(1), Q(0))): 1, (0, (Q(-1), Q(0))): 1}
        )
        with pytest.raises(ValueError):
            solve_weight(phi)


class TestCharacter:
    def test_standard_shape(self):
        phi = QZeroData(A1, {(-1, (Q(0),)): 1}, 12)
        assert character_data(phi) == (1, -1)


# ---------------------------------------------------------------------------
# the integer q^0 table against the Fraction code it replaced
# ---------------------------------------------------------------------------
#
# ReferenceQZeroData.__init__ and reference_qzero_from_dual_sets are verbatim
# copies of the Fraction-keyed QZeroData.__init__ and qzero_from_dual_sets
# (with the class renamed); their table is ``_map``.  The copy's "conflict at
# {half}" error cannot fire: only members get +1, and a half gets -1 only
# when it is not a member.  The integer code has no such check.  Its four
# messages name a vector through _shown, as the integer code does: (1/10, -1).


def _normalize_coords(coords) -> Coords:
    return tuple(x if type(x) is Q else Q(x) for x in coords)


def in_dual(lattice: Lattice, coords) -> bool:
    """Whether coords pairs integrally with the lattice, read off the Fraction image."""
    return all(x.denominator == 1 for x in lattice.gram_times(_normalize_coords(coords)))


def _shown(coords: Coords) -> str:
    return f"({', '.join(map(str, coords))})"


class ReferenceQZeroData:
    def __init__(
        self,
        lattice: Lattice,
        entries: Mapping[tuple[int, Sequence], int],
        k: Q | int | None = None,
    ):
        self.lattice = lattice
        self.k = None if k is None else Q(k)
        table: dict[tuple[int, Coords], int] = {}
        zero = tuple(Q(0) for _ in range(lattice.rank))
        for (n, coords), value in entries.items():
            coords = _normalize_coords(coords)
            if len(coords) != lattice.rank:
                raise ValueError("coefficient vector has wrong length")
            if value == 0:
                continue
            if not isinstance(value, int):
                raise ValueError("coefficients must be integers")
            if n > 0:
                raise ValueError("q^0 data stores indices n <= 0 only")
            if n < 0 and (n != -1 or any(coords) or value != 1):
                raise ValueError(
                    "principal part must be exactly f(-1, 0) = 1"
                )
            if n == 0 and not any(coords):
                raise ValueError("f(0, 0) is carried by k, not by the table")
            if not in_dual(lattice, coords):
                raise ValueError(f"vector {_shown(coords)} does not pair integrally")
            key = (n, coords)
            if table.setdefault(key, value) != value:
                raise CoefficientConflictError(f"conflicting values at ({n}, {_shown(coords)})")
        if (-1, zero) not in table:
            raise ValueError("missing principal part f(-1, 0) = 1")
        for (n, coords), value in table.items():
            neg = (n, tuple(-x for x in coords))
            if table.get(neg) != value:
                raise ValueError(
                    f"coefficients are not even in l: f({n}, {_shown(coords)}) has no partner"
                )
        self._map = table


def reference_qzero_from_dual_sets(
    lattice: Lattice,
    dual_sets: Iterable[Sequence[DualRoot]],
    k: Q | int | None = None,
) -> ReferenceQZeroData:
    members: set[Coords] = set()
    half_flags: dict[Coords, bool] = {}
    for ds in dual_sets:
        for dr in ds:
            coords = _normalize_coords(dr.coords)
            if coords in half_flags and half_flags[coords] != dr.half_in_dual:
                raise CoefficientConflictError(
                    f"inconsistent duality flags for {_shown(coords)}"
                )
            members.add(coords)
            half_flags[coords] = dr.half_in_dual
    contributions: dict[Coords, int] = {}
    for x in members:
        half = tuple(v / 2 for v in x)
        double = tuple(2 * v for v in x)
        if half_flags[x]:
            contributions[x] = contributions.get(x, 0) + 1
            if half not in members:
                if contributions.get(half, 0) > 0:
                    raise CoefficientConflictError(f"conflict at {half}")
                contributions[half] = contributions.get(half, 0) - 1
        elif double not in members:
            contributions[x] = contributions.get(x, 0) + 1
    entries: dict[tuple[int, Coords], int] = {
        (0, coords): value for coords, value in contributions.items() if value
    }
    zero = tuple(Q(0) for _ in range(lattice.rank))
    entries[(-1, zero)] = 1
    return ReferenceQZeroData(lattice, entries, k)


def table_cases():
    """The 165 (type, rank, d, subcase, short_div override) components of the table."""
    out = []
    for d in (1, 2, 3):
        out.append(("A", 1, d, None, d))
        out += [("A", 1, d, sub, None) for sub in ("i", "ii", "iii")]
        out += [("A", n, d, None, None) for n in range(2, 9)]
        for n in range(2, 9):
            out.append(("B", n, d, None, d))
            out += [("B", n, d, sub, None) for sub in ("i", "ii", "iii")]
        out += [("C", n, d, None, None) for n in range(3, 9)]
        out += [("D", n, d, None, None) for n in range(4, 9)]
        out += [(tag, int(tag[1]), d, None, None) for tag in ("E6", "E7", "E8")]
        out += [("G2", 2, d, None, None), ("F4", 4, d, None, None)]
    return out


@lru_cache(maxsize=None)
def table_component(case):
    tag, n, d, sub, short_div = case
    comp = realize(tag, n, d)
    if short_div is not None:
        return dataclasses.replace(comp, short_div=short_div, subcase=None)
    return comp if sub is None else dataclasses.replace(comp, subcase=sub)


@lru_cache(maxsize=None)
def table_dual_set(case):
    return build_dual_set(table_component(case))


# sha256 of the q0_entries() and of the build_dual_set() of the 165
# components, recorded with the Fraction code before the integer code replaced it
Q0_ENTRIES_DIGEST = "c69e9310684c46eeb83a4fd2c450942df4ae46f9905c65bb41497950748822c3"
DUAL_SETS_DIGEST = "2bf9aab6e8ceef32be52675dea9e0abf3000baa2888fa6d56c9a6fbd75cc7a12"


def digest(docs):
    return hashlib.sha256(json.dumps(docs).encode()).hexdigest()


def test_table_components_against_reference():
    cases = table_cases()
    assert len(cases) == 165
    entries, dual_sets = [], []
    for case in cases:
        lat, ds = table_component(case).lattice, table_dual_set(case)
        phi = qzero_from_dual_sets(lat, [ds])
        assert phi.coefficient_table() == reference_qzero_from_dual_sets(lat, [ds])._map, case
        label = list(map(str, case))
        entries.append([label, [[[str(x) for x in c], v] for c, v in phi.q0_entries()]])
        dual_sets.append([label, [[[str(x) for x in dr.coords], dr.half_in_dual] for dr in ds]])
    assert digest(entries) == Q0_ENTRIES_DIGEST
    assert digest(dual_sets) == DUAL_SETS_DIGEST


# rank <= 4 components, with D > 1 from d = 2, 3 and the A1/B subcases
SMALL_CASES = [
    c for c in table_cases()
    if c[1] <= 4 and (c[0] in ("A", "B", "G2") or c[2] > 1)
]
SHOWN_VECTOR = re.compile(r"\((?:-?\d+(?:/\d+)?(?:, )?)+\)")  # a vector as _shown writes it


def outcome(build):
    """(coefficient table, None) or (None, (exception type, message))."""
    try:
        phi = build()
    except ValueError as exc:
        return None, (type(exc), str(exc))
    if isinstance(phi, ReferenceQZeroData):  # the old coefficient_table(): 2k is an int here
        f00 = {(0, tuple(Q(0) for _ in range(phi.lattice.rank))): int(2 * phi.k)} if phi.k else {}
        return {**phi._map, **f00}, None
    return phi.coefficient_table(), None


def negated(dr):
    return DualRoot(tuple(-x for x in dr.x), dr.den, dr.half_in_dual)


# the rank-7/8 components, whose tables are the largest the benchmark builds: E7, E8, C8, and B8
# in each subcase and with short div d
BIG_CASES = [("E7", 7, 1, None, None), ("E8", 8, 1, None, None), ("C", 8, 1, None, None)] + [
    ("B", 8, 1, sub, None) for sub in ("i", "ii", "iii")
] + [("B", 8, 1, None, 1)]


@st.composite
def even_dual_sets(draw, cases=SMALL_CASES):
    """A sublist of a component's dual set closed under negation, flags chosen per pair.

    A flag is set only where the half pairs integrally, so the table has at
    most one faulty vector: the injected one (a vector off the dual lattice,
    or a repeat with the other flag).
    """
    case = draw(st.sampled_from(cases))
    lat = table_component(case).lattice
    positive = [dr for dr in table_dual_set(case) if is_positive_direction(dr.x)]
    chosen = draw(st.lists(st.sampled_from(positive), unique=True))
    scale = draw(st.sampled_from([1, 1, 2, 3]))  # the set over a larger den than its lcm
    out = []
    for dr in chosen:
        half_ok = in_dual(lat, tuple(x / 2 for x in dr.coords))
        dr = dual_root(dr.coords, half_ok and draw(st.booleans()), scale)
        out += [dr, negated(dr)]
    out = draw(st.permutations(out))
    fault = draw(st.sampled_from([None, "flags", "off dual"]))
    if fault == "flags" and out:
        i = draw(st.integers(0, len(out) - 1))
        dr = out[i]
        out.insert(draw(st.integers(i + 1, len(out))), dr._replace(half_in_dual=not dr.half_in_dual))
    elif fault == "off dual":
        coords = tuple(
            Q(draw(st.integers(-6, 6)), draw(st.integers(1, 6))) for _ in range(lat.rank)
        )
        assume(not in_dual(lat, coords))
        out.insert(draw(st.integers(0, len(out))), dual_root(coords, draw(st.booleans())))
    return lat, out


@settings(max_examples=300, deadline=None)
@given(even_dual_sets(), st.sampled_from([None, 0, 12]))
def test_dual_sets_against_reference(lat_ds, k):
    lat, ds = lat_ds
    got = outcome(lambda: qzero_from_dual_sets(lat, [ds], k))
    assert got == outcome(lambda: reference_qzero_from_dual_sets(lat, [ds], k))


@settings(max_examples=40, deadline=None)
@given(even_dual_sets(BIG_CASES), st.sampled_from([None, 12]))
def test_big_dual_sets_against_reference(lat_ds, k):
    lat, ds = lat_ds
    got = outcome(lambda: qzero_from_dual_sets(lat, [ds], k))
    assert got == outcome(lambda: reference_qzero_from_dual_sets(lat, [ds], k))


@st.composite
def any_dual_sets(draw, cases=SMALL_CASES):
    """Any sublist of a component's dual set with any flags, split into one or two sets.

    Each set is over its own den, a multiple of the lcm of its denominators,
    so a vector may be spelled over two dens.
    """
    case = draw(st.sampled_from(cases))
    lat = table_component(case).lattice
    ds = draw(st.lists(st.sampled_from(table_dual_set(case)), unique=True))
    cut = draw(st.integers(0, len(ds)))
    sets = []
    for part in (ds[:cut], ds[cut:]):
        scale = draw(st.sampled_from([1, 2, 3]))
        sets.append([dual_root(dr.coords, draw(st.booleans()), scale) for dr in part])
    return lat, sets


@settings(max_examples=300, deadline=None)
@given(any_dual_sets())
def test_any_dual_sets_against_reference(lat_sets):
    """Where several vectors fail one check, each code names the first in its own order.

    The Fraction code visited its members in set (hash) order, the integer
    code visits them in input order, so only the failing check, the
    exception type and the message up to the vector named must agree.
    """
    check_against_reference(*lat_sets)


@settings(max_examples=40, deadline=None)
@given(any_dual_sets(BIG_CASES))
def test_any_big_dual_sets_against_reference(lat_sets):
    check_against_reference(*lat_sets)


def check_against_reference(lat, sets):
    """The same table as the reference, or the same failing check, exception type and message up to the vector."""
    got, got_err = outcome(lambda: qzero_from_dual_sets(lat, sets))
    want, want_err = outcome(lambda: reference_qzero_from_dual_sets(lat, sets))
    assert got == want
    if want_err is not None:
        assert got_err[0] is want_err[0]
        assert SHOWN_VECTOR.sub("l", got_err[1]) == SHOWN_VECTOR.sub("l", want_err[1])


COORD = st.one_of(
    st.integers(-2, 2), st.builds(Q, st.integers(-4, 4), st.sampled_from([1, 2, 3, 4, 6]))
)


@st.composite
def raw_entries(draw):
    """Coefficient maps for QZeroData(...): odd, off-dual, conflicting or wrongly shaped."""
    lat = builtin_lattice(draw(st.sampled_from(["A1", "A2", "A1(3)", "2A1", "A2(2)"])))
    entries = {}
    if draw(st.integers(0, 4)):
        entries[(-1, (0,) * lat.rank)] = 1
    for _ in range(draw(st.integers(0, 6))):
        n = draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
        size = lat.rank if draw(st.integers(0, 9)) else draw(st.integers(0, 3))
        l = tuple(draw(st.lists(COORD, min_size=size, max_size=size)))
        value = draw(st.integers(-2, 2))
        entries[(n, l)] = value
        partner = draw(st.sampled_from(["even", "odd", "conflict", None]))
        if partner == "conflict":  # the same key spelled as strings
            entries[(n, tuple(str(x) for x in l))] = value + 1
        elif partner:
            entries[(n, tuple(-Q(x) for x in l))] = value if partner == "even" else -value
    return lat, entries


@settings(max_examples=400, deadline=None)
@given(raw_entries(), st.sampled_from([None, 3]))
def test_constructor_against_reference(lat_entries, k):
    lat, entries = lat_entries
    assert outcome(lambda: QZeroData(lat, entries, k)) == outcome(
        lambda: ReferenceQZeroData(lat, entries, k)
    )


def test_equality_across_denominators():
    phi = phi_for("A", 1, 1, subcase="ii")  # from members 1 and 1/2: kept over 4
    same = QZeroData(A1, phi.coefficient_table())  # the table is f(0, +-1) = 1: over 1
    assert same == phi and QZeroData(A1, phi.coefficient_table(), 1) != phi
    quarters = QZeroData(
        builtin_lattice("A1(2)"), {(-1, (0,)): 1, (0, (Q(1, 4),)): 1, (0, (Q(-1, 4),)): 1}
    )
    # 1/3 is off the grid of quarters: it must not be read as 1 * (4 // 3) / 4
    assert quarters.f(0, (Q(1, 4),)) == 1 and quarters.f(0, (Q(1, 3),)) == 0


# ---------------------------------------------------------------------------
# one G l per ± pair: the kept images against the definitions
# ---------------------------------------------------------------------------


def reference_weyl_vector(phi):
    """(A, B, C) read off the Fraction entries: B = 1/2 sum_{l > 0} f l, C = sum f (l, l) / (2 rank)."""
    lat, entries = phi.lattice, phi.q0_entries()
    b = [Q(0)] * lat.rank
    for l, v in entries:
        if is_positive_direction(l):
            b = [x + v * y / 2 for x, y in zip(b, l)]
    c = sum((v * lat.norm(l) for l, v in entries), Q(0)) / (2 * lat.rank)
    return (sum(v for _, v in entries) + 2 * phi.k) / 24, tuple(b), c


def reference_sum_rule_c(phi):
    """C with sum_l f(0, l) (G l)(G l)^T = 2C G over every entry, in Fractions, or None."""
    lat = phi.lattice
    images = [(lat.gram_times(l), v) for l, v in phi.q0_entries()]
    s = [[sum(v * y[i] * y[j] for y, v in images) for j in range(lat.rank)] for i in range(lat.rank)]
    cells = [(s[i][j], g) for i, row in enumerate(lat.gram) for j, g in enumerate(row)]
    ratios = {a / (2 * g) for a, g in cells if g}
    return ratios.pop() if len(ratios) == 1 and all(a == 0 for a, g in cells if not g) else None


@st.composite
def reordered_tables(draw, cases=SMALL_CASES):
    """A component's q^0 table entered in any order, so either member of a pair may come first."""
    case = draw(st.sampled_from(cases))
    comp = table_component(case)
    table = qzero_from_dual_sets(comp.lattice, [table_dual_set(case)]).coefficient_table()
    return comp.lattice, dict(draw(st.permutations(list(table.items()))))


@settings(max_examples=150, deadline=None)
@given(reordered_tables(), st.sampled_from([0, 12, Q(5, 2)]))
def test_kept_images_against_definitions(lat_table, k):
    check_kept_images(*lat_table, k)


@settings(max_examples=15, deadline=None)
@given(reordered_tables(BIG_CASES), st.sampled_from([0, 12]))
def test_big_kept_images_against_definitions(lat_table, k):
    check_kept_images(*lat_table, k)


def check_kept_images(lat, table, k):
    """The Weyl vector and the sum-rule C from the kept images, against the Fraction definitions."""
    phi = QZeroData(lat, table, k)
    wv = weyl_vector(phi)
    assert (wv.a, wv.b, wv.c) == reference_weyl_vector(phi)
    assert quadratic_weyl_constant(phi).c == reference_sum_rule_c(phi)


A2 = builtin_lattice("A2")
OFF = (Q(1, 3), Q(0))  # G l = (2/3, -1/3): off the dual lattice of A2
OFF_NEG = (Q(-1, 3), Q(0))


@pytest.mark.parametrize(
    "entries,message",
    [
        ([(OFF_NEG, 1), (OFF, 1)], "vector (-1/3, 0) does not pair integrally"),
        ([(OFF, 1), (OFF_NEG, 1)], "vector (1/3, 0) does not pair integrally"),
        ([((1, 0), 1), ((-1, 0), 1), (OFF_NEG, 1)], "vector (-1/3, 0) does not pair integrally"),
        ([(OFF_NEG, 1)], "vector (-1/3, 0) does not pair integrally"),
        ([((Q(1, 2), 0), 1), (OFF_NEG, 1)], "vector (1/2, 0) does not pair integrally"),
        ([((-1, 0), 1), ((1, 0), 2)], "coefficients are not even in l: f(0, (-1, 0)) has no partner"),
        ([((1, 0), 2), ((-1, 0), 1)], "coefficients are not even in l: f(0, (1, 0)) has no partner"),
        ([((-1, 0), 1)], "coefficients are not even in l: f(0, (-1, 0)) has no partner"),
        ([((1, 0), 1), ((-1, 0), 1), (("-1", "0"), 2)], "conflicting values at (0, (-1, 0))"),
        ([((-1, 0), 1), (("-1", "0"), 2), ((1, 0), 1)], "conflicting values at (0, (-1, 0))"),
        ([((1, 0), Q(1, 2)), ((-1, 0), Q(1, 2))], "coefficients must be integers"),
    ],
)
@pytest.mark.parametrize("principal_first", [True, False])
def test_first_error_with_partners_before_and_after(entries, message, principal_first):
    principal = [((-1, (0, 0)), 1)]
    q0 = [((0, l), v) for l, v in entries]
    table = dict(principal + q0 if principal_first else q0 + principal)
    got = outcome(lambda: QZeroData(A2, table))
    assert got == outcome(lambda: ReferenceQZeroData(A2, table))
    assert got[1][1] == message


def b8_ii_set():
    return table_component(("B", 8, 1, "ii", None)).lattice, list(table_dual_set(("B", 8, 1, "ii", None)))


# on 8A1, G l = 2 l: (1/3, 0, ...) pairs to 2/3, off the dual lattice
OFF_DUAL_B8 = dual_root((Q(1, 3),) + (0,) * 7, False)


@pytest.mark.parametrize(
    "edit,error,message",
    [
        # the flag conflict is found over the whole set before any member is paired
        (lambda ds: [OFF_DUAL_B8] + ds + [ds[5]._replace(half_in_dual=not ds[5].half_in_dual)],
         CoefficientConflictError, "inconsistent duality flags for (-1/2, 0, 0, 0, 0, -1/2, 0, 0)"),
        (lambda ds: ds + [ds[5]._replace(half_in_dual=not ds[5].half_in_dual), OFF_DUAL_B8],
         CoefficientConflictError, "inconsistent duality flags for (-1/2, 0, 0, 0, 0, -1/2, 0, 0)"),
        # an off-dual member is named where it is stored, before any pair is found odd
        (lambda ds: ds[1:] + [OFF_DUAL_B8], ValueError, "vector (1/3, 0, 0, 0, 0, 0, 0, 0) does not pair integrally"),
        # a missing partner: the first entry in table order whose partner is absent is named
        (lambda ds: ds[:-1], ValueError,
         "coefficients are not even in l: f(0, (-1, 0, 0, 0, 0, 0, 0, 0)) has no partner"),
        (lambda ds: ds[1:], ValueError,
         "coefficients are not even in l: f(0, (-1/2, 0, 0, 0, 0, 0, 0, 0)) has no partner"),
    ],
    ids=["off-dual-before-conflict", "off-dual-after-conflict", "off-dual-and-missing-partner",
         "missing-last-partner", "missing-first-partner"],
)
def test_first_error_of_a_malformed_b8_set(edit, error, message):
    lat, ds = b8_ii_set()
    sets = [edit(ds)]
    assert outcome(lambda: qzero_from_dual_sets(lat, sets)) == (None, (error, message))
    check_against_reference(lat, sets)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(-3, 3) | st.integers(-10**30, 10**30), min_size=n, max_size=n), min_size=n, max_size=n),
    st.lists(st.lists(st.integers(-4, 4) | st.integers(-10**40, 10**40), min_size=n, max_size=n), min_size=1, max_size=6),
    st.sampled_from([1, 2, 3, 4, 6, 12, 10**20 + 39]),
)))
def test_image_reader_against_products(data):
    """G x / den or None, from one reader over x of growing and shrinking size, against the sums."""
    gram, xs, den = data
    image = _image_reader(gram, den)
    for x in xs:
        gx = [sum(g * v for g, v in zip(row, x)) for row in gram]
        want = tuple(v // den for v in gx) if all(v % den == 0 for v in gx) else None
        assert image(tuple(x)) == want
        # a multiple of den times x always pairs into den
        assert image(tuple(den * v for v in x)) == tuple(gx)
