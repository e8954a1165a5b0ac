import hashlib
from collections import Counter
from fractions import Fraction as Q

import pytest

from orthoforms import (
    build_dual_set,
    enumerate_candidates,
    full_table,
    ledger_arithmetic_checks,
    modified_coxeter_value,
    realize,
    resolve,
)
from orthoforms import classify
from orthoforms.classify import (
    GROUP_DK,
    GROUP_FULL,
    ACCEPTED,
    EXCLUDED,
    GROUP_O1,
    ClassificationError,
    CandidateSystem,
    report_to_json,
    report_to_text,
)
from orthoforms.cli import main
from orthoforms.roots import TYPES

# the 26 accepted pairs in display order
EXPECTED_26 = (
    ("A1", GROUP_FULL),
    ("2A1", GROUP_FULL),
    ("3A1", GROUP_FULL),
    ("4A1", GROUP_FULL),
    ("A2", GROUP_DK),
    ("A2", GROUP_FULL),
    ("A3", GROUP_DK),
    ("A3", GROUP_FULL),
    ("A4", GROUP_DK),
    ("A5", GROUP_DK),
    ("A6", GROUP_DK),
    ("A7", GROUP_DK),
    ("D4", GROUP_DK),
    ("D5", GROUP_DK),
    ("D6", GROUP_DK),
    ("D7", GROUP_DK),
    ("D8", GROUP_DK),
    ("D4", GROUP_FULL),
    ("D5", GROUP_FULL),
    ("D6", GROUP_FULL),
    ("D7", GROUP_FULL),
    ("D8", GROUP_FULL),
    ("D4", GROUP_O1),
    ("E6", GROUP_DK),
    ("E7", GROUP_FULL),
    ("E8", GROUP_FULL),
)


def _scan_modified_coxeter(max_d=12):
    """(family, n, d, div case, subcase) of every table branch passing both filters.

    A branch passes when its modified Coxeter number is an integer of at
    least rank + 1; the short roots have div d, or div 2d in a subcase for
    A1 and B.
    """
    families = {
        "A": range(1, 9),
        "B": range(2, 9),
        "C": range(3, 9),
        "D": range(4, 9),
        "E6": (6,),
        "E7": (7,),
        "E8": (8,),
        "G2": (2,),
        "F4": (4,),
    }
    passing = set()
    for family, ranks in families.items():
        for d in range(1, max_d + 1):
            for n in ranks:
                branches = [("d", None)]
                if family == "B" or (family == "A" and n == 1):
                    branches += [("2d", s) for s in ("i", "ii", "iii")]
                for div_case, sub in branches:
                    h = modified_coxeter_value(family, n, d, div_case, sub)
                    if h.denominator == 1 and h >= n + 1:
                        passing.add((family, n, d, div_case, sub))
    return passing


class TestPool:
    def test_regenerated_by_brute_force(self):
        """The enumerated (family, d) pairs match a scan over all table cases.

        A (family, d) pair is admissible when some rank <= 8 gives an
        integral modified Coxeter number of at least rank + 1, for at least
        one div/subcase branch.
        """
        regenerated = {(family, d) for family, _, d, _, _ in _scan_modified_coxeter()}
        enumerated = {(family, d) for c in enumerate_candidates() for family, _, d in c.components}
        assert regenerated == enumerated

    def test_pool_values_integral(self):
        """Each enumerated component's TYPES value h(n)/d is the table's integral value."""
        components = {comp for c in enumerate_candidates() for comp in c.components}
        assert len(components) == 34
        for family, n, d in components:
            h = modified_coxeter_value(family, n, d, "d", None)
            assert h == Q(TYPES[family].h(n), d)
            assert h.denominator == 1 and h >= n + 1

    def test_short_div_2d_branches_not_enumerated(self):
        """The enumeration's stated assumption: only these div-2d branches pass both filters."""
        passing = {row for row in _scan_modified_coxeter() if row[3] == "2d"}
        expected = {("A", 1, 1, "2d", "ii")} | {("B", n, 1, "2d", "ii") for n in range(2, 9)}
        assert passing == expected


class TestEnumeration:
    def test_candidate_count_and_members(self):
        cands = enumerate_candidates()
        labels = {c.label for c in cands}
        assert len(cands) == 35
        assert "E8" in labels and "E8(3)" in labels and "2xF4(2)" in labels
        assert "A3+A3" not in labels  # h = 4 < 7
        multis = [c for c in cands if len(c.components) > 1]
        assert [c.label for c in multis] == ["2xF4(2)"]

    def test_filters(self):
        for c in enumerate_candidates():
            assert c.common_h.denominator == 1
            assert c.common_h >= c.total_rank + 1
            assert c.total_rank <= 8
            hs = {modified_coxeter_value(f, n, d, "d", None) for f, n, d in c.components}
            assert hs == {c.common_h}

    def test_monotone_in_rank_bound(self):
        prev: set = set()
        for bound in range(1, 9):
            current = {c.components for c in enumerate_candidates(bound)}
            assert prev <= current
            prev = current

    def test_e8_kept(self):
        cands = enumerate_candidates()
        assert any(c.components == (("E8", 8, 1),) for c in cands)


class TestResolve:
    def test_b4_maps_to_4a1(self):
        rec = resolve(CandidateSystem((("B", 4, 1),), 4, Q(5)))
        assert (rec.verdict, rec.lattice_label, rec.group_label) == (
            "accepted",
            "4A1",
            GROUP_FULL,
        )

    def test_e8_scale3_excluded_with_weight_check(self):
        rec = resolve(CandidateSystem((("E8", 8, 3),), 8, Q(10)))
        assert rec.verdict == "excluded"
        assert rec.reason == "weight-12-impossible"
        assert ("k", "12/1") in rec.checks

    def test_a8_excluded_by_citation(self):
        rec = resolve(CandidateSystem((("A", 8, 1),), 8, Q(9)))
        assert rec.verdict == "excluded"
        assert rec.checks == ()
        assert "complete 2-divisor" in rec.citation

    def test_c3_goes_to_a3(self):
        rec = resolve(CandidateSystem((("C", 3, 1),), 3, Q(5)))
        assert (rec.lattice_label, rec.group_label) == ("A3", GROUP_FULL)

    def test_c4_goes_to_o1(self):
        rec = resolve(CandidateSystem((("C", 4, 1),), 4, Q(7)))
        assert (rec.lattice_label, rec.group_label) == ("D4", GROUP_O1)


class TestFullTable:
    def test_exactly_26_accepted(self):
        report = full_table()
        assert len(report.accepted) == 26
        assert not report.unresolved

    def test_matches_expected_set(self):
        report = full_table()
        got = {(r.lattice_label, r.group_label) for r in report.accepted}
        assert got == set(EXPECTED_26)

    def test_d4_o1_appears_once(self):
        report = full_table()
        rows = [r for r in report.accepted if (r.lattice_label, r.group_label) == ("D4", GROUP_O1)]
        assert len(rows) == 1

    def test_a2_has_two_groups(self):
        report = full_table()
        groups = {r.group_label for r in report.accepted if r.lattice_label == "A2"}
        assert groups == {GROUP_DK, GROUP_FULL}

    def test_partial_table_subset(self):
        partial = full_table(max_rank=4)
        full = full_table()
        partial_set = {(r.lattice_label, r.group_label) for r in partial.accepted}
        full_set = {(r.lattice_label, r.group_label) for r in full.accepted}
        assert partial_set <= full_set
        assert ("A4", GROUP_DK) in partial_set and ("A5", GROUP_DK) not in partial_set

    def test_deterministic_rendering(self):
        a = report_to_text(full_table())
        b = report_to_text(full_table())
        assert a == b
        ja = report_to_json(full_table())
        assert ja == report_to_json(full_table())

    def test_filter_soundness_against_realizations(self):
        """common_h recomputed from realized components via the sum rule."""
        from orthoforms import quadratic_weyl_constant, qzero_from_dual_sets
        import dataclasses

        for cand in enumerate_candidates():
            for family, n, d in set(cand.components):
                comp = realize(family, n, d)
                plain = dataclasses.replace(comp, short_div=comp.d, subcase=None)
                phi = qzero_from_dual_sets(comp.lattice, [build_dual_set(plain)])
                assert quadratic_weyl_constant(phi).c == cand.common_h


class TestTable:
    def test_every_row_reached_by_one_candidate(self):
        reached = Counter(c.components for c in enumerate_candidates(8))
        rows = list(ACCEPTED) + list(EXCLUDED)
        assert len(rows) == 26 + 9
        assert all(reached[row] == 1 for row in rows)
        assert set(reached) == set(rows)

    def test_display_order(self):
        assert tuple(ACCEPTED.values()) == tuple(group for _, group in EXPECTED_26)
        report = full_table()
        assert tuple((r.lattice_label, r.group_label) for r in report.accepted) == EXPECTED_26

    def test_unknown_components_unresolved(self):
        rec = resolve(CandidateSystem((("A", 2, 1), ("A", 2, 1)), 4, Q(3)))
        assert rec.verdict == "unresolved"

    def test_ledger_solves_only_its_own_entries(self):
        classify._solved_data.cache_clear()
        ledger_arithmetic_checks()
        assert classify._solved_data.cache_info().currsize == 4
        classify._solved_data.cache_clear()
        full_table(4)
        assert classify._solved_data.cache_info().currsize == 0


def _corrupt_solved_data(monkeypatch, comp, index, value):
    """Make _solved_data return a wrong k (index 0), A (1) or C (2) for comp."""
    real = classify._solved_data

    def fake(*key):
        data = real(*key)
        if key != comp:
            return data
        return data[:index] + (Q(value),) + data[index + 1:]

    monkeypatch.setattr(classify, "_solved_data", fake)


SOLVED_CHECKS = [
    # (component, index into (k, A, C), wrong value, check code, solved values alone decide it)
    (("E8", 8, 3), 0, 13, "e8-scale3-weight", True),
    (("B", 8, 1), 2, 10, "n8-bookkeeping", True),
    # typed deficits, which also require the solved values the argument uses
    (("E8", 8, 2), 0, 71, "e8-scale2-weight-deficit", False),
    (("E7", 7, 2), 1, 11, "e7-scale2-weight-deficit", False),
]


class TestGuards:
    @pytest.mark.parametrize("comp,index,value,code,solved_only", SOLVED_CHECKS)
    def test_resolve_raises(self, monkeypatch, comp, index, value, code, solved_only):
        _corrupt_solved_data(monkeypatch, comp, index, value)
        candidate = next(c for c in enumerate_candidates() if c.components == (comp,))
        with pytest.raises(ClassificationError, match=code):
            resolve(candidate)

    @pytest.mark.parametrize("comp,index,value,code,solved_only", SOLVED_CHECKS)
    def test_ledger(self, monkeypatch, comp, index, value, code, solved_only):
        _corrupt_solved_data(monkeypatch, comp, index, value)
        with pytest.raises(ClassificationError, match=code):
            ledger_arithmetic_checks()
        entry, _ = EXCLUDED[(comp,)].check(comp)
        assert not entry.passed
        if not solved_only:
            # the typed inequality still holds; the wrong solved value fails it
            values = dict(entry.values)
            assert int(values["lhs"]) < int(values["rhs"])

    def test_weyl_and_sum_rule_c_disagree(self, monkeypatch):
        # the sum rule's C moved by one; the cache is cleared around the patch, so no value it
        # computed outlives it
        real = classify.quadratic_weyl_constant
        monkeypatch.setattr(classify, "quadratic_weyl_constant", lambda phi: (r := real(phi))._replace(c=r.c + 1))
        classify._solved_data.cache_clear()
        try:
            with pytest.raises(ClassificationError, match=r"^Weyl C and sum-rule C disagree for A2\(1\)$"):
                classify._solved_data("A", 2, 1)
        finally:
            classify._solved_data.cache_clear()

    def test_full_table_needs_26_accepted_rows(self, monkeypatch):
        # an accepted row taken out of a copy of the table leaves its candidate unresolved: 25
        # accepted (deleting it in place would put it back last, and reorder the accepted rows)
        monkeypatch.setattr(classify, "ACCEPTED", dict(list(ACCEPTED.items())[1:]))
        with pytest.raises(ClassificationError, match=r"^expected 26 accepted pairs, found 25$"):
            full_table()

    def test_text_report_names_the_unresolved_rows(self, monkeypatch):
        monkeypatch.setattr(classify, "EXCLUDED", dict(list(EXCLUDED.items())[1:]))
        report = full_table()
        assert [r.candidate.label for r in report.unresolved] == ["E8(2)"]
        assert report_to_text(report).endswith("\nUNRESOLVED: ['E8(2)']\n")

    @pytest.mark.parametrize("fmt", ["json", "table"])
    @pytest.mark.parametrize("comp,index,value,code,solved_only", SOLVED_CHECKS)
    def test_cli_exits_1(self, monkeypatch, capsys, fmt, comp, index, value, code, solved_only):
        _corrupt_solved_data(monkeypatch, comp, index, value)
        assert main(["classify", "--format", fmt]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: internal check failed: arithmetic check failed: {code}\n"


class TestLedgerChecks:
    def test_all_pass(self):
        checks = ledger_arithmetic_checks()
        assert len(checks) == 5
        assert all(c.passed for c in checks)

    def test_values_recorded(self):
        by_code = {c.code: c for c in ledger_arithmetic_checks()}
        assert dict(by_code["rank-bound-weight-deficit"].values) == {
            "lhs": "132",
            "rhs": "170",
        }
        assert ("k", "12/1") in by_code["e8-scale3-weight"].values
        assert ("weight", "56/1") in by_code["n8-bookkeeping"].values


class TestRendering:
    def test_json_schema(self):
        doc = report_to_json(full_table())
        assert {"lattice": "D4", "group": "O1+"} in doc["accepted"]
        excluded_names = {e["candidate"] for e in doc["excluded"]}
        assert "E8(3)" in excluded_names
        e83 = next(e for e in doc["excluded"] if e["candidate"] == "E8(3)")
        assert e83["check"]["k"] == "12/1"
        assert e83["reason"] == "weight-12-impossible"

    def test_text_contains_all_rows(self):
        text = report_to_text(full_table())
        assert text.count("(") >= 26
        assert "(D4, O1+)" in text
        assert "excluded candidates: 9" in text


# SHA-256 of `orthoforms classify --format FMT --max-rank R` stdout, recorded
# before the classification moved into one table; the output must not change
CLASSIFY_DIGESTS = {
    ("json", 1): "0dcd326ceb63a7fea9bbda1a344f45959c8378b44e7f8d43ee4eb7bcfe781e7e",
    ("json", 2): "6a0dbe0c98ca454f198d5d883d282beefdb7d36f246cf7da6fc501e7b1115713",
    ("json", 3): "9cce12167e40398cfaae09cbfad4e7eb350b4c760ebface326559cdec1b119ac",
    ("json", 4): "45f97b2327897d61cefe9ca428f7b4a4feaac0068dd904f26b9a6f08d5830895",
    ("json", 5): "0eaeba7d99cfe74a78ac1efb26c47932e97e3166c02075aff3cd82f3f95eac97",
    ("json", 6): "63a30f2f5c8ed94a53780d52dd0a1f5310cdb38fceea6dd8589faf6f80789295",
    ("json", 7): "10459b90495dec64bb7b230864313ec2d6d7c4b972cb63f8b930f71626b9c76b",
    ("json", 8): "b5b61fb3c8c5d550fac1f82f6b8dc4fc88e77a52ffefeacf496957be36be1688",
    ("table", 1): "90834a6aa454ab3c6c14bb1f41d792fe0c34abcdd54f15e15df24d6b3bd424b0",
    ("table", 2): "abf88e4622a3d1d76a7712975e8caf554bbc8528021291a034ec1327f4c77cb8",
    ("table", 3): "30ab67c46b8554d175d83d3e775cbd4921c846180c16dbfc8f5d89c216365cfe",
    ("table", 4): "fd08c0413ceca760f148f3612a3aa923188b2d5b40418ca3eb7d04071f282ac1",
    ("table", 5): "0ef9316b30ee458629918b73aacd187a5112e5a7af4cdd9b01837379934c9df3",
    ("table", 6): "030f1baf0faf84df71940f7913d8a27a0e5226bd901f8d64bce185ba789f325a",
    ("table", 7): "8ee3712b292d9b9bb36683c3293f8b07baa1ac49bbd17cb547e72b9b69e0ddfd",
    ("table", 8): "901df4b148ae037039f28cca209aa696b35583ccb13235ad0e3e0fbaad736d36",
}


@pytest.mark.parametrize("fmt,max_rank", sorted(CLASSIFY_DIGESTS))
def test_classify_output_pinned(capsys, fmt, max_rank):
    code = main(["classify", "--format", fmt, "--max-rank", str(max_rank)])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CLASSIFY_DIGESTS[fmt, max_rank]
