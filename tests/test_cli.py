import argparse
import dataclasses
import errno
import json
import os
import time
from fractions import Fraction as Q

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from orthoforms import build_dual_set, builtin_lattice, qzero_from_dual_sets, realize
from orthoforms import roots as roots_mod, series as series_mod
from orthoforms.cli import build_parser, main
from orthoforms.lattice import short_vectors
from orthoforms.series import series_from_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


EMPTY_PHI = {
    "lattice": "builtin:A1",
    "coeffs": [{"n": -1, "l": ["0/1"], "f": 1}],
    "k": 12,
}


class TestLattice:
    def test_builtin_a2(self, capsys):
        code, out, _ = run(capsys, "lattice", "builtin:A2")
        assert code == 0
        assert "determinant   3" in out
        assert "Z/3" in out
        assert "level         3" in out

    def test_builtin_e8_json(self, capsys):
        code, out, _ = run(capsys, "lattice", "builtin:E8", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["determinant"] == 1
        assert doc["discriminant_group"] == []

    def test_non_symmetric_file(self, capsys, tmp_path):
        path = write_json(tmp_path / "bad.json", {"gram": [[2, 1], [0, 2]]})
        code, out, err = run(capsys, "lattice", path)
        assert code == 2
        assert "(0,1)" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "lattice", "no-such-file.json")
        assert code == 2

    def test_bool_gram_rejected(self, capsys, tmp_path):
        path = write_json(tmp_path / "bool.json", {"gram": [[True]]})
        code, out, err = run(capsys, "lattice", path)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "gram entry (0,0) is not an integer" in err


class TestRoots:
    def test_d4_norm4(self, capsys):
        code, out, _ = run(
            capsys, "roots", "builtin:D4", "--max-norm", "4", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["total_roots"] == 48
        (comp,) = doc["components"]
        assert comp["type"] == "F4" and comp["coxeter"] == 9
        assert comp["modified_coxeter"] == "9/1"

    def test_a2_report_shape(self, capsys):
        code, out, _ = run(
            capsys, "roots", "builtin:A2", "--max-norm", "2", "--format", "json"
        )
        doc = json.loads(out)
        (comp,) = doc["components"]
        assert comp == {
            "type": "A",
            "rank": 2,
            "d": 1,
            "scale": 1,
            "roots": 6,
            "coxeter": 3,
            "modified_coxeter": "3/1",
            "subcase": None,
            "short_div": 1,
            "long_div": None,
        }

    def test_c3_report_example(self, capsys):
        code, out, _ = run(
            capsys, "roots", "builtin:A3", "--max-norm", "4", "--format", "json"
        )
        assert code == 0
        (comp,) = json.loads(out)["components"]
        for field, value in {
            "type": "C",
            "rank": 3,
            "d": 1,
            "roots": 18,
            "coxeter": 5,
            "modified_coxeter": "5/1",
            "subcase": None,
        }.items():
            assert comp[field] == value

    def test_large_max_norm_matches_norm_2(self, capsys, monkeypatch):
        # E8 has e = 1, so no root has norm above 4e^2 = 4 and the search stops there
        def bounded(lat, max_norm):
            assert max_norm <= 4, f"short vectors enumerated up to norm {max_norm}"
            return short_vectors(lat, max_norm)

        monkeypatch.setattr(roots_mod, "short_vectors", bounded)
        outs = {}
        for fmt in ("json", "table"):
            for max_norm in ("2", "1000000"):
                code, outs[fmt, max_norm], _ = run(
                    capsys, "roots", "builtin:E8", "--max-norm", max_norm, "--format", fmt
                )
                assert code == 0
        assert outs["json", "1000000"] == outs["json", "2"]
        assert json.loads(outs["json", "2"])["total_roots"] == 240
        head, *components = outs["table", "1000000"].splitlines()
        assert head == "240 reflective vectors up to norm 1000000"
        assert components == outs["table", "2"].splitlines()[1:]

    @pytest.mark.parametrize("gram", [[[-2, 1], [1, -2]], [[0, 1], [1, 0]], [[2, 3], [3, 2]]])
    def test_not_positive_definite_names_the_lattice(self, capsys, tmp_path, gram):
        for ref in ("builtin:A2(-1)", write_json(tmp_path / "indefinite.json", {"gram": gram})):
            code, out, err = run(capsys, "roots", ref, "--max-norm", "2")
            assert code == 2 and out == ""
            assert err == f"error: lattice {ref} is not positive definite, so it has no finite root set\n"


class TestWeyl:
    def test_empty_phi(self, capsys, tmp_path):
        path = write_json(tmp_path / "phi.json", EMPTY_PHI)
        code, out, _ = run(capsys, "weyl", path, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["A"] == "1/1" and doc["C"] == "0/1"
        assert doc["weight"] == "12/1"
        assert doc["character_D"] == 1 and doc["character_sign"] == -1

    def test_solves_symbolic_weight(self, capsys, tmp_path):
        phi = {
            "lattice": "builtin:A1",
            "coeffs": [
                {"n": -1, "l": ["0/1"], "f": 1},
                {"n": 0, "l": ["1/1"], "f": 1},
                {"n": 0, "l": ["-1/1"], "f": 1},
            ],
            "k": "symbolic",
        }
        path = write_json(tmp_path / "phi.json", phi)
        code, out, _ = run(capsys, "weyl", path, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["weight"] == "35/1"
        assert doc["C"] == "2/1" and doc["sum_rule_C"] == "2/1"

    @staticmethod
    def non_spanning(tmp_path, lattice, l, k):
        """A coefficient file whose support ±l does not give a Gram multiple."""
        coeffs = [{"n": -1, "l": ["0/1", "0/1"], "f": 1}]
        coeffs += [{"n": 0, "l": [f"{s * x}/1" for x in l], "f": 1} for s in (1, -1)]
        return write_json(tmp_path / "phi.json", {"lattice": lattice, "coeffs": coeffs, "k": k})

    def test_symbolic_weight_with_failed_sum_rule(self, capsys, tmp_path):
        path = self.non_spanning(tmp_path, "builtin:A2", (1, 0), "symbolic")
        code, out, err = run(capsys, "weyl", path)
        assert (code, out) == (3, "")
        assert err == (
            "error: weight is symbolic and the sum rule failed: "
            "left side has rank 1 and is not proportional to the Gram matrix\n"
        )

    def test_numeric_weight_reports_the_failed_sum_rule(self, capsys, tmp_path):
        path = self.non_spanning(tmp_path, "builtin:2A1", (1, 1), 12)
        code, out, _ = run(capsys, "weyl", path, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["sum_rule_C"] is None
        assert doc["sum_rule_failure"] == "left side is not a Gram multiple"

    def test_missing_evenness_partner(self, capsys, tmp_path):
        phi = {
            "lattice": "builtin:A1",
            "coeffs": [
                {"n": -1, "l": ["0/1"], "f": 1},
                {"n": 0, "l": ["1/1"], "f": 1},
            ],
        }
        path = write_json(tmp_path / "phi.json", phi)
        code, _, err = run(capsys, "weyl", path)
        assert code == 3
        assert "l=[-1/1]" in err

    def test_off_dual_vector_reads_as_a_rational(self, capsys, tmp_path):
        phi = {
            "lattice": "builtin:A1",
            "coeffs": [{"n": -1, "l": ["0/1"], "f": 1}] + [{"n": 0, "l": [l], "f": 1} for l in ("1/10", "-1/10")],
        }
        path = write_json(tmp_path / "phi.json", phi)
        code, out, err = run(capsys, "weyl", path)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "vector (1/10) does not pair integrally" in err

    def test_missing_principal_part(self, capsys, tmp_path):
        phi = {"lattice": "builtin:A1", "coeffs": []}
        path = write_json(tmp_path / "phi.json", phi)
        code, _, err = run(capsys, "weyl", path)
        assert code == 3
        assert "n=-1" in err

    @pytest.mark.parametrize(
        "coeffs, named",
        [
            (5, "'coeffs' must be a list"),
            ([7], "entry 0 must be an object"),
            ([{"n": -1, "l": ["0/1"], "f": 1.5}], "'f' must be an integer, got 1.5"),
            ([{"n": -1, "l": ["0/1"], "f": True}], "'f' must be an integer, got True"),
            ([{"n": -1.0, "l": ["0/1"], "f": 1}], "'n' must be an integer, got -1.0"),
            ([{"n": -1, "l": ["0/1"]}], "'f' must be an integer, got None"),
            ([{"n": -1, "l": "0", "f": 1}], "'l' must be a list, got '0'"),
            (
                [{"n": -1, "l": ["0/1"], "f": 1}, {"n": 0, "l": ["1/2"], "f": 1}, {"n": 0, "l": ["2/4"], "f": 2}],
                "entry 2 {'n': 0, 'l': ['2/4'], 'f': 2} conflicts with an earlier entry",
            ),
        ],
    )
    def test_malformed_coeffs(self, capsys, tmp_path, coeffs, named):
        path = write_json(tmp_path / "phi.json", {"lattice": "builtin:A1", "coeffs": coeffs})
        code, out, err = run(capsys, "weyl", path)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and named in err


    @pytest.mark.parametrize("l", [[0.5], [0.0], [True], [None]])
    def test_non_rational_l_entry(self, capsys, tmp_path, l):
        coeffs = [{"n": -1, "l": ["0/1"], "f": 1}, {"n": 0, "l": l, "f": 1}]
        path = write_json(tmp_path / "phi.json", {"lattice": "builtin:A1", "coeffs": coeffs})
        code, out, err = run(capsys, "weyl", path)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and path in err
        assert f"coefficient entry 1 {coeffs[1]!r}: 'l' entry must be a rational 'p/q', got {l[0]!r}" in err

    def test_invalid_inline_lattice_names_the_file(self, capsys, tmp_path):
        path = write_json(tmp_path / "phi.json", dict(EMPTY_PHI, lattice={"gram": [[0]]}))
        code, out, err = run(capsys, "weyl", path)
        assert code == 2 and out == ""
        assert err == f"error: invalid coefficient file {path}: degenerate lattice\n"

    def test_lattice_path_is_a_directory(self, capsys, tmp_path):
        path = write_json(tmp_path / "phi.json", dict(EMPTY_PHI, lattice=str(tmp_path)))
        code, out, err = run(capsys, "weyl", path)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "cannot read" in err


class TestBorch:
    def test_empty_phi_expansion(self, capsys, tmp_path):
        path = write_json(tmp_path / "phi.json", EMPTY_PHI)
        out_path = tmp_path / "series.json"
        code, out, _ = run(
            capsys, "borch", path, "--rect", "2,2", "-o", str(out_path)
        )
        assert code == 0
        assert "A = 1/1" in out and "C = 0/1" in out
        assert "weight = 12/1" in out
        assert "D = 1, chi(V) = -1" in out
        doc = json.loads(out_path.read_text())
        x = series_from_json(doc)
        assert x.prefactor.a == 1 and x.prefactor.c == 0
        # constant term of the reduced series is 1
        assert x.terms[(Q(0), (Q(0),), Q(0))] == 1

    def test_boundary_block_over_the_term_cap(self, capsys, tmp_path):
        # (1 - zeta^-1)^300000 alone has 300001 terms, past the default cap
        coeffs = EMPTY_PHI["coeffs"] + [{"n": 0, "l": [l], "f": 300000} for l in ("1/1", "-1/1")]
        path = write_json(tmp_path / "phi.json", dict(EMPTY_PHI, coeffs=coeffs))
        code, out, err = run(capsys, "borch", path, "--rect", "1,1")
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and "exceeds the term cap" in err

    def test_truncation_zero_keeps_prefactor_only(self, capsys, tmp_path):
        path = write_json(tmp_path / "phi.json", EMPTY_PHI)
        out_path = tmp_path / "series.json"
        code, out, _ = run(capsys, "borch", path, "--rect", "0,0", "-o", str(out_path))
        assert code == 0
        x = series_from_json(json.loads(out_path.read_text()))
        assert x.prefactor.a == 1
        assert dict(x.terms) == {(Q(0), (Q(0),), Q(0)): Q(1)}

    @pytest.mark.parametrize("rect, a_max", [("-1,2", "-1/1"), ("-1/2,2", "-1/2")])
    def test_negative_rect_bound(self, capsys, tmp_path, rect, a_max):
        # README's A1 file; '--rect -1,2' reads as '--rect=-1,2'
        coeffs = EMPTY_PHI["coeffs"] + [{"n": 0, "l": [l], "f": 1} for l in ("1/1", "-1/1")]
        path = write_json(tmp_path / "phi.json", {"lattice": "builtin:A1", "coeffs": coeffs, "k": "symbolic"})
        docs = []
        for spelling in (["--rect", rect], [f"--rect={rect}"]):
            out_path = tmp_path / "series.json"
            code, out, err = run(capsys, "borch", path, *spelling, "-o", str(out_path))
            assert (code, err) == (0, "")
            assert "terms stored: 6" in out
            docs.append(json.loads(out_path.read_text()))
        assert docs[0] == docs[1]
        assert docs[0]["rect"] == [a_max, "2/1"]

    def test_huge_rect_is_one_error_line(self, capsys, tmp_path, deadline):
        # two factors per n <= 10^400: counted and refused before any is built
        coeffs = EMPTY_PHI["coeffs"] + [{"n": 0, "l": [l], "f": 1} for l in ("1/1", "-1/1")]
        path = write_json(tmp_path / "phi.json", {"lattice": "builtin:A1", "coeffs": coeffs, "k": "symbolic"})
        start = time.perf_counter()
        with deadline(10):
            code, out, err = run(capsys, "borch", path, "--rect", "1e400,1")
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.endswith("factors, more than the term cap of 200000\n")

    def test_principal_part_only_on_a_huge_rect(self, capsys, tmp_path, deadline):
        # one factor (1 - q^-1 xi)^1, whose binomial stops at u^1 however far t_max reaches
        doc = {"lattice": "builtin:A1", "k": "0", "coeffs": [{"n": -1, "l": ["0"], "f": 1}]}
        path = write_json(tmp_path / "phi.json", doc)
        start = time.perf_counter()
        with deadline(10):
            code, out, err = run(capsys, "borch", path, "--rect", "0,1e400")
        assert time.perf_counter() - start < 1
        assert (code, err) == (0, "")
        assert "terms stored: 2" in out

    def test_den_zero_rejected(self, capsys, tmp_path):
        path = write_json(tmp_path / "phi.json", EMPTY_PHI)
        code, out, err = run(capsys, "borch", path, "--rect", "1,1", "--den", "0")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "den" in err


    def test_den_off_the_weyl_vector_grid(self, capsys, tmp_path):
        # the A1 subcase-i product has Weyl vector A = 3/2, C = 1/2
        comp = dataclasses.replace(realize("A", 1, 1), subcase="i")
        phi = qzero_from_dual_sets(comp.lattice, [build_dual_set(comp)])
        coeffs = [
            {"n": n, "l": [str(x) for x in l], "f": f}
            for (n, l), f in phi.coefficient_table().items()
        ]
        doc = {"lattice": "builtin:A1", "coeffs": coeffs, "k": "symbolic"}
        path = write_json(tmp_path / "phi.json", doc)
        code, out, err = run(capsys, "borch", path, "--rect", "1,1", "--den", "1")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "--den 1" in err and "A = 3/2" in err
        code, out, _ = run(capsys, "borch", path, "--rect", "1,1", "--den", "2")
        assert code == 0 and "A = 3/2, B = [1/4], C = 1/2" in out


class TestJacobian:
    def series_doc(self, a, l, t):
        return {
            "rank": 1,
            "den": 24,
            "prefactor": {"A": "0/1", "B": ["0/1"], "C": "0/1"},
            "terms": [{"a": f"{a}/1", "l": [f"{l}/1"], "t": f"{t}/1", "c": "1/1"}],
            "rect": ["4/1", "4/1"],
        }

    def test_monomial_quadruple(self, capsys, tmp_path):
        paths = []
        for i, (a, l, t) in enumerate([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]):
            paths.append(write_json(tmp_path / f"f{i}.json", self.series_doc(a, l, t)))
        out_path = tmp_path / "j.json"
        code, out, _ = run(
            capsys, "jacobian", *paths, "--weights", "1,1,1,1", "-o", str(out_path)
        )
        assert code == 0
        assert "leading order: q^1/1 xi^1/1" in out
        j = series_from_json(json.loads(out_path.read_text()))
        assert dict(j.terms) == {(Q(1), (Q(1),), Q(1)): Q(1)}

    def test_duplicate_inputs_vanish(self, capsys, tmp_path):
        p = write_json(tmp_path / "f.json", self.series_doc(1, 0, 0))
        paths = [p, p]
        paths.append(write_json(tmp_path / "g.json", self.series_doc(0, 1, 0)))
        paths.append(write_json(tmp_path / "h.json", self.series_doc(0, 0, 1)))
        code, out, _ = run(capsys, "jacobian", *paths, "--weights", "2,2,1,1")
        assert code == 0
        assert "vanishes to rectangle order" in out

    def test_syzygy_mode(self, capsys, tmp_path):
        paths = []
        for i, (a, l, t) in enumerate(
            [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 1, 1)]
        ):
            paths.append(write_json(tmp_path / f"s{i}.json", self.series_doc(a, l, t)))
        code, out, _ = run(
            capsys, "jacobian", *paths, "--weights", "1,2,3,4,5", "--syzygy"
        )
        assert code == 0
        assert "vanishes to rectangle order" in out

    @pytest.mark.parametrize("spelling", [["--weights", "-2,1,1,1"], ["--weights=-2,1,1,1"]])
    def test_negative_first_weight(self, capsys, tmp_path, spelling):
        paths = []
        for i, (a, l, t) in enumerate([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]):
            paths.append(write_json(tmp_path / f"f{i}.json", self.series_doc(a, l, t)))
        code, out, err = run(capsys, "jacobian", *paths, *spelling)
        assert (code, err) == (0, "")
        assert "leading order: q^1/1 xi^1/1" in out
        assert json.loads(out.split("\n", 2)[2])["terms"] == [
            {"a": "1/1", "l": ["1/1"], "t": "1/1", "c": "-2/1"}
        ]

    @pytest.mark.parametrize("syzygy", [[], ["--syzygy"]])
    def test_term_cap_overflow(self, capsys, tmp_path, monkeypatch, syzygy):
        doc = self.series_doc(0, 0, 0)
        # four terms with every exponent nonzero, so each 1x1 minor on the omega row has four
        doc["terms"] = [{"a": f"{j}/1", "l": [f"{j}/1"], "t": f"{j}/1", "c": "1/1"} for j in range(1, 5)]
        paths = [write_json(tmp_path / "f.json", doc)] * (5 if syzygy else 4)
        monkeypatch.setattr(series_mod, "DEFAULT_TERM_CAP", 3)
        code, out, err = run(capsys, "jacobian", *paths, "--weights", ",".join(["1"] * len(paths)), *syzygy)
        assert (code, out) == (1, "")
        assert err.startswith("error: 1x1 minor at row 3") and err.count("\n") == 1 and "cap of 3" in err

    def test_count_mismatch(self, capsys, tmp_path):
        p = write_json(tmp_path / "f.json", self.series_doc(1, 0, 0))
        code, _, err = run(capsys, "jacobian", p, p, p, "--weights", "1,1,1")
        assert code == 2
        assert "forms" in err

    def test_weight_count_mismatch(self, capsys, tmp_path):
        p = write_json(tmp_path / "f.json", self.series_doc(1, 0, 0))
        code, _, err = run(capsys, "jacobian", p, p, "--weights", "1,1,1")
        assert code == 2

    @pytest.mark.parametrize(
        "field, value, named",
        [
            ("den", 0, "den"),
            ("terms", 5, "terms"),
            ("rect", ["4/1"], "rect"),
            ("rank", 1.7, "rank"),
            ("rank", True, "rank"),
            ("rank", "1", "rank"),
            ("rank", -1, "rank"),
            ("den", 24.9, "den"),
            ("prefactor", {"A": "1/7", "B": ["0/1"], "C": "0/1"}, "prefactor A"),
            ("prefactor", {"A": "0/1", "B": ["0/1"], "C": "1/48"}, "prefactor C"),
        ],
    )
    def test_malformed_series_file(self, capsys, tmp_path, field, value, named):
        doc = self.series_doc(1, 0, 0)
        doc[field] = value
        p = write_json(tmp_path / "f.json", doc)
        code, out, err = run(capsys, "jacobian", p, p, p, p, "--weights", "1,1,1,1")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and named in err


    @pytest.mark.parametrize(
        "field, value, named",
        [
            ("terms", [{"a": "1/1", "l": ["0/1"], "t": "0/1", "c": 0.1}], "terms[0].c"),
            ("terms", [{"a": "1/1", "l": ["0/1"], "t": "0/1", "c": True}], "terms[0].c"),
            ("rect", [float("inf"), "4/1"], "rect entry"),
        ],
    )
    def test_non_integer_number_in_series_file(self, capsys, tmp_path, field, value, named):
        doc = self.series_doc(1, 0, 0)
        doc[field] = value
        p = write_json(tmp_path / "f.json", doc)
        code, out, err = run(capsys, "jacobian", p, p, p, p, "--weights", "1,1,1,1")
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert p in err and f"{named} must be a rational 'p/q'" in err


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["nosuch"],
            ["jacobian"],
            ["jacobian", "f.json", "--weights"],
            ["borch", "f.json", "--den", "two"],
            ["classify", "--format", "yaml"],
        ],
    )
    def test_usage_error_is_one_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1


class TestClassify:
    def test_default_run(self, capsys):
        code, out, _ = run(capsys, "classify")
        assert code == 0
        assert "26 pairs" in out
        assert "(D4, O1+)" in out
        assert "arithmetic checks" in out

    def test_partial_banner(self, capsys):
        code, out, _ = run(capsys, "classify", "--max-rank", "4")
        assert code == 0
        assert "PARTIAL" in out
        assert "(A4, O~+)" in out

    @pytest.mark.parametrize("bound", ["-3", "0", "9"])
    def test_rank_bound_out_of_range(self, capsys, bound):
        code, out, err = run(capsys, "classify", "--max-rank", bound)
        assert (code, out) == (2, "")
        assert err == f"error: rank bound must be between 1 and 8, got {bound}\n"

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "classify", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["accepted"]) == 26
        assert doc["complete"] is True
        assert all(c["passed"] for c in doc["arithmetic_checks"])

    def test_byte_identical_runs(self, capsys):
        _, out1, _ = run(capsys, "classify", "--format", "json")
        _, out2, _ = run(capsys, "classify", "--format", "json")
        assert out1 == out2


class TestInputFiles:
    """Every file input goes through one reader: a failure is one exit-2 line naming the file."""

    ARGV = {
        "lattice": lambda p: ["lattice", p],
        "roots": lambda p: ["roots", p],
        "weyl": lambda p: ["weyl", p],
        "borch": lambda p: ["borch", p],
        "jacobian": lambda p: ["jacobian", p, p, p, p, "--weights", "1,1,1,1"],
    }

    @pytest.mark.parametrize("command", list(ARGV))
    @pytest.mark.parametrize(
        "content", [b"[" * 100_000 + b"]" * 100_000, b'\xff{"gram": [[2]]}'], ids=["deep", "non-utf8"]
    )
    def test_unparseable_file(self, capsys, tmp_path, command, content):
        path = tmp_path / "input.json"
        path.write_bytes(content)
        code, out, err = run(capsys, *self.ARGV[command](str(path)))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and str(path) in err

    def test_utf8_label(self, capsys, tmp_path):
        path = tmp_path / "lattice.json"
        path.write_bytes('{"gram": [[2]], "label": "\u039b"}'.encode("utf-8"))
        code, out, _ = run(capsys, "lattice", str(path), "--format", "json")
        assert code == 0 and json.loads(out)["label"] == "\u039b"

    def test_unknown_builtin(self, capsys):
        assert run(capsys, "lattice", "builtin:Z9") == (2, "", "error: unknown built-in lattice 'Z9'\n")

    @pytest.mark.parametrize("name", ["A01", "02A1", "D05(2)"])
    def test_leading_zero_builtin_is_unknown(self, capsys, name):
        assert run(capsys, "lattice", f"builtin:{name}") == (2, "", f"error: unknown built-in lattice {name!r}\n")

    @pytest.mark.parametrize("k", [None, [1], {}, True, 1.5, "abc", "1/0", "symbolic "])
    def test_bad_weight(self, capsys, tmp_path, k):
        path = write_json(tmp_path / "phi.json", dict(EMPTY_PHI, k=k))
        code, out, err = run(capsys, "weyl", path)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and path in err and "'k' must be" in err and repr(k) in err

    @pytest.mark.parametrize("k, weight", [(12, "12/1"), ("5/2", "5/2"), ("-4", "-4/1")])
    def test_weight_spellings(self, capsys, tmp_path, k, weight):
        path = write_json(tmp_path / "phi.json", dict(EMPTY_PHI, k=k))
        code, out, _ = run(capsys, "weyl", path, "--format", "json")
        assert code == 0 and json.loads(out)["weight"] == weight


class TestRoundTrip:
    def test_series_output_reparses(self, capsys, tmp_path):
        path = write_json(tmp_path / "phi.json", EMPTY_PHI)
        out_path = tmp_path / "series.json"
        code, _, _ = run(capsys, "borch", path, "--rect", "3,3", "-o", str(out_path))
        assert code == 0
        x = series_from_json(json.loads(out_path.read_text()))
        assert x == series_from_json(json.loads(out_path.read_text()))


class TestOutputOption:
    @pytest.mark.parametrize(
        "argv",
        [["lattice", "builtin:A2"], ["roots", "builtin:A2"], ["weyl", None], ["classify", "--max-rank", "4"]],
        ids=["lattice", "roots", "weyl", "classify"],
    )
    def test_table_with_output_file_is_refused(self, capsys, tmp_path, argv):
        argv = [a or write_json(tmp_path / "phi.json", EMPTY_PHI) for a in argv]
        out_path = tmp_path / "out.json"
        for fmt in ([], ["--format", "table"]):
            code, out, err = run(capsys, *argv, *fmt, "-o", str(out_path))
            assert code == 2 and out == "" and not out_path.exists()
            assert err == "error: -o writes the JSON document, so it needs --format json\n"
        code, out, _ = run(capsys, *argv, "--format", "json", "-o", str(out_path))
        assert code == 0 and out == "" and json.loads(out_path.read_text())

    @pytest.mark.parametrize("target", ["missing-directory", "directory"])
    def test_unwritable_output_is_one_error_line(self, capsys, tmp_path, target):
        out_path, reason = tmp_path / "nodir" / "x.json", os.strerror(errno.ENOENT)
        if target == "directory":
            out_path, reason = tmp_path, os.strerror(errno.EISDIR)
        code, out, err = run(capsys, "lattice", "builtin:A1", "--format", "json", "-o", str(out_path))
        assert (code, out) == (2, "")
        assert err == f"error: cannot write {out_path}: {reason}\n"


def _action(a):
    return (
        tuple(a.option_strings), a.dest, a.default, a.choices, a.required, a.nargs,
        None if a.type is None else a.type.__name__, a.help,
    )


HELP = (("-h", "--help"), "help", argparse.SUPPRESS, None, False, 0, None, "show this help message and exit")
FORMAT = (("--format",), "format", "table", ("json", "table"), False, None, None, None)
OUTPUT = (("-o", "--output"), "output", None, None, False, None, None, None)


class TestParser:
    """Every subcommand's actions, field by field (argparse's help layout differs between versions)."""

    STRUCTURE = [
        ("lattice", [HELP, ((), "ref", None, None, True, None, None, "JSON file path or builtin:NAME"), FORMAT, OUTPUT]),
        ("roots", [
            HELP,
            ((), "ref", None, None, True, None, None, None),
            (("--max-norm",), "max_norm", 2, None, False, None, "int", None),
            FORMAT,
            OUTPUT,
        ]),
        ("weyl", [HELP, ((), "coeffs", None, None, True, None, None, None), FORMAT, OUTPUT]),
        ("borch", [
            HELP,
            ((), "coeffs", None, None, True, None, None, None),
            (("--rect",), "rect", "2,2", None, False, None, None, "exactness rectangle 'A,T'"),
            (("--den",), "den", 24, None, False, None, "int", None),
            OUTPUT,
        ]),
        ("jacobian", [
            HELP,
            ((), "series", None, None, True, "+", None, None),
            (("--weights",), "weights", None, None, True, None, None, "comma-separated weights"),
            (("--syzygy",), "syzygy", False, None, False, 0, None, "alternating-sum mode"),
            OUTPUT,
        ]),
        ("classify", [HELP, (("--max-rank",), "max_rank", 8, None, False, None, "int", None), FORMAT, OUTPUT]),
    ]

    def test_structure(self):
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        assert [(name, [_action(a) for a in p._actions]) for name, p in sub.choices.items()] == self.STRUCTURE


# ---------------------------------------------------------------------------
# the exit-code contract under generated coefficient files
# ---------------------------------------------------------------------------

RATIONAL = st.builds("{}/{}".format, st.integers(-6, 6), st.sampled_from([1, 2, 3, 6]))
JUNK = st.one_of(
    st.none(), st.booleans(), st.floats(), st.text(max_size=3),
    st.lists(st.integers(-2, 2), max_size=2), st.just({"p": 1}),
)
LATTICES = {
    1: ["builtin:A1", "builtin:A1(3)", {"gram": [[2]]}, {"gram": [[6]], "label": 5}],
    2: ["builtin:A2", "builtin:2A1", "builtin:A2(2)", {"gram": [[2, -1], [-1, 2]]}, {"gram": [[4, 1], [1, 2]]}],
}
BAD_LATTICES = [
    "builtin:Z9", "builtin:A2(x)", "builtin:A2(0)", ".", "missing.json", {"gram": [[0]]},
    {"gram": [[1, 2]]}, {"gram": [[2.5]]}, {"gram": "x"}, {}, 5, None,
]


def negated(x):
    """-x for ints and rational strings; anything else unchanged."""
    if isinstance(x, int) and not isinstance(x, bool):
        return -x
    try:
        return str(-Q(x)) if isinstance(x, str) else x
    except (ValueError, ZeroDivisionError):
        return x


def contract(code, out, err):
    """Exit 0, 2 or 3; an error is one stderr line and no stdout."""
    assert code in (0, 2, 3)
    if code:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    else:
        assert err == ""


@st.composite
def coefficient_docs(draw):
    """Coefficient files: wrong types, odd tables, vectors off the dual lattice, repeats."""

    def mostly(common, rare=JUNK):
        return draw(rare) if draw(st.integers(0, 9)) == 0 else draw(common)

    rank = draw(st.sampled_from([1, 2]))
    lattice = mostly(st.sampled_from(LATTICES[rank]), st.sampled_from(BAD_LATTICES))
    coeffs = []
    if draw(st.integers(0, 5)):
        coeffs.append({"n": -1, "l": ["0/1"] * rank, "f": 1})
    for _ in range(draw(st.integers(0, 4))):
        size = mostly(st.just(rank), st.integers(0, 3))
        item = {
            "n": mostly(st.sampled_from([0, 0, 0, -1, 1])),
            "l": [mostly(RATIONAL | st.integers(-2, 2)) for _ in range(size)],
            "f": mostly(st.integers(-2, 2)),
        }
        coeffs.append(item)
        partner = draw(st.sampled_from(["even", "even", "even", "odd", "repeat", "conflict", None]))
        f = item["f"]
        if partner in ("even", "odd"):
            odd = partner == "odd" and isinstance(f, int)
            coeffs.append(dict(item, l=[negated(x) for x in item["l"]], f=-f if odd else f))
        elif partner:
            coeffs.append(dict(item, f=f + 1 if partner == "conflict" and isinstance(f, int) else f))
    doc = {"lattice": lattice, "coeffs": draw(st.permutations(coeffs))}
    doc["k"] = mostly(st.sampled_from(["symbolic", "symbolic", 12, 30, "35/1", "5/2"]))
    doc.pop(mostly(st.just(None), st.sampled_from(["lattice", "coeffs", "k"])), None)
    return doc


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(coefficient_docs(), st.sampled_from(["weyl", "borch"]))
def test_coefficient_file_contract(capsys, tmp_path, doc, command):
    path = write_json(tmp_path / "phi.json", doc)
    argv = [command, path] + (["--rect", "1,1"] if command == "borch" else [])
    contract(*run(capsys, *argv))


# ---------------------------------------------------------------------------
# the exit-code contract under generated lattice and series documents
# ---------------------------------------------------------------------------

GOOD_BUILTINS = ["A1", "A2", "A3(2)", "D4", "E6", "E8(3)", "2A1", "3A1(3)", "D5(2)", "A2(-1)"]
BAD_BUILTINS = ["Z9", "A9", "D3", "E9", "1A1", "9A1", "A2(x)", "A2(0)", "A2(", "A2()", "A2(1)(2)", ""]
ENTRY_JUNK = st.one_of(
    st.booleans(), st.floats(allow_nan=False), st.just("2"), st.none(), st.just([2]), st.just([[1]])
)


@st.composite
def gram_docs(draw, max_rank):
    """Lattice documents: Gram matrices M M^T + D, then bent out of shape, or junk."""
    n = draw(st.integers(1, max_rank))
    m = [[draw(st.integers(-1, 1)) for _ in range(n)] for _ in range(n)]
    shift = [draw(st.sampled_from([0, 0, 1, 2, -3])) for _ in range(n)]
    gram = [[sum(a * b for a, b in zip(m[i], m[j])) + (shift[i] if i == j else 0) for j in range(n)] for i in range(n)]
    bend = draw(st.sampled_from(["none", "none", "none", "entry", "asymmetric", "ragged", "rows", "doc"]))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if bend == "entry":
        gram[i][j] = draw(ENTRY_JUNK)
    elif bend == "asymmetric":
        gram[i][j] += 1 if i != j else 0
    elif bend == "ragged":
        gram[i].append(0)
    elif bend == "rows":
        gram = draw(st.sampled_from([[], [[]], [5], "x", None, [[2], 2]]))
    doc = {"gram": gram}
    if draw(st.booleans()):
        doc["label"] = draw(st.one_of(st.text(max_size=3), st.integers(), st.none(), st.just([1])))
    if bend == "doc":
        doc = draw(st.sampled_from([[], 5, None, "gram", {"label": "x"}, {"gram": {"0": [2]}}]))
    return doc


@st.composite
def lattice_refs(draw, tmp_path, max_rank):
    kind = draw(st.sampled_from(["file", "file", "file", "builtin", "bad builtin"]))
    if kind == "builtin":
        return "builtin:" + draw(st.sampled_from([b for b in GOOD_BUILTINS if builtin_lattice(b).rank <= max_rank]))
    if kind == "bad builtin":
        return "builtin:" + draw(st.sampled_from(BAD_BUILTINS))
    return write_json(tmp_path / "lattice.json", draw(gram_docs(max_rank)))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data(), st.sampled_from(["table", "json"]))
def test_lattice_file_contract(capsys, tmp_path, data, fmt):
    ref = data.draw(lattice_refs(tmp_path, 10))
    contract(*run(capsys, "lattice", ref, "--format", fmt))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data(), st.sampled_from([2, 4, 6, 3, 0]), st.sampled_from(["table", "json"]))
def test_roots_file_contract(capsys, tmp_path, data, max_norm, fmt):
    ref = data.draw(lattice_refs(tmp_path, 4))
    contract(*run(capsys, "roots", ref, "--max-norm", str(max_norm), "--format", fmt))


@st.composite
def series_docs(draw, rank):
    """Series documents: valid ones, and ones with one field bent out of the schema."""
    terms = [
        {"a": draw(RATIONAL), "l": [draw(RATIONAL) for _ in range(rank)], "t": draw(RATIONAL), "c": draw(RATIONAL)}
        for _ in range(draw(st.integers(0, 4)))
    ]
    doc = {
        "rank": rank,
        "den": draw(st.sampled_from([24, 12, 6])),
        "prefactor": {"A": draw(RATIONAL), "B": [draw(RATIONAL) for _ in range(rank)], "C": draw(RATIONAL)},
        "terms": terms,
        "rect": [draw(RATIONAL), draw(RATIONAL)],
    }
    if draw(st.integers(0, 3)) == 0:
        field = draw(st.sampled_from(["drop"] + list(doc) + ["term"] * 2))
        junk = JUNK | st.integers(-1, 3) | RATIONAL | st.lists(RATIONAL, max_size=3)
        if field == "drop":
            doc.pop(draw(st.sampled_from(list(doc))))
        elif field == "term" and terms:
            terms[0][draw(st.sampled_from(["a", "l", "t", "c"]))] = draw(junk)
        elif field == "prefactor":
            doc["prefactor"][draw(st.sampled_from(["A", "B", "C"]))] = draw(junk)
        else:
            doc[field] = draw(junk)
    return doc


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data(), st.integers(0, 2), st.booleans())
def test_series_file_contract(capsys, tmp_path, data, rank, syzygy):
    count = data.draw(st.sampled_from([rank + 3 + syzygy] * 6 + [1, rank + 4 - syzygy]))
    paths = [write_json(tmp_path / f"f{i}.json", data.draw(series_docs(rank))) for i in range(count)]
    weights = [str(data.draw(st.integers(-2, 5))) for _ in range(count)]
    weights = data.draw(st.sampled_from([",".join(weights)] * 6 + [",".join(weights[1:]), "1,x", ""]))
    argv = ["jacobian", *paths, f"--weights={weights}"] + (["--syzygy"] if syzygy else [])
    contract(*run(capsys, *argv))
