"""Enumeration and resolution of candidate root-system decompositions.

Candidates are multisets of rescaled irreducible components drawn from a
fixed admissible pool, filtered by three arithmetic conditions: all
components share one modified Coxeter number, that number is an integer,
and it is at least total rank + 1.  Each surviving candidate either maps
to one of the 26 accepted (lattice, group) pairs or is excluded with a
machine-readable reason, a literature citation, and, where possible, an
exact arithmetic check run through the same machinery the accepted cases
use.  Both outcomes are rows of one table keyed by candidate components
(ACCEPTED and EXCLUDED below).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import lru_cache
from typing import Callable

from .roots import TYPES, build_dual_set, display_name, modified_coxeter_value, realize
from .series import q_str
from .weyl import qzero_from_dual_sets, quadratic_weyl_constant, solve_weight, weyl_vector

GROUP_DK = "O~+"  # discriminant kernel
GROUP_FULL = "O+"  # full orthogonal group (positive part)
GROUP_O1 = "O1+"  # kernel extended by an odd sign change of D4

GROUP_NAMES = {
    GROUP_DK: "discriminant_kernel",
    GROUP_FULL: "full_O_plus",
    GROUP_O1: "O1_plus",
}


class ClassificationError(RuntimeError):
    pass


# admissible pool: (family, d, admissible ranks); every member's modified
# Coxeter number is an integer realized by at least one admissible rank
POOL: tuple[tuple[str, int, tuple[int, ...]], ...] = tuple(
    (family, d, tuple(TYPES[family].ranks))
    for family, d in (
        ("A", 1), ("B", 1), ("C", 1), ("D", 1), ("E6", 1), ("E7", 1), ("E7", 2),
        ("E8", 1), ("E8", 2), ("E8", 3), ("G2", 1), ("F4", 1),
    )
)


def pool_modified_coxeter(family: str, rank: int, d: int) -> Q:
    return modified_coxeter_value(family, rank, d, "d", None)


Component = tuple[str, int, int]  # (family, rank, d)


@dataclass(frozen=True)
class CandidateSystem:
    components: tuple[Component, ...]
    total_rank: int
    common_h: Q

    @property
    def label(self) -> str:
        parts = []
        seen: dict[str, int] = {}
        for family, rank, d in self.components:
            name, scale = display_name(family, rank, d)
            text = f"{name}({scale})" if scale != 1 else name
            seen[text] = seen.get(text, 0) + 1
        for text, count in sorted(seen.items()):
            parts.append(text if count == 1 else f"{count}x{text}")
        return "+".join(parts)


def enumerate_candidates(max_rank: int = 8) -> list[CandidateSystem]:
    """All admissible multisets with a shared integral modified Coxeter number.

    The filters: equal modified Coxeter numbers across components, the
    common value an integer, and at least total rank + 1; total rank capped
    by the free-algebra rank bound.
    """
    if max_rank > 8:
        raise ValueError("rank bound is 8")
    members: list[tuple[Component, Q]] = []
    for family, d, ranks in POOL:
        for n in ranks:
            members.append(((family, n, d), pool_modified_coxeter(family, n, d)))
    by_h: dict[Q, list[Component]] = {}
    for comp, h in members:
        if h.denominator == 1:
            by_h.setdefault(h, []).append(comp)
    out: list[CandidateSystem] = []
    for h, comps in sorted(by_h.items()):
        comps = sorted(comps)

        def grow(start: int, chosen: tuple[Component, ...], used_rank: int):
            if chosen and h >= used_rank + 1:
                out.append(CandidateSystem(chosen, used_rank, h))
            for i in range(start, len(comps)):
                rank = comps[i][1]
                if used_rank + rank <= max_rank and h >= used_rank + rank + 1:
                    grow(i, chosen + (comps[i],), used_rank + rank)

        grow(0, (), 0)
    out.sort(key=lambda c: (c.total_rank, c.components))
    return out


Pairs = tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class ClassificationRecord:
    candidate: CandidateSystem
    verdict: str  # accepted | excluded | unresolved
    lattice_label: str | None = None
    group_label: str | None = None
    reason: str | None = None
    citation: str | None = None
    checks: Pairs = ()


@dataclass(frozen=True)
class LedgerCheck:
    code: str
    statement: str
    values: Pairs
    passed: bool


@lru_cache(maxsize=None)
def _solved_data(family: str, rank: int, d: int):
    """(k, A, C) computed from the realized plain dual set of a pool component."""
    comp = realize(family, rank, d)
    plain = dataclasses.replace(comp, short_div=comp.d, subcase=None)
    phi = qzero_from_dual_sets(comp.lattice, [build_dual_set(plain)])
    k = solve_weight(phi)
    wv = weyl_vector(phi.with_weight(k))
    c = quadratic_weyl_constant(phi).c
    if wv.c != c:
        raise ClassificationError(f"Weyl C and sum-rule C disagree for {family}{rank}({d})")
    return k, wv.a, wv.c


def _deficit(code: str, statement: str, lhs: int, rhs: int, solved_ok: bool = True) -> LedgerCheck:
    return LedgerCheck(code, statement, (("lhs", str(lhs)), ("rhs", str(rhs))), lhs < rhs and solved_ok)


def _weyl_pairs(weight_name: str, k, a, c) -> Pairs:
    return ((weight_name, q_str(k)), ("weyl_A", q_str(a)), ("weyl_C", q_str(c)))


def _e8_scale2_deficit(comp: Component, record: bool) -> tuple[LedgerCheck, Pairs]:
    lhs, rhs = 12 + 60, 10 + 4 + 6 + 8 * 9
    solved_ok, pairs = True, ()
    if record:
        k, _, _ = _solved_data(*comp)
        solved_ok, pairs = k == lhs, (("weight", q_str(k)), ("deficit", f"{lhs} < {rhs}"))
    return _deficit("e8-scale2-weight-deficit", "12 + 60 < 10 + 4 + 6 + 8*9", lhs, rhs, solved_ok), pairs


def _e7_scale2_deficit(comp: Component, record: bool) -> tuple[LedgerCheck, Pairs]:
    k, a, c = 57, 10, 9  # the Jacobian's weight and Weyl vector (10, *, 9)
    lhs, rhs = k - c, 4 * 3 + 6 * 7
    solved_ok, pairs = True, ()
    if record:
        solved = _solved_data(*comp)
        solved_ok, pairs = solved == (k, a, c), _weyl_pairs("weight", *solved)
    return _deficit("e7-scale2-weight-deficit", "57 - 9 < 4*3 + 6*7", lhs, rhs, solved_ok), pairs


def _e8_scale3_weight(comp: Component, record: bool) -> tuple[LedgerCheck, Pairs]:
    k, a, c = _solved_data(*comp)
    values = _weyl_pairs("k", k, a, c)
    return LedgerCheck("e8-scale3-weight", "solved weight k = 12", values, k == 12), values


def _n8_bookkeeping(comp: Component, record: bool) -> tuple[LedgerCheck, Pairs]:
    k, a, c = _solved_data(*comp)
    solved = _weyl_pairs("weight", k, a, c)
    entry = LedgerCheck(
        "n8-bookkeeping",
        "10*4 + 6 = 46 = 56 - 10 with leading-order conflict 10 vs 9",
        solved + (("conflict", "10 != 9"),),
        10 * 4 + 6 == 46 == 56 - 10 and (k, a, c) == (56, 10, 9) and 10 != 9,
    )
    return entry, solved + (
        ("generator-weights", "10*4 + 6 = 46 = 56 - 10"),
        ("leading-order-conflict", "10 != 9"),
    )


def _checked(entry: LedgerCheck) -> LedgerCheck:
    if not entry.passed:
        raise ClassificationError(f"arithmetic check failed: {entry.code}")
    return entry


# ---------------------------------------------------------------------------
# the classification table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Exclusion:
    """Why a candidate is excluded, and the check of the arithmetic, if any.

    ``check(component, record)`` evaluates the exclusion's arithmetic once
    and returns its ledger entry with the record's check pairs.  With
    record=False it returns the ledger entry alone, and the E8(2) and E7(2)
    entries are plain integer arithmetic that solves nothing; with
    record=True the entry passes only if the solved component also has the
    weight and Weyl vector the argument uses.
    """

    reason: str
    citation: str
    check: Callable[[Component, bool], tuple[LedgerCheck, Pairs]] | None = None


# the 26 accepted pairs, keyed by candidate components, in display order
ACCEPTED: dict[tuple[Component, ...], tuple[str, str]] = {
    (("A", 1, 1),): ("A1", GROUP_FULL),
    (("B", 2, 1),): ("2A1", GROUP_FULL),
    (("B", 3, 1),): ("3A1", GROUP_FULL),
    (("B", 4, 1),): ("4A1", GROUP_FULL),
    (("A", 2, 1),): ("A2", GROUP_DK),
    (("G2", 2, 1),): ("A2", GROUP_FULL),
    (("A", 3, 1),): ("A3", GROUP_DK),
    (("C", 3, 1),): ("A3", GROUP_FULL),
    (("A", 4, 1),): ("A4", GROUP_DK),
    (("A", 5, 1),): ("A5", GROUP_DK),
    (("A", 6, 1),): ("A6", GROUP_DK),
    (("A", 7, 1),): ("A7", GROUP_DK),
    (("D", 4, 1),): ("D4", GROUP_DK),
    (("D", 5, 1),): ("D5", GROUP_DK),
    (("D", 6, 1),): ("D6", GROUP_DK),
    (("D", 7, 1),): ("D7", GROUP_DK),
    (("D", 8, 1),): ("D8", GROUP_DK),
    (("F4", 4, 1),): ("D4", GROUP_FULL),
    (("C", 5, 1),): ("D5", GROUP_FULL),
    (("C", 6, 1),): ("D6", GROUP_FULL),
    (("C", 7, 1),): ("D7", GROUP_FULL),
    (("C", 8, 1),): ("D8", GROUP_FULL),
    (("C", 4, 1),): ("D4", GROUP_O1),
    (("E6", 6, 1),): ("E6", GROUP_DK),
    (("E7", 7, 1),): ("E7", GROUP_FULL),
    (("E8", 8, 1),): ("E8", GROUP_FULL),
}

_NO_2_DIVISOR_NA1 = Exclusion(
    "no-complete-2-divisor",
    "there is no modular form with complete 2-divisor for "
    "2U + nA1(-1) when n >= 5 (Wang 2019); for the Nikulin "
    "overlattice N8 the Weyl vector (10,*,9) contradicts the "
    "forced leading order",
)

# the 9 excluded candidates; the rows with a check are in ledger order
EXCLUDED: dict[tuple[Component, ...], Exclusion] = {
    (("E8", 8, 2),): Exclusion(
        "weight-deficit",
        "the 2-reflective and 4-reflective modular forms have weights 12 "
        "and 60, and 12+60 < 10+4+6+8*9",
        _e8_scale2_deficit,
    ),
    (("E7", 7, 2),): Exclusion(
        "weight-deficit",
        "the Jacobian would have weight 57 and Weyl vector (10,*,9), "
        "but 57-9 < 4*3+6*7",
        _e7_scale2_deficit,
    ),
    (("E8", 8, 3),): Exclusion("weight-12-impossible", "which follows that k=12", _e8_scale3_weight),
    (("B", 5, 1),): _NO_2_DIVISOR_NA1,
    (("B", 6, 1),): _NO_2_DIVISOR_NA1,
    (("B", 7, 1),): _NO_2_DIVISOR_NA1,
    (("B", 8, 1),): dataclasses.replace(_NO_2_DIVISOR_NA1, check=_n8_bookkeeping),
    (("A", 8, 1),): Exclusion(
        "no-complete-2-divisor",
        "2U + A8(-1) has no modular forms with complete 2-divisor (Wang 2019)",
    ),
    (("F4", 4, 1), ("F4", 4, 1)): Exclusion(
        "mirror-span-deficient",
        "the 4-reflective vectors in the first copy of D4 do not span "
        "the whole space of dimension 8",
    ),
}


def resolve(candidate: CandidateSystem) -> ClassificationRecord:
    """Accepted (lattice, group) pair or cited exclusion for one candidate.

    A lookup in ACCEPTED and EXCLUDED; an exclusion's check runs here and
    raises ClassificationError if it fails.  Candidates in neither table
    stay unresolved.
    """
    key = candidate.components
    if key in ACCEPTED:
        lattice, group = ACCEPTED[key]
        return ClassificationRecord(candidate, "accepted", lattice, group)
    exclusion = EXCLUDED.get(key)
    if exclusion is None:
        return ClassificationRecord(candidate, "unresolved")
    checks: Pairs = ()
    if exclusion.check:
        entry, checks = exclusion.check(key[0], True)
        _checked(entry)
    return ClassificationRecord(
        candidate, "excluded", reason=exclusion.reason, citation=exclusion.citation, checks=checks
    )


@dataclass(frozen=True)
class ClassificationReport:
    accepted: tuple[ClassificationRecord, ...]
    excluded: tuple[ClassificationRecord, ...]
    unresolved: tuple[ClassificationRecord, ...]
    max_rank: int

    @property
    def complete(self) -> bool:
        return self.max_rank == 8


def full_table(max_rank: int = 8) -> ClassificationReport:
    """Resolve every candidate; at full rank the accepted set must have 26 rows."""
    records = [resolve(c) for c in enumerate_candidates(max_rank)]
    accepted = [r for r in records if r.verdict == "accepted"]
    excluded = [r for r in records if r.verdict == "excluded"]
    unresolved = [r for r in records if r.verdict == "unresolved"]
    order = {key: i for i, key in enumerate(ACCEPTED)}
    accepted.sort(key=lambda r: order[r.candidate.components])
    excluded.sort(key=lambda r: (r.candidate.total_rank, r.candidate.components))
    report = ClassificationReport(
        tuple(accepted), tuple(excluded), tuple(unresolved), max_rank
    )
    if max_rank == 8 and len(report.accepted) != 26:
        raise ClassificationError(
            f"expected 26 accepted pairs, found {len(report.accepted)}"
        )
    return report


def ledger_arithmetic_checks() -> tuple[LedgerCheck, ...]:
    """Exact evaluation of the exclusion inequalities and weight equations.

    The free-algebra rank bound first, then the ledger entry of every
    checked exclusion row.
    """
    entries = [_deficit("rank-bound-weight-deficit", "132 < 8*19 + 18", 132, 8 * 19 + 18)]
    entries += [ex.check(key[0], False)[0] for key, ex in EXCLUDED.items() if ex.check]
    return tuple(map(_checked, entries))


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def report_to_json(report: ClassificationReport) -> dict:
    return {
        "accepted": [
            {"lattice": r.lattice_label, "group": r.group_label}
            for r in report.accepted
        ],
        "excluded": [
            {
                "candidate": r.candidate.label,
                "reason": r.reason,
                "citation": r.citation,
                "check": dict(r.checks) if r.checks else None,
            }
            for r in report.excluded
        ],
        "unresolved": [r.candidate.label for r in report.unresolved],
        "max_rank": report.max_rank,
        "complete": report.complete,
    }


def report_to_text(report: ClassificationReport) -> str:
    lines = []
    if report.complete:
        lines.append("26 pairs (L, Gamma) with a free algebra of modular forms")
    else:
        lines.append(
            f"PARTIAL classification at rank bound {report.max_rank}: "
            f"{len(report.accepted)} accepted pairs"
        )
    lines.append("group legend: O~+ discriminant kernel, O+ full group, "
                 "O1+ kernel plus odd sign change")
    lines.append("")
    row = []
    for i, r in enumerate(report.accepted, 1):
        row.append(f"({r.lattice_label}, {r.group_label})")
        if len(row) == 6 or i == len(report.accepted):
            lines.append("  ".join(f"{cell:<12}" for cell in row).rstrip())
            row = []
    lines.append("")
    lines.append(f"excluded candidates: {len(report.excluded)}")
    for r in report.excluded:
        kind = "by computation" if r.checks else "by cited fact"
        lines.append(f"  {r.candidate.label}: {r.reason} [{kind}]")
    if report.unresolved:
        lines.append(f"UNRESOLVED: {[r.candidate.label for r in report.unresolved]}")
    return "\n".join(lines) + "\n"
