"""Enumeration and resolution of candidate root-system decompositions.

Candidates are multisets of rescaled irreducible components, each of a
Cartan type of ``roots.TYPES`` with short roots of div d, filtered by three
arithmetic conditions: all components share one modified Coxeter number,
that number is an integer, and it is at least total rank + 1.  Each
surviving candidate either maps to one of the 26 accepted (lattice, group)
pairs or is excluded with a machine-readable reason, a literature citation,
and, where possible, an exact arithmetic check run through the same
machinery the accepted cases use.  Both outcomes are rows of one table
keyed by candidate components (ACCEPTED and EXCLUDED below).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import lru_cache
from typing import Callable

from .lattice import q_str
from .roots import TYPES, _plain_dual_set, display_name, realize
from .weyl import qzero_from_dual_sets, quadratic_weyl_constant, solve_weight, weyl_vector

GROUP_DK = "O~+"  # discriminant kernel
GROUP_FULL = "O+"  # full orthogonal group (positive part)
GROUP_O1 = "O1+"  # kernel extended by an odd sign change of D4


class ClassificationError(RuntimeError):
    pass


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
    """All multisets of components with a shared integral modified Coxeter number.

    The components are (t, n, d) for each type t of ``TYPES``, each rank n
    in its range and each d dividing h(n) = ``TYPES[t].h(n)`` with
    h(n)/d >= n + 1, which bounds d by h(n)/(n + 1).  Multisets keep the
    common value h(n)/d at least total rank + 1, with total rank capped by
    the free-algebra rank bound.
    """
    if not 1 <= max_rank <= 8:
        raise ValueError(f"rank bound must be between 1 and 8, got {max_rank}")
    # Assumption: every component has short roots of div d.  A1 and B2-B8
    # at d = 1 with short div 2d (subcase ii) pass the same two filters,
    # with h = n + 1, but are not enumerated, so no row of the table below
    # accepts or excludes them.
    by_h: dict[Q, list[Component]] = {}
    for family, ct in TYPES.items():
        for n in ct.ranks:
            h = ct.h(n)
            for d in range(1, h // (n + 1) + 1):
                if h % d == 0:
                    by_h.setdefault(Q(h // d), []).append((family, n, d))
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
    """(k, A, C) computed from the realized plain dual set of an enumerated component."""
    comp = realize(family, rank, d)
    phi = qzero_from_dual_sets(comp.lattice, [_plain_dual_set(comp)])
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


def _e8_scale2_deficit(comp: Component) -> tuple[LedgerCheck, Pairs]:
    lhs, rhs = 12 + 60, 10 + 4 + 6 + 8 * 9
    k, _, _ = _solved_data(*comp)
    entry = _deficit("e8-scale2-weight-deficit", "12 + 60 < 10 + 4 + 6 + 8*9", lhs, rhs, k == lhs)
    return entry, (("weight", q_str(k)), ("deficit", f"{lhs} < {rhs}"))


def _e7_scale2_deficit(comp: Component) -> tuple[LedgerCheck, Pairs]:
    k, a, c = 57, 10, 9  # the Jacobian's weight and Weyl vector (10, *, 9)
    solved = _solved_data(*comp)
    lhs, rhs = k - c, 4 * 3 + 6 * 7
    entry = _deficit("e7-scale2-weight-deficit", "57 - 9 < 4*3 + 6*7", lhs, rhs, solved == (k, a, c))
    return entry, _weyl_pairs("weight", *solved)


def _e8_scale3_weight(comp: Component) -> tuple[LedgerCheck, Pairs]:
    k, a, c = _solved_data(*comp)
    values = _weyl_pairs("k", k, a, c)
    return LedgerCheck("e8-scale3-weight", "solved weight k = 12", values, k == 12), values


def _n8_bookkeeping(comp: Component) -> tuple[LedgerCheck, Pairs]:
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

    ``check(component)`` evaluates the exclusion's arithmetic once, on the
    component's solved weight and Weyl vector, and returns its ledger entry
    with the record's check pairs.  The entry passes only if the arithmetic
    holds and the solved values are the ones the argument uses; ``resolve``
    and ``ledger_arithmetic_checks`` both run it.
    """

    reason: str
    citation: str
    check: Callable[[Component], tuple[LedgerCheck, Pairs]] | None = None


# the groups of the 26 accepted pairs, keyed by candidate components, in display order
ACCEPTED: dict[tuple[Component, ...], str] = {
    (("A", 1, 1),): GROUP_FULL,
    (("B", 2, 1),): GROUP_FULL,
    (("B", 3, 1),): GROUP_FULL,
    (("B", 4, 1),): GROUP_FULL,
    (("A", 2, 1),): GROUP_DK,
    (("G2", 2, 1),): GROUP_FULL,
    (("A", 3, 1),): GROUP_DK,
    (("C", 3, 1),): GROUP_FULL,
    (("A", 4, 1),): GROUP_DK,
    (("A", 5, 1),): GROUP_DK,
    (("A", 6, 1),): GROUP_DK,
    (("A", 7, 1),): GROUP_DK,
    (("D", 4, 1),): GROUP_DK,
    (("D", 5, 1),): GROUP_DK,
    (("D", 6, 1),): GROUP_DK,
    (("D", 7, 1),): GROUP_DK,
    (("D", 8, 1),): GROUP_DK,
    (("F4", 4, 1),): GROUP_FULL,
    (("C", 5, 1),): GROUP_FULL,
    (("C", 6, 1),): GROUP_FULL,
    (("C", 7, 1),): GROUP_FULL,
    (("C", 8, 1),): GROUP_FULL,
    (("C", 4, 1),): GROUP_O1,
    (("E6", 6, 1),): GROUP_DK,
    (("E7", 7, 1),): GROUP_FULL,
    (("E8", 8, 1),): GROUP_FULL,
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

    A lookup in ACCEPTED and EXCLUDED; an accepted row's lattice label is
    the ``TYPES`` lattice of its one component (d = 1).  An exclusion's
    check runs here and raises ClassificationError if it fails.  Candidates
    in neither table stay unresolved.
    """
    key = candidate.components
    if key in ACCEPTED:
        ((family, n, _),) = key
        return ClassificationRecord(candidate, "accepted", TYPES[family].lattice(n), ACCEPTED[key])
    exclusion = EXCLUDED.get(key)
    if exclusion is None:
        return ClassificationRecord(candidate, "unresolved")
    checks: Pairs = ()
    if exclusion.check:
        entry, checks = exclusion.check(key[0])
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
    # excluded and unresolved rows keep enumerate_candidates' (total_rank, components) order
    records = [resolve(c) for c in enumerate_candidates(max_rank)]
    accepted = [r for r in records if r.verdict == "accepted"]
    excluded = [r for r in records if r.verdict == "excluded"]
    unresolved = [r for r in records if r.verdict == "unresolved"]
    order = {key: i for i, key in enumerate(ACCEPTED)}
    accepted.sort(key=lambda r: order[r.candidate.components])
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
    entries += [ex.check(key[0])[0] for key, ex in EXCLUDED.items() if ex.check]
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
