"""Seeded inputs, jobs and output checks for the benchmark workloads.

A job is one call into orthoforms, or for ``cli`` one fresh CLI process.
Every job output is checked twice: against an exact identity where one
exists, and against the digest of its canonical form recorded in
reference.json (see record_reference.py).  The seed only chooses among and
orders inputs that reference.json covers, so every seed is checkable.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import sys
from fractions import Fraction as Q
from pathlib import Path
from typing import Callable, NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

# The package is not installed: import it from the checkout's src/ only.
if not (SRC / "orthoforms" / "__init__.py").is_file():
    raise ImportError(f"orthoforms sources not found under {SRC}")
sys.path.insert(0, str(SRC))

from orthoforms import lattice, roots, series, weyl  # noqa: E402


R33 = (Q(3), Q(3))
R22 = (Q(2), Q(2))

# jacobian pool: POOL_SIZE seeded instances per rank s; a run draws PICK of them
POOL_SIZE = 24
PICK = 20


class Job(NamedTuple):
    id: str  # stable name; the key of its digest in reference.json
    call: Callable[[], object]  # the timed work
    canonical: Callable[[object], object] | None  # JSON form of the output, or None: no digest
    identity: Callable[[object], str | None] = lambda out: None  # exact identity the output obeys


class Workload(NamedTuple):
    name: str
    jobs: list[Job]
    probes: list[Job]  # cli contract probes, run outside the timed loop
    reference: dict[str, str]


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check(job: Job, out, reference: dict[str, str]) -> str | None:
    """None when the output is right, else a one-line reason."""
    why = job.identity(out)
    if why or job.canonical is None:
        return why
    want = reference.get(job.id)
    if want is None:
        return "no reference digest"
    got = digest(job.canonical(out))
    return None if got == want else f"digest {got[:12]} differs from reference {want[:12]}"


def _zero(x) -> str | None:
    return None if x.is_zero else f"expected zero, got {len(x.terms)} terms"


# ---------------------------------------------------------------------------
# expand: the six acceptance datasets through the product expansion
# ---------------------------------------------------------------------------


def _solved(type_tag, rank, d=1, subcase=None, short_div=None):
    comp = roots.realize(type_tag, rank, d)
    if subcase is not None or short_div is not None:
        comp = dataclasses.replace(comp, short_div=short_div or comp.short_div, subcase=subcase)
    phi = weyl.qzero_from_dual_sets(comp.lattice, [roots.build_dual_set(comp)])
    phi = phi.with_weight(weyl.solve_weight(phi))
    return phi, weyl.weyl_vector(phi)


def expansion_datasets() -> dict[str, tuple]:
    sets = {
        "A1-plain": _solved("A", 1, short_div=1),
        "A1-subcase-i": _solved("A", 1, subcase="i"),
        "A2": _solved("A", 2),
        "B2-plain": _solved("B", 2, short_div=1),
        "G2": _solved("G2", 2),
    }
    phi0 = weyl.QZeroData(lattice.builtin_lattice("A1"), {(-1, (Q(0),)): 1}, 12)
    sets["empty-weight-12"] = (phi0, weyl.weyl_vector(phi0))
    return sets


def expand_jobs() -> list[Job]:
    jobs = []
    for name, (phi, wv) in expansion_datasets().items():
        table, rank = phi.coefficient_table(), phi.lattice.rank
        # module attributes are looked up at call time, so traced wrappers apply
        jobs.append(Job(
            f"expand_product:{name}@3,3",
            lambda t=table, w=wv, r=rank: series.expand_product(t, w, R33, r),
            series.series_to_json,
        ))
        jobs.append(Job(
            f"log_derivative_residual:{name}@2,2",
            lambda t=table, w=wv, r=rank: series.log_derivative_residual(t, w, R22, r),
            series.series_to_json,
            _zero,
        ))
        jobs.append(Job(
            f"principal_block_residual:{name}@2,2",
            lambda t=table, w=wv, r=rank: series.principal_block_residual(t, w, R22, r),
            series.series_to_json,
            _zero,
        ))
    return jobs


# ---------------------------------------------------------------------------
# jacobian: tiny random forms shaped like acceptance criterion 6
# ---------------------------------------------------------------------------


def _random_series(rng: random.Random, rank: int) -> series.TruncatedSeries:
    terms: dict = {}
    for _ in range(4):
        key = (
            Q(rng.randint(0, 3)),
            tuple(Q(rng.randint(-2, 2)) for _ in range(rank)),
            Q(rng.randint(0, 3)),
        )
        terms[key] = terms.get(key, Q(0)) + Q(rng.randint(-4, 4), rng.randint(1, 3))
    return series.TruncatedSeries(rank, {k: c for k, c in terms.items() if c}, R33)


def pool_forms(s: int, index: int) -> list[series.WeightedSeries]:
    """Instance ``index`` of the rank-s pool: s + 4 weighted forms."""
    rng = random.Random(1000 * s + index)
    return [
        series.WeightedSeries(_random_series(rng, s), rng.randint(1, 6))
        for _ in range(s + 4)
    ]


def pool_picks(seed: int) -> list[tuple[int, int]]:
    rng = random.Random(seed)
    return [(s, i) for s in (1, 2) for i in sorted(rng.sample(range(POOL_SIZE), PICK))]


def syzygy_picks(picks: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Every s=1 pick and half the s=2 ones.

    Unpaired on purpose: with one syzygy per Jacobian the median job would
    sit on the gap between the two kinds and swing with the seed.
    """
    s2 = [p for p in picks if p[0] == 2]
    return [p for p in picks if p[0] == 1] + s2[: len(s2) // 2]


def jacobian_jobs(instances, syzygy_instances) -> list[Job]:
    jobs = []
    for s, i in instances:
        forms = pool_forms(s, i)
        jobs.append(Job(
            f"jacobian:s{s}#{i}",
            lambda f=forms[:-1]: series.jacobian(f),
            series.series_to_json,
        ))
    for s, i in syzygy_instances:
        jobs.append(Job(
            f"syzygy_sum:s{s}#{i}",
            lambda f=pool_forms(s, i): series.syzygy_sum(f),
            series.series_to_json,
            _zero,
        ))
    return jobs


# ---------------------------------------------------------------------------
# qzero: the modified-Coxeter table, weights, Weyl vectors and root systems
# ---------------------------------------------------------------------------


def table_components() -> list[tuple[str, int, int, str | None, int | None]]:
    """The 165 (type, rank, d, subcase, short_div override) cases of the table."""
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


def _component_c(tag, n, d, sub, short_div):
    comp = roots.realize(tag, n, d)
    if short_div is not None:
        comp = dataclasses.replace(comp, short_div=short_div, subcase=None)
    elif sub is not None:
        comp = dataclasses.replace(comp, subcase=sub)
    phi = weyl.qzero_from_dual_sets(comp.lattice, [roots.build_dual_set(comp)])
    return comp, weyl.quadratic_weyl_constant(phi).c


def _c_is_modified_coxeter(out) -> str | None:
    comp, c = out
    want = roots.modified_coxeter(comp)
    return None if c == want else f"C = {c}, modified Coxeter number {want}"


ROOT_COUNTS = {("E8", 2): 240, ("E7", 2): 126, ("D8", 2): 112}
WEIGHTS = {"E8": 252}


def _root_summary(rd_comps):
    rd, comps = rd_comps
    return [len(rd.roots)] + [[c.type_tag, c.rank, c.d, len(c.roots)] for c in comps]


def qzero_jobs() -> list[Job]:
    jobs = []
    for case in table_components():
        tag, n, d, sub, short_div = case
        name = tag if tag[0] in "EFG" else f"{tag}{n}"
        label = f"{name}({d})" + (f"/{sub}" if sub else "") + ("/plain" if short_div else "")
        jobs.append(Job(
            f"component:{label}",
            lambda c=case: _component_c(*c),
            lambda out: str(out[1]),
            _c_is_modified_coxeter,
        ))
    for name in ("E8", "E7", "D8"):
        comp = roots.realize(name[0] if name == "D8" else name, int(name[1]))
        phi = weyl.qzero_from_dual_sets(comp.lattice, [roots.build_dual_set(comp)])
        k = weyl.solve_weight(phi)
        solved = phi.with_weight(k)
        jobs.append(Job(
            f"solve_weight:{name}",
            lambda p=phi: weyl.solve_weight(p),
            str,
            lambda got, want=WEIGHTS.get(name): (
                None if want is None or got == want else f"k = {got}, expected {want}"
            ),
        ))
        jobs.append(Job(
            f"weyl_vector:{name}",
            lambda p=solved: weyl.weyl_vector(p),
            lambda wv: [str(wv.a), [str(x) for x in wv.b], str(wv.c)],
            lambda wv: None if wv.a == wv.c + 1 else f"A = {wv.a} but C + 1 = {wv.c + 1}",
        ))
    for name in lattice.builtin_names():
        for norm in (2, 4):
            def call(name=name, norm=norm):
                rd = roots.detect_roots(lattice.builtin_lattice(name), norm)
                return rd, roots.decompose(rd)

            want = ROOT_COUNTS.get((name, norm))
            jobs.append(Job(
                f"roots:{name}@{norm}",
                call,
                _root_summary,
                lambda out, want=want: (
                    None if want is None or len(out[0].roots) == want
                    else f"{len(out[0].roots)} roots, expected {want}"
                ),
            ))
    return jobs


# ---------------------------------------------------------------------------
# cli: fresh `python -m orthoforms.cli` processes
# ---------------------------------------------------------------------------


class CliRun(NamedTuple):
    code: int
    stdout: str
    stderr: str
    maxrss_kb: int
    spans: str  # spans and counts a traced child dumped, "" when untraced


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("ORTHOFORMS_THREADS", None)
    return env


def spawn(argv: list[str], workdir: Path, env: dict[str, str]) -> CliRun:
    """Run one process to completion with its output in files under workdir.

    wait4 reports the resource usage of this child alone, so the peak RSS
    is that of the process that did the work.
    """
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    spans_path = workdir / "spans.tsv"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    pid = os.posix_spawn(argv[0], argv, env, file_actions=[
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644),
    ])
    _, status, usage = os.wait4(pid, 0)
    spans = ""
    if spans_path.exists():
        spans = spans_path.read_text()
        spans_path.unlink()
    return CliRun(
        os.waitstatus_to_exitcode(status), out_path.read_text(), err_path.read_text(),
        usage.ru_maxrss, spans,
    )


def _write(path: Path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def _coefficient_file(path: Path, type_tag: str, rank: int) -> str:
    comp = roots.realize(type_tag, rank)
    phi = weyl.qzero_from_dual_sets(comp.lattice, [roots.build_dual_set(comp)])
    coeffs = [
        {"n": n, "l": [series.q_str(x) for x in coords], "f": f}
        for (n, coords), f in sorted(phi.coefficient_table().items())
    ]
    return _write(path, {"lattice": f"builtin:{comp.lattice.label}", "coeffs": coeffs, "k": "symbolic"})


def _cli_ok(run: CliRun) -> str | None:
    if run.code != 0:
        tail = run.stderr.strip().splitlines()[-1:] or [""]
        return f"exit {run.code}: {tail[0][:160]}"
    return None


def _classify_ok(run: CliRun) -> str | None:
    why = _cli_ok(run)
    if why:
        return why
    accepted = len(json.loads(run.stdout)["accepted"])
    return None if accepted == 26 else f"{accepted} accepted pairs, expected 26"


def _rejected(run: CliRun) -> str | None:
    lines = run.stderr.strip().splitlines()
    if run.code == 2 and len(lines) == 1:
        return None
    return f"exit {run.code} with {len(lines)} stderr lines, expected exit 2 with one line"


def cli_argvs(workdir: Path, instances) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
    """Subcommand argument lists: valid jobs by id, and malformed-input probes by id.

    Writes the input files they name into workdir.
    """
    valid = {
        "cli:lattice": ["lattice", "builtin:E8"],
        "cli:roots": ["roots", "builtin:E8", "--max-norm", "4"],
        "cli:weyl": ["weyl", _coefficient_file(workdir / "e8.json", "E8", 8)],
        "cli:borch": ["borch", _coefficient_file(workdir / "a2.json", "A", 2), "--rect", "2,2"],
        "cli:classify": ["classify", "--format", "json"],
    }
    for s, i in instances:
        forms = pool_forms(s, i)
        paths = [
            _write(workdir / f"s{s}-{i}-{j}.json", series.series_to_json(f.series))
            for j, f in enumerate(forms)
        ]
        weights = [str(f.weight) for f in forms]
        valid[f"cli:jacobian:s{s}#{i}"] = ["jacobian", *paths[:-1], "--weights", ",".join(weights[:-1])]
        valid[f"cli:syzygy:s{s}#{i}"] = ["jacobian", *paths, "--weights", ",".join(weights), "--syzygy"]
    bad_series = _write(workdir / "bad-series.json", {"rank": 1, "terms": 5, "rect": ["3/1", "3/1"]})
    empty_phi = _write(workdir / "empty-phi.json", {
        "lattice": "builtin:A1", "coeffs": [{"n": -1, "l": ["0/1"], "f": 1}], "k": 12,
    })
    probes = {
        "probe:weyl-coeffs-int": ["weyl", _write(workdir / "bad-coeffs.json", {"lattice": "builtin:A1", "coeffs": 5})],
        "probe:jacobian-terms-int": ["jacobian", *[bad_series] * 4, "--weights", "1,1,1,1"],
        "probe:lattice-bool-gram": ["lattice", _write(workdir / "bool-gram.json", {"gram": [[True]]})],
        "probe:borch-den-zero": ["borch", empty_phi, "--rect", "1,1", "--den", "0"],
    }
    return valid, probes


def cli_command(argv: list[str], workdir: Path, traced: bool) -> list[str]:
    if traced:
        return [sys.executable, str(HERE / "cli_child.py"), str(workdir / "spans.tsv"), *argv]
    return [sys.executable, "-m", "orthoforms.cli", *argv]


def cli_jobs(workdir: Path, instances, traced: bool = False) -> Workload:
    """CLI jobs; traced children record their spans for the parent to merge."""
    valid, probes = cli_argvs(workdir, instances)
    env = cli_env()

    def job(job_id, argv, canonical, identity):
        command = cli_command(argv, workdir, traced)
        return Job(job_id, lambda: spawn(command, workdir, env), canonical, identity)

    jobs = [
        job(job_id, argv, lambda run: run.stdout,
            _classify_ok if job_id == "cli:classify" else _cli_ok)
        for job_id, argv in valid.items()
    ]
    return Workload("cli", jobs, [job(i, a, None, _rejected) for i, a in probes.items()], {})


# ---------------------------------------------------------------------------


def build(name: str, seed: int, workdir: Path, traced: bool = False) -> Workload:
    """Everything a run needs before its first job; the seed picks pool instances."""
    if name == "expand":
        wl = Workload(name, expand_jobs(), [], {})
    elif name == "jacobian":
        picks = pool_picks(seed)
        wl = Workload(name, jacobian_jobs(picks, syzygy_picks(picks)), [], {})
    elif name == "qzero":
        wl = Workload(name, qzero_jobs(), [], {})
    elif name == "cli":
        wl = cli_jobs(workdir, [(2, random.Random(seed).randrange(POOL_SIZE))], traced)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return wl._replace(reference=json.loads(REFERENCE.read_text()))
