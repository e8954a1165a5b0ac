"""The orthoforms benchmark: one seeded workload, a closed loop, one job at a time.

usage: python3 perfbench/run.py --workload {expand,jacobian,qzero,cli}
                                --seed N --seconds S --trace {0,1}

--trace 0 runs whole passes over the workload's jobs, each in a
seed-shuffled order, as many as took about S seconds when the benchmark was
introduced, and prints the end-to-end metrics, with times scaled to a
reference machine speed (speed.py).  --trace 1 runs one pass in which each
job runs untraced and then traced, and prints the per-layer metrics; its
work is fixed, so its counts repeat exactly for a seed.  Every job's output
is checked.  The last line of stdout is one JSON object: correct,
attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import spans
from speed import REF_UNIT_S, Speed

HERE = Path(__file__).resolve().parent
# One pass of each workload, in seconds, at the commit that introduced the
# benchmark (2-CPU Xeon, Python 3.11.7).  The pass count is derived from
# these and --seconds, not from the run's own clock, so the sample count and
# with it the tail percentile are the same in every run and on every commit.
NOMINAL_PASS_S = {"expand": 9.7, "jacobian": 3.3, "qzero": 15.4, "cli": 5.0}
SETUP_PROBES = 5  # set-ups per run, in fresh processes; setup_s is their median
START_PROBES = 5  # bare interpreter starts per run; cli.interpreter_ms is their median


class Pass(NamedTuple):
    wall: float  # seconds, output checks and calibration units excluded
    durations: list[tuple[str, float, float]]  # (job id, seconds, start) in run order
    failures: list[tuple[str, str]]  # (job id, reason)
    peak_rss_kb: int  # largest child peak RSS (cli), else 0


def run_pass(order, reference, rec=None, speed=None) -> Pass:
    import workloads

    durations, failures, excluded, peak = [], [], 0.0, 0
    start = time.perf_counter()
    for job in order:
        if speed is not None:
            t = time.perf_counter()
            speed.maybe_sample()
            excluded += time.perf_counter() - t
        if rec is not None:
            rec.job = job.id
        t0 = time.perf_counter()
        try:
            out, why = job.call(), None
        except Exception as exc:  # a failed job is counted, never fatal
            out, why = None, f"raised {type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if rec is not None:
            rec.job = None
        durations.append((job.id, t1 - t0, t0))
        if why is None:
            if isinstance(out, workloads.CliRun):
                peak = max(peak, out.maxrss_kb)
                if rec is not None:
                    rec.merge(out.spans, job.id)
            try:
                why = workloads.check(job, out, reference)
            except Exception as exc:
                why = f"check raised {type(exc).__name__}: {exc}"
        if why:
            failures.append((job.id, why))
        excluded += time.perf_counter() - t1
    if speed is not None:
        t = time.perf_counter()
        speed.sample()
        excluded += time.perf_counter() - t
    return Pass(time.perf_counter() - start - excluded, durations, failures, peak)


def shuffled(jobs, rng):
    order = list(jobs)
    rng.shuffle(order)
    return order


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile with >= 10 beyond."""
    s = sorted(samples)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, 0
    return s[n - 11], 100.0 * (n - 10) / n, 10


# ---------------------------------------------------------------------------
# environment and set-up
# ---------------------------------------------------------------------------


def _wall(argv) -> float:
    import workloads

    t0 = time.perf_counter()
    subprocess.run(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, check=True, env=workloads.cli_env())
    return time.perf_counter() - t0


def start_ms(code: str) -> float:
    """Median wall time of a fresh interpreter running ``code``, in ms."""
    return statistics.median(_wall([sys.executable, "-c", code]) for _ in range(START_PROBES)) * 1000


def startup_import_ms(module: str) -> float | None:
    """Cumulative import time of a module the interpreter loads before any user code."""
    err = subprocess.run([sys.executable, "-X", "importtime", "-c", "pass"], stdin=subprocess.DEVNULL,
                         capture_output=True, text=True, check=True).stderr
    for line in err.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == module:
            return int(parts[1]) / 1000
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "interpreter_ms": start_ms("pass"),
        "certifi_ms": startup_import_ms("certifi"),
    }


def print_environment(env: dict) -> None:
    print(f"environment: python {env['python']}, nproc {env['nproc']}, cpu {env['cpu']!r}, "
          f"cli.interpreter_ms {env['interpreter_ms']:.2f}")
    if env["certifi_ms"] is not None:
        print(f"note: site imports certifi at every interpreter start ({env['certifi_ms']:.1f} ms "
              "cumulative here); that cost is outside orthoforms but inside every cli job")


def setup_seconds(name: str, seed: int, workdir: Path, speed: Speed) -> tuple[list[float], list[float]]:
    """Process start through import and input building, in fresh processes.

    Returns the times at the reference speed, like the job times, and as measured.
    """
    samples = []
    for i in range(SETUP_PROBES):
        argv = [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), str(workdir / f"probe{i}")]
        speed.sample()
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait()
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe exited {code}")
        samples.append((t0, elapsed))
    speed.sample()
    return [elapsed * speed.factor(t0, t0 + elapsed) for t0, elapsed in samples], [e for _, e in samples]


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def untraced(args, wl, workdir: Path) -> tuple[dict, int, int]:
    speed = Speed()
    setup, raw_setup = setup_seconds(args.workload, args.seed, workdir, speed)
    rng = random.Random(args.seed)
    count = max(1, round(args.seconds / NOMINAL_PASS_S[wl.name]))
    passes = [run_pass(shuffled(wl.jobs, rng), wl.reference, speed=speed) for _ in range(count)]
    # Times are at the reference speed (speed.py); each job's time is the
    # median of its runs, one per pass.
    runs: dict[str, list[float]] = {}
    for p in passes:
        for job_id, d, t0 in p.durations:
            runs.setdefault(job_id, []).append(d * speed.factor(t0, t0 + d))
    typical = {job_id: statistics.median(ds) for job_id, ds in runs.items()}
    durations = [typical[job_id] for p in passes for job_id, *_ in p.durations]
    raw = [d for p in passes for _, d, _ in p.durations]
    failures = [f for p in passes for f in p.failures]
    n = len(durations)
    value, pct, beyond = tail(durations)
    if wl.name == "cli":
        rss_kb = max(p.peak_rss_kb for p in passes)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "jobs_per_s": (len(typical) / sum(typical.values()), "jobs/s"),
        "job_p50_ms": (statistics.median(durations) * 1000, "ms"),
        "job_tail_ms": (value * 1000, "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    print(f"workload {wl.name}: seed {args.seed}, {len(passes)} passes of {len(wl.jobs)} jobs, "
          f"closed loop, one job at a time; pass walls "
          + " ".join(f"{p.wall:.2f}" for p in passes) + " s")
    units = sorted(u * 1000 for u in speed.units)
    print(f"  machine speed: {len(units)} calibration units of {units[0]:.2f}-{units[-1]:.2f} ms, "
          f"median {statistics.median(units):.2f} ms; times below are scaled to "
          f"{REF_UNIT_S * 1000:.1f} ms per unit")
    notes = {
        "setup_s": f"median of {len(setup)} fresh processes",
        "jobs_per_s": "jobs per pass over the sum of per-job times",
        "job_p50_ms": "per-job time: median of its runs",
        "job_tail_ms": f"p{pct:.1f}, {beyond} of {n} samples beyond",
        "peak_rss_mb": "largest cli child (wait4)" if wl.name == "cli" else "this process",
    }
    for name, (v, unit) in metrics.items():
        print(f"  {name:<12} {v:12.4f} {unit:<7} {notes.get(name, '')}")
    print(f"  {'error_ratio':<12} {len(failures) / n:12.4f} ratio   {len(failures)} failed / {n} attempted")
    print(f"  uncorrected: jobs_per_s {len(raw) / sum(raw):.4f}, job_p50_ms {statistics.median(raw) * 1000:.4f}, "
          f"job_tail_ms {tail(raw)[0] * 1000:.4f}, setup_s {statistics.median(raw_setup):.4f}")
    for job_id, why in failures[:20]:
        print(f"  FAILED {job_id}: {why}")
    if wl.probes:
        probe = run_pass(wl.probes, {})
        bad = dict(probe.failures)
        print(f"cli contract probes (malformed input must exit 2 with one stderr line): "
              f"{len(bad)} of {len(wl.probes)} violate it; known defects, outside the timed jobs")
        for job_id, *_ in probe.durations:
            print(f"  {'VIOLATED' if job_id in bad else 'ok      '} {job_id}: {bad.get(job_id, 'exit 2')}")
    return metrics, n, len(failures)


def traced(args, wl, workdir: Path) -> tuple[dict, int, int]:
    import workloads

    env_import = start_ms("import orthoforms.cli")
    order = shuffled(wl.jobs, random.Random(args.seed))
    rec = spans.Recorder()
    if wl.name == "cli":
        by_id = {job.id: job for job in workloads.build("cli", args.seed, workdir, traced=True).jobs}
        plan = []
    else:
        by_id = {job.id: job for job in wl.jobs}
        plan = spans.bindings(rec)
    # each job runs untraced and then traced, back to back, so the machine's
    # drifting speed cancels out of the overhead
    plain, traced_pass = [], []
    for job in order:
        plain.append(run_pass([job], wl.reference))
        with spans.installed(plan):
            traced_pass.append(run_pass([by_id[job.id]], wl.reference, rec))
    plain, traced_pass = _joined(plain), _joined(traced_pass)
    out_path = HERE / "out" / f"spans-{wl.name}-seed{args.seed}.tsv"
    spans.write(out_path, rec)

    metrics = spans.layer_metrics(rec)
    interp = args.env["interpreter_ms"]
    metrics["cli.interpreter_ms"] = (interp, "ms")
    metrics["cli.import_ms"] = (env_import - interp, "ms")
    by_kind: dict[str, list[float]] = {}
    for job_id, d, _ in plain.durations:
        by_kind.setdefault(job_id.split(":")[1] if wl.name == "cli" else "", []).append(d * 1000)
    if wl.probes:
        by_kind["invalid"] = [d * 1000 for _, d, _ in run_pass(wl.probes, {}).durations]
    for name in spans.CLI_MS[2:]:
        kind = name[len("cli."):-len("_ms")]
        metrics[name] = (statistics.median(by_kind[kind]) if kind in by_kind else 0.0, "ms")
    overhead = traced_pass.wall - plain.wall
    metrics["trace.overhead_s"] = (overhead, "s")

    print(f"workload {wl.name} traced: seed {args.seed}, {len(order)} jobs, untraced pass "
          f"{plain.wall:.3f} s, traced pass {traced_pass.wall:.3f} s, overhead {overhead:+.3f} s, "
          f"{len(rec.spans)} spans in {out_path.relative_to(HERE.parent)}")
    wall_ns = int(traced_pass.wall * 1e9)
    shares = spans.group_shares(rec, wall_ns)
    print("  self time by layer, share of the traced pass: "
          + ", ".join(f"{g} {v:.3f}" for g, v in shares.items()))
    for kind, ids in sorted(_kinds(wl.name, traced_pass.durations).items()):
        kind_wall = sum(d for job_id, d, _ in traced_pass.durations if job_id in ids)
        shares = [
            ", ".join(f"{name} {ns / 1e9 / kind_wall:.3f}" for name, ns in top(rec, ids, 3))
            for top in (spans.top_self, spans.top_inclusive)
        ]
        print(f"  {kind}: {len(ids)} jobs, {kind_wall:.3f} s; share of that in self time: {shares[0]}; "
              f"in whole spans: {shares[1]}")
    for name, (v, unit) in sorted(metrics.items()):
        print(f"  {name:<46} {v:14.6f} {unit}")
    failures = plain.failures + traced_pass.failures
    for job_id, why in failures[:20]:
        print(f"  FAILED {job_id}: {why}")
    return metrics, 2 * len(order), len(failures)


def _joined(passes: list[Pass]) -> Pass:
    return Pass(
        sum(p.wall for p in passes),
        [d for p in passes for d in p.durations],
        [f for p in passes for f in p.failures],
        max(p.peak_rss_kb for p in passes),
    )


def _kinds(workload: str, durations) -> dict[str, set[str]]:
    out: dict[str, set[str]] = {}
    for job_id, *_ in durations:
        parts = job_id.split(":")
        out.setdefault(parts[1] if workload == "cli" else parts[0], set()).add(job_id)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("expand", "jacobian", "qzero", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        args.env = environment()
        print_environment(args.env)
        wl = workloads.build(args.workload, args.seed, workdir, traced=False)
        metrics, attempted, failed = (traced if args.trace else untraced)(args, wl, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            workdir.parent.rmdir()
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
