"""In-memory spans and counters, recorded by wrappers installed from outside.

A span is [name, start_ns, end_ns, parent index, job id], timed with
perf_counter_ns.  Wrappers record only while a job is current, so set-up
and output checks stay untraced.  A layer's self time is its spans'
durations minus the time their child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter_ns


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.job: str | None = None
        self._stack: list[int] = []

    def timed(self, name, fn, count=None):
        """Wrap fn in a span; count(counts, args, kwargs, out) adds its counters."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(len(self.spans))
            span = [name, perf_counter_ns(), 0, parent, self.job]
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                self._stack.pop()
            self.counts[name + ".calls"] += 1
            if count is not None:
                count(self.counts, args, kwargs, out)
            return out

        return wrapper

    def counted(self, name, fn):
        """Count calls without a span, for methods too hot to time one by one."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.job is not None:
                self.counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def merge(self, text: str, job: str) -> None:
        """Add the spans and counts another process dumped for one job."""
        base = len(self.spans)
        for line in text.splitlines():
            fields = line.split("\t")
            if len(fields) == 2:
                self.counts[fields[0]] += int(fields[1])
                continue
            name, start, end, parent, _ = fields
            p = int(parent)
            self.spans.append([name, int(start), int(end), p + base if p >= 0 else -1, job])

    def dump(self) -> str:
        """Spans as name, start, end, parent, job; then counts as name, value."""
        lines = [f"{n}\t{s}\t{e}\t{p}\t{j}\n" for n, s, e, p, j in self.spans]
        lines += [f"{name}\t{value}\n" for name, value in sorted(self.counts.items())]
        return "".join(lines)

    def self_ns(self, jobs=None) -> Counter:
        """Self time by span name, over all spans or those of the given job ids."""
        covered = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: Counter = Counter()
        for (name, start, end, _, job), child in zip(self.spans, covered):
            if jobs is None or job in jobs:
                out[name] += end - start - child
        return out


# ---------------------------------------------------------------------------
# what is wrapped, and the counters each wrapper adds
# ---------------------------------------------------------------------------


def _mul(counts, args, kwargs, out):
    a, b = args
    counts["series.mul.pairs_tried"] += len(a.terms) * len(b.terms)
    counts["series.mul.terms_out"] += len(out.terms)


def _expand(counts, args, kwargs, out):
    from orthoforms import series

    coeffs, _, rect, rank = args[:4]
    counts["series.expand_product.factors_in"] += len(series.product_factors(coeffs, rect, rank))
    counts["series.expand_product.terms_out"] += len(out.terms)


def _init(counts, args, kwargs, out):
    terms = args[2] if len(args) > 2 else kwargs["terms"]
    counts["series.init.terms_in"] += len(terms)


def _qwc(counts, args, kwargs, out):
    counts["weyl.quadratic_weyl_constant.entries_in"] += len(args[0].q0_entries())


def _qzero_init(counts, args, kwargs, out):
    entries = args[2] if len(args) > 2 else kwargs["entries"]
    counts["weyl.QZeroData.init.entries_in"] += len(entries)


def _decompose(counts, args, kwargs, out):
    counts["roots.decompose.roots_in"] += len(args[0].roots)


def _short_vectors(counts, args, kwargs, out):
    counts["lattice.short_vectors.vectors_out"] += len(out)


# (module, attribute path, span name, counter)
TIMED = (
    ("series", "TruncatedSeries.__mul__", "series.mul", _mul),
    ("series", "TruncatedSeries.__init__", "series.init", _init),
    ("series", "TruncatedSeries.__add__", "series.add", None),
    ("series", "TruncatedSeries.derive", "series.derive", None),
    ("series", "expand_product", "series.expand_product", _expand),
    ("series", "log_derivative_residual", "series.log_derivative_residual", None),
    ("series", "principal_block_residual", "series.principal_block_residual", None),
    ("series", "jacobian", "series.jacobian", None),
    ("series", "syzygy_sum", "series.syzygy_sum", None),
    ("series", "series_to_json", "series.json", None),
    ("series", "series_from_json", "series.json", None),
    ("weyl", "quadratic_weyl_constant", "weyl.quadratic_weyl_constant", _qwc),
    ("weyl", "QZeroData.__init__", "weyl.QZeroData.init", _qzero_init),
    ("weyl", "qzero_from_dual_sets", "weyl.qzero_from_dual_sets", None),
    ("weyl", "solve_weight", "weyl.solve_weight", None),
    ("weyl", "weyl_vector", "weyl.weyl_vector", None),
    ("roots", "sum_rule_constant", "roots.sum_rule_constant", None),
    ("roots", "detect_roots", "roots.detect_roots", None),
    ("roots", "decompose", "roots.decompose", _decompose),
    ("roots", "realize", "roots.realize", None),
    ("roots", "build_dual_set", "roots.build_dual_set", None),
    ("linalg", "rank", "linalg.rank", None),
    ("linalg", "short_vectors_of_form", "linalg.short_vectors_of_form", None),
    ("linalg", "smith_normal_form", "linalg.smith_normal_form", None),
    ("lattice", "short_vectors", "lattice.short_vectors", _short_vectors),
    ("lattice", "discriminant_group", "lattice.discriminant_group", None),
    ("classify", "full_table", "classify.full_table", None),
    ("classify", "enumerate_candidates", "classify.enumerate_candidates", None),
    ("classify", "resolve", "classify.resolve", None),
    ("classify", "ledger_arithmetic_checks", "classify.ledger_arithmetic_checks", None),
    ("cli", "main", "cli.main", None),
)
COUNTED = (("lattice", "Lattice.pairing", "lattice.Lattice.pairing"),)


def bindings(rec: Recorder) -> list[tuple[object, str, object, object]]:
    """(namespace, attribute, original, wrapper) for every binding to trace.

    Modules import one another's functions by name (roots binds
    short_vectors, classify binds the weyl and roots functions), so every
    orthoforms module that binds a traced function is listed, not only the
    one defining it.  Methods are replaced on their class.
    """
    import orthoforms.cli  # noqa: F401  (load every module before scanning)

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "orthoforms"]
    wrappers = [(mod, path, rec.timed(name, _lookup(mod, path), count)) for mod, path, name, count in TIMED]
    wrappers += [(mod, path, rec.counted(name, _lookup(mod, path))) for mod, path, name in COUNTED]
    out = []
    for mod, path, wrapper in wrappers:
        original = _lookup(mod, path)
        owner_path, _, attr = path.rpartition(".")
        if owner_path:
            out.append((_lookup(mod, owner_path), attr, original, wrapper))
            continue
        for module in modules:
            out += [(module, key, original, wrapper) for key, value in vars(module).items() if value is original]
    return out


@contextlib.contextmanager
def installed(plan):
    """Wrappers in place for the duration of the block, originals after it."""
    for owner, attr, _, wrapper in plan:
        setattr(owner, attr, wrapper)
    try:
        yield
    finally:
        for owner, attr, original, _ in plan:
            setattr(owner, attr, original)


def _lookup(module: str, path: str):
    obj = sys.modules[f"orthoforms.{module}"]
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

SELF_S = sorted({name for _, _, name, _ in TIMED})
COUNTS = (
    "series.mul.calls", "series.mul.pairs_tried", "series.mul.terms_out",
    "series.expand_product.calls", "series.expand_product.factors_in",
    "series.expand_product.terms_out",
    "series.init.calls", "series.init.terms_in", "series.add.calls",
    "series.derive.calls", "series.jacobian.calls", "series.syzygy_sum.calls",
    "weyl.quadratic_weyl_constant.calls", "weyl.quadratic_weyl_constant.entries_in",
    "weyl.QZeroData.init.calls", "weyl.QZeroData.init.entries_in",
    "linalg.rank.calls", "roots.decompose.roots_in", "lattice.Lattice.pairing.calls",
    "lattice.short_vectors.calls", "lattice.short_vectors.vectors_out",
    "classify.resolve.calls",
)
CLI_MS = (
    "cli.interpreter_ms", "cli.import_ms", "cli.lattice_ms", "cli.roots_ms", "cli.weyl_ms",
    "cli.borch_ms", "cli.jacobian_ms", "cli.syzygy_ms", "cli.classify_ms", "cli.invalid_ms",
)
# layer groups for the split the trace is meant to confirm
GROUPS = (
    ("series", ("series.",)),
    ("linalg+lattice+roots+weyl", ("linalg.", "lattice.", "roots.", "weyl.")),
    ("classify", ("classify.",)),
    ("cli", ("cli.",)),
)


def layer_metrics(rec: Recorder) -> dict[str, tuple[float, str]]:
    self_ns = rec.self_ns()
    out = {f"{name}.self_s": (self_ns[name] / 1e9, "s") for name in SELF_S}
    out.update({name: (rec.counts[name], "count") for name in COUNTS})
    tried = rec.counts["series.mul.pairs_tried"]
    out["series.mul.keep_ratio"] = (rec.counts["series.mul.terms_out"] / tried if tried else 0.0, "ratio")
    return out


def group_shares(rec: Recorder, wall_ns: int) -> dict[str, float]:
    self_ns = rec.self_ns()
    shares = {
        group: sum(v for k, v in self_ns.items() if k.startswith(prefixes)) / wall_ns
        for group, prefixes in GROUPS
    }
    shares["outside spans"] = 1 - sum(shares.values())
    return shares


def top_self(rec: Recorder, jobs, k: int) -> list[tuple[str, int]]:
    return rec.self_ns(jobs).most_common(k)


def top_inclusive(rec: Recorder, jobs, k: int) -> list[tuple[str, int]]:
    """Span names by total duration, child spans included."""
    out: Counter = Counter()
    for name, start, end, _, job in rec.spans:
        if job in jobs:
            out[name] += end - start
    return out.most_common(k)


def write(path: Path, rec: Recorder) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(rec.dump())
