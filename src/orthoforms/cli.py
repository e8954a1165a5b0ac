"""Command-line front end: JSON in, JSON or plain text out.

Exit codes form a stable contract: 0 success, 1 internal check failure,
2 input validation error, 3 missing data.  An error is one ``error:`` line
on stderr: ``_read_json`` maps a file that cannot be read or parsed,
``cmd_roots`` mirrors that match no type in the table, and ``cmd_jacobian``
a series with a negative exponent, to exit 2 naming it,
``_series_doc`` and ``cmd_lattice`` a number too long to print to exit 2,
and ``main`` the library's ValueError and ArithmeticError to exit 2 and
its SeriesOverflowError (a series past the term cap) to exit 1.  A stderr
that cannot be written loses that line, not the exit code.

Each command returns ``(text, doc)``, its table or summary lines and its
JSON document, and writes nothing.  One writer, ``_write``, puts them out:
the text unless ``--format json``, the document unless ``--format table``,
into the ``-o`` file if given, else onto stdout after the text; ``-o -``
is stdout, the same as no ``-o``.  The file is written first, so one that
cannot be written (exit 2, naming it) leaves stdout empty; a stdout that
cannot be written (a closed pipe, a full device) is exit 2, with no
traceback and nothing from the flush at exit.

Each command runs only the modules it calls, as the package's submodules
run at first use (see ``orthoforms``); the JSON field readers come from
lattice, which every command runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction as Q

from . import classify, lattice as lattice_mod, roots as roots_mod, series as series_mod, weyl as weyl_mod
from .lattice import DEFAULT_DEN, _ascii_int, _json_int, _json_list, _json_q, _quoted, q_str

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INVALID = 2
EXIT_MISSING = 3


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INVALID):
        super().__init__(message)
        self.code = code


def _parse_rect(text: str) -> tuple[Q, Q]:
    parts = text.split(",")
    if len(parts) != 2:
        raise CliError(f"--rect expects 'A,T', got {_quoted(text)}")
    return _json_q(parts[0], "--rect bound"), _json_q(parts[1], "--rect bound")


def _read_json(path: str, what: str, parse):
    """The JSON document in path, through parse; any failure is one exit-2 line naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        return parse(doc)
    except FileNotFoundError:
        raise CliError(f"no such file: {_quoted(path, str)}")
    except OSError as exc:
        raise CliError(f"cannot read {_quoted(path, str)}: {exc.strerror}")
    except (ValueError, KeyError, RecursionError) as exc:
        raise CliError(f"invalid {what} {_quoted(path, str)}: {exc}")


def _load_lattice(ref: str) -> lattice_mod.Lattice:
    if not ref.startswith("builtin:"):
        return _read_json(ref, "lattice", lattice_mod.lattice_from_json)
    try:
        return lattice_mod.builtin_lattice(ref[len("builtin:"):])
    except KeyError as exc:
        raise CliError(exc.args[0])
    except ValueError as exc:
        raise CliError(f"invalid lattice {_quoted(ref, str)}: {exc}")


def _load_qzero(path: str) -> weyl_mod.QZeroData:
    return _read_json(path, "coefficient file", lambda doc: _qzero_from_json(doc, path))


def _qzero_from_json(doc, path: str) -> weyl_mod.QZeroData:
    """The QZeroData of a coefficient file; a malformed field is a ValueError naming its entry, a gap exit 3."""
    if not isinstance(doc, dict) or "lattice" not in doc:
        raise ValueError("the document must contain a 'lattice' field")
    ref = doc["lattice"]
    lat = _load_lattice(ref) if isinstance(ref, str) else lattice_mod.lattice_from_json(ref)
    if not lat.is_positive_definite:
        raise ValueError("its lattice is not positive definite")
    entries: dict[tuple[int, tuple], int] = {}
    named: dict[tuple[int, tuple], tuple[int, str]] = {}  # each (n, l) -> its first entry's index and name
    for index, item in enumerate(_json_list(doc.get("coeffs", []), "'coeffs'")):
        if not isinstance(item, dict):
            raise ValueError(f"coefficient entry {index} must be an object, got {_quoted(item)}")
        entry = f"coefficient entry {index} {_quoted(item)}"
        n, f = (_json_int(item.get(field), f"{entry}: '{field}'") for field in ("n", "f"))
        coords = tuple(_json_q(v, f"{entry}: 'l' entry") for v in _json_list(item.get("l"), f"{entry}: 'l'"))
        if entries.setdefault((n, coords), f) != f:
            raise ValueError(f"{entry} conflicts with an earlier entry for the same n and l")
        named.setdefault((n, coords), (index, entry))
    # structural completeness: the principal part and every evenness partner are stored, with the value they need
    missing = weyl_mod._missing_coefficients(entries, lat.rank)
    for n, coords in missing:
        if (n, coords) in named:  # the file holds it with another value: a conflict, not a gap
            partner = named[n, tuple(-x for x in coords)]
            if partner == named[n, coords]:  # (-1, 0), the one missing entry that is its own partner
                raise ValueError(f"{partner[1]} conflicts with the principal part f(-1, 0) = 1")
            first, second = sorted((named[n, coords], partner))
            raise ValueError(f"{first[1]} and {second[1]} conflict: f(n, -l) must equal f(n, l)")
    if missing:
        listing = ", ".join(f"(n={n}, l=[{', '.join(map(q_str, coords))}])" for n, coords in sorted(missing))
        raise CliError(f"{path}: missing required coefficients: {listing}", EXIT_MISSING)
    k = doc.get("k", "symbolic")
    return weyl_mod.QZeroData(lat, entries, None if k == "symbolic" else _json_q(k, "'k'"))


def _lines(*lines: str) -> str:
    return "".join(f"{line}\n" for line in lines)


# ---------------------------------------------------------------------------
# subcommands: each returns (text, doc) and writes nothing
# ---------------------------------------------------------------------------


def cmd_lattice(args) -> tuple[str, dict]:
    lat = _load_lattice(args.ref)
    disc = lattice_mod.discriminant_group(lat)
    limit = sys.get_int_max_str_digits()  # 0 when there is none
    for name, n in (("determinant", lat.determinant), ("level", disc.level)):  # the order is |det|; the divisors divide it
        if limit and abs(n) >= 10**limit:
            raise CliError(f"lattice {_quoted(args.ref, str)} has a {name} of more than {limit} digits, too long to print")
    doc = {
        "label": lat.label,
        "rank": lat.rank,
        "determinant": lat.determinant,
        "even": lat.is_even,
        "positive_definite": lat.is_positive_definite,
        "discriminant_group": list(disc.elementary_divisors),
        "order": disc.order,
        "level": disc.level,
    }
    return _lines(
        f"lattice {lat.label or '(unlabelled)'}",
        f"  rank          {lat.rank}",
        f"  determinant   {lat.determinant}",
        f"  even          {'yes' if lat.is_even else 'no'}",
        f"  disc. group   {disc}",
        f"  order         {disc.order}",
        f"  level         {disc.level}",
    ), doc


def cmd_roots(args) -> tuple[str, dict]:
    lat = _load_lattice(args.ref)
    try:
        rd = roots_mod.detect_roots(lat, args.max_norm)
    except lattice_mod.NotPositiveDefiniteError:
        raise CliError(f"lattice {_quoted(args.ref, str)} is not positive definite, so it has no finite root set")
    try:
        comps = roots_mod.decompose(rd) if rd.roots else []
    except roots_mod.UnrecognizedRootSystemError as exc:
        raise CliError(f"the mirrors of lattice {_quoted(args.ref, str)} match no type in the table: {exc}")
    reports = [
        {
            "type": comp.type_tag,
            "rank": comp.rank,
            "d": comp.d,
            "scale": comp.scale,
            "roots": len(comp.roots),
            "coxeter": roots_mod.coxeter_number(comp),
            "modified_coxeter": _mc_field(comp),
            "subcase": comp.subcase,
            "short_div": comp.short_div,
            "long_div": comp.long_div,
        }
        for comp in comps
    ]
    doc = {"lattice": lat.label, "total_roots": len(rd.roots), "components": reports}
    return _lines(
        f"{len(rd.roots)} reflective vectors up to norm {args.max_norm}",
        *(
            f"  {comp.label}: {rep['roots']} roots, "
            f"coxeter {rep['coxeter']}, modified {rep['modified_coxeter']}"
            for comp, rep in zip(comps, reports)
        ),
    ), doc


def _mc_field(comp) -> str | None:
    try:
        return q_str(roots_mod.modified_coxeter(comp))
    except roots_mod.SubcaseRequiredError:
        return None


def _with_weight(phi, report=None):
    """phi with a symbolic weight solved; exit 3 when the sum rule (report, if given) fails."""
    if phi.k is not None:
        return phi
    if report is None:
        report = weyl_mod.quadratic_weyl_constant(phi)
    if not report.ok:
        raise CliError(f"weight is symbolic and the sum rule failed: {report.reason}", EXIT_MISSING)
    return phi.with_weight(weyl_mod.solve_weight(phi))


def cmd_weyl(args) -> tuple[str, dict]:
    phi = _load_qzero(args.coeffs)
    report = weyl_mod.quadratic_weyl_constant(phi)
    phi = _with_weight(phi, report)
    wv = weyl_mod.weyl_vector(phi)
    d, sign = weyl_mod.character_data(phi)
    doc = {
        "A": q_str(wv.a),
        "B": [q_str(x) for x in wv.b],
        "C": q_str(wv.c),
        "weight": q_str(phi.k),
        "sum_rule_C": q_str(report.c) if report.ok else None,
        "sum_rule_failure": report.reason,
        "character_D": d,
        "character_sign": sign,
    }
    return _lines(
        f"A = {doc['A']}, B = [{', '.join(doc['B'])}], C = {doc['C']}",
        f"weight k = {doc['weight']}",
        f"sum rule: C = {doc['sum_rule_C']}" if report.ok else f"sum rule failed: {report.reason}",
        f"character: D = {d}, sign = {sign:+d}",
    ), doc


def cmd_borch(args) -> tuple[str, dict]:
    phi = _load_qzero(args.coeffs)
    rect = _parse_rect(args.rect)
    phi = _with_weight(phi)
    wv = weyl_mod.weyl_vector(phi)
    if args.den >= 1 and (args.den % wv.a.denominator or args.den % wv.c.denominator):
        raise CliError(
            f"--den {args.den} puts exponents on the (1/{args.den})Z grid, but the Weyl "
            f"vector has A = {q_str(wv.a)}, C = {q_str(wv.c)}"
        )
    expansion = series_mod.expand_product(phi.coefficient_table(), wv, rect, phi.lattice.rank, den=args.den)
    doc = _series_doc(expansion, "the expansion")
    d, sign = weyl_mod.character_data(phi)
    return _lines(
        f"A = {q_str(wv.a)}, B = [{', '.join(q_str(x) for x in wv.b)}], C = {q_str(wv.c)}",
        f"weight = {q_str(phi.k)}",
        f"character: D = {d}, chi(V) = {sign:+d}",
        f"terms stored: {len(expansion.terms)}",
    ), doc


def _series_doc(x, what: str) -> dict:
    """series_to_json(x); a number too long to print is one exit-2 line naming what x is."""
    try:
        return series_mod.series_to_json(x)
    except ValueError:  # str() of an int past the interpreter's digit limit
        raise CliError(f"{what} has a coefficient or exponent of more than {sys.get_int_max_str_digits()} digits, too long to print")


def cmd_jacobian(args) -> tuple[str, dict]:
    weights = [_ascii_int(w) for w in args.weights.split(",")]
    if None in weights:
        raise CliError(f"--weights expects comma-separated integers, got {_quoted(args.weights)}")
    if len(weights) != len(args.series):
        raise CliError(f"{len(args.series)} series but {len(weights)} weights")
    extra = 4 if args.syzygy else 3

    def parse(doc):  # refuses the ranks _determinants would, before anything rank-sized is built
        if isinstance(doc, dict) and "rank" in doc and (rank := _json_int(doc["rank"], "rank", 0)) + extra != len(weights):
            raise ValueError(f"rank {rank} needs exactly {rank + extra} forms, got {len(weights)}")
        return series_mod.series_from_json(doc)

    loaded = [_read_json(path, "series file", parse) for path in args.series]
    forms = [series_mod.WeightedSeries(s, w) for s, w in zip(loaded, weights)]
    try:
        result = (series_mod.syzygy_sum if args.syzygy else series_mod.jacobian)(forms)
    except series_mod._NotModular as exc:  # the library names the form; its file is named here
        raise CliError(f"invalid series file {_quoted(args.series[exc.args[0]], str)}: {exc}")
    doc = _series_doc(result, "the syzygy sum" if args.syzygy else "the Jacobian")
    s = forms[0].series.rank
    try:
        lead = result.leading_order()
    except series_mod.ZeroSeriesError:
        return _lines("vanishes to rectangle order"), doc
    meets = min(lead) >= s + 1
    return _lines(
        f"leading order: q^{q_str(lead[0])} xi^{q_str(lead[1])}",
        f"meets (s+1, s+1) = ({s + 1}, {s + 1}): {'yes' if meets else 'no'}",
    ), doc


def cmd_classify(args) -> tuple[str, dict]:
    try:
        report = classify.full_table(args.max_rank)
        checks = classify.ledger_arithmetic_checks()
    except classify.ClassificationError as exc:
        raise CliError(f"internal check failed: {exc}", EXIT_INTERNAL)
    if report.unresolved:
        labels = [r.candidate.label for r in report.unresolved]
        raise CliError(f"internal check failed: unresolved candidates {labels}", EXIT_INTERNAL)
    doc = classify.report_to_json(report)
    doc["arithmetic_checks"] = [
        {"code": c.code, "statement": c.statement, "values": dict(c.values), "passed": c.passed}
        for c in checks
    ]
    return classify.report_to_text(report) + _lines("arithmetic checks: " + ", ".join(f"{c.code} ok" for c in checks)), doc


def _write(args, text: str, doc: dict) -> None:
    """The text unless --format json, the document unless --format table, which main refuses with -o."""
    fmt = getattr(args, "format", None)  # borch and jacobian have none: they put out both
    out = "" if fmt == "json" else text
    body = "" if fmt == "table" else json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(body)
        except OSError as exc:
            raise CliError(f"cannot write {_quoted(args.output, str)}: {exc.strerror}")
    else:
        out += body
    try:
        sys.stdout.write(out)
        sys.stdout.flush()
    except OSError as exc:  # stdout now drops what it still holds, so the flush at exit prints nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise CliError(f"cannot write to standard output: {exc.strerror}")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors are one exit-2 line from main, quoting a value by _quoted's rule."""

    def error(self, message):
        raise CliError(message)

    def _check_value(self, action, value):  # argparse's check of --format and of the command name
        if action.choices is not None and value not in action.choices:
            raise argparse.ArgumentError(action, f"invalid choice: {_quoted(value)} (choose from {', '.join(map(repr, action.choices))})")


def _int_arg(text: str) -> int:
    """The type of the int options: an integer in ASCII digits, refused in argparse's words with the value quoted."""
    if (value := _ascii_int(text)) is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {_quoted(text)}")
    return value


def _joined_lists(argv) -> list[str]:
    """'--weights -2,1' and '--rect -1,2' joined by '=': argparse reads a leading '-' as an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in ("--weights", "--rect") and arg.startswith("-"):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="orthoforms",
        description="exact lattice, root-system and modular-form-product toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def outputs(p, func, table=True):
        """The options every command shares, after its own: --format (for commands with a table) and -o."""
        if table:
            p.add_argument("--format", choices=("json", "table"), default="table")
        p.add_argument("-o", "--output")
        p.set_defaults(func=func)

    p = sub.add_parser("lattice", help="inspect a lattice")
    p.add_argument("ref", help="JSON file path or builtin:NAME")
    outputs(p, cmd_lattice)

    p = sub.add_parser("roots", help="detect and identify root systems")
    p.add_argument("ref")
    p.add_argument("--max-norm", type=_int_arg, default=2)
    outputs(p, cmd_roots)

    p = sub.add_parser("weyl", help="Weyl vector and weight of a coefficient file")
    p.add_argument("coeffs")
    outputs(p, cmd_weyl)

    p = sub.add_parser("borch", help="expand the product of a coefficient file")
    p.add_argument("coeffs")
    p.add_argument("--rect", default="2,2", help="exactness rectangle 'A,T'")
    p.add_argument("--den", type=_int_arg, default=DEFAULT_DEN)
    outputs(p, cmd_borch, table=False)

    p = sub.add_parser("jacobian", help="Jacobian determinant of series files")
    p.add_argument("series", nargs="+")
    p.add_argument("--weights", required=True, help="comma-separated weights")
    p.add_argument("--syzygy", action="store_true", help="alternating-sum mode")
    outputs(p, cmd_jacobian, table=False)

    p = sub.add_parser("classify", help="emit the 26-pair classification table")
    p.add_argument("--max-rank", type=_int_arg, default=8)
    outputs(p, cmd_classify)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args, extra = build_parser().parse_known_args(_joined_lists(argv))
        if extra:  # parse_args would repeat them whole
            raise CliError(f"unrecognized arguments: {_quoted(' '.join(extra), str)}")
        if args.output == "-":  # standard output: the run is the one without -o
            args.output = None
        if args.output and getattr(args, "format", "json") == "table":
            raise CliError("-o writes the JSON document, so it needs --format json")
        _write(args, *args.func(args))
        return EXIT_OK
    except (CliError, ValueError, ArithmeticError) as exc:
        return _error(exc, getattr(exc, "code", EXIT_INVALID))
    except series_mod.SeriesOverflowError as exc:  # a RuntimeError; tested second, so an input error runs no series
        return _error(exc, EXIT_INTERNAL)


def _error(exc: Exception, code: int) -> int:
    """Print exc as the one ``error:`` line and return code, also where stderr cannot be written."""
    try:
        print(f"error: {exc}", file=sys.stderr)
    except OSError:  # the line is lost, not the code; on the null device the flush at exit cannot fail either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
