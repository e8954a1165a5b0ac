"""One orthoforms CLI invocation with its spans recorded, for the traced cli run.

usage: python3 cli_child.py SPANS_PATH CLI_ARGUMENTS...

Installs the wrappers, runs orthoforms.cli.main on the arguments, writes
the spans to SPANS_PATH and exits with main's exit code.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans  # noqa: E402
from orthoforms import cli  # noqa: E402


def main() -> int:
    path, argv = Path(sys.argv[1]), sys.argv[2:]
    rec = spans.Recorder()
    rec.job = "cli"
    try:
        with spans.installed(spans.bindings(rec)):
            return cli.main(argv)
    except SystemExit as exc:  # argparse rejects its arguments this way
        return exc.code if isinstance(exc.code, int) else 2
    finally:
        rec.job = None
        path.write_text(rec.dump())


if __name__ == "__main__":
    sys.exit(main())
