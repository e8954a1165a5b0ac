"""`import orthoforms` runs no submodule, each CLI command runs only the
modules it calls, the commands that run no roots load no ``dataclasses``, and
the names the package serves lazily are its modules' own.

A submodule registered with ``importlib.util.LazyLoader`` stays a
``_LazyModule`` until an attribute of it is first read, and becomes a plain
module when its code runs; ``type(m) is types.ModuleType`` tells the two
apart.  The import system runs a module's code through ``exec``, whose
audit event names the file, so the modules that ran are also counted
independently of what ``sys.modules`` holds at the end (an eager import
whose module was then registered anew would hide from the first count).
The module sets are checked in fresh interpreters, as every test process
has already run every module; the standard modules a command loads are
those a bare interpreter of the same environment does not.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import orthoforms
from orthoforms import build_dual_set, qzero_from_dual_sets, realize
from orthoforms.lattice import q_str

SRC = Path(__file__).resolve().parent.parent / "src"
SUBMODULES = {"linalg", "lattice", "roots", "weyl", "series", "classify"}

# runs the code given, then prints the orthoforms modules that ran, counted both ways, as the last line of stdout
PROBE = """
import json, os, sys, types
files = []
sys.addaudithook(lambda event, args: event == "exec" and files.append(getattr(args[0], "co_filename", "")))
{code}
executed = {{os.path.basename(f)[:-3] for f in files if os.path.dirname(os.path.abspath(f)) == {package!r}}}
loaded = {{n.split(".", 1)[1] for n, m in sys.modules.items() if n.startswith("orthoforms.") and type(m) is types.ModuleType}}
print(json.dumps([sorted(executed - {{"__init__"}}), sorted(loaded), sorted(sys.modules)]))
"""
RUN_MAIN = "from orthoforms.cli import main\nrc = main(sys.argv[1:])\nprint(rc)"


def fresh(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)


def modules_run(code: str, *argv: str) -> tuple[set[str], subprocess.CompletedProcess]:
    """The orthoforms submodules that ran while code ran in a fresh interpreter, and the process."""
    proc = fresh("-c", PROBE.format(code=code, package=str(SRC / "orthoforms")), *argv)
    assert proc.returncode == 0, proc.stderr
    executed, loaded, _ = json.loads(proc.stdout.splitlines()[-1])
    assert executed == loaded
    return set(loaded), proc


def imported(proc: subprocess.CompletedProcess) -> set[str]:
    """Every module in sys.modules at the end of a probe run."""
    return set(json.loads(proc.stdout.splitlines()[-1])[2])


def write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def coefficient_file(path: Path) -> str:
    """The A2 coefficient file of its plain dual set, with the weight left symbolic."""
    comp = realize("A", 2)
    phi = qzero_from_dual_sets(comp.lattice, [build_dual_set(comp)])
    coeffs = [{"n": n, "l": [q_str(x) for x in l], "f": f} for (n, l), f in sorted(phi.coefficient_table().items())]
    return write_json(path, {"lattice": "builtin:A2", "coeffs": coeffs, "k": "symbolic"})


def series_files(tmp_path: Path, exponents) -> list[str]:
    """Rank-1 monomial series documents q^a zeta^l xi^t."""
    return [
        write_json(tmp_path / f"f{i}.json", {
            "rank": 1, "terms": [{"a": f"{a}/1", "l": [f"{l}/1"], "t": f"{t}/1", "c": "1/1"}], "rect": ["4/1", "4/1"],
        })
        for i, (a, l, t) in enumerate(exponents)
    ]


def commands(tmp_path: Path) -> dict[str, list[str]]:
    phi = coefficient_file(tmp_path / "a2.json")
    monomials = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 1, 1)]
    return {
        "lattice": ["lattice", "builtin:E8"],
        "roots": ["roots", "builtin:E8", "--max-norm", "4"],
        "weyl": ["weyl", phi],
        "borch": ["borch", phi, "--rect", "1,1"],
        "jacobian": ["jacobian", *series_files(tmp_path, monomials[:4]), "--weights", "1,1,1,1"],
        "syzygy": ["jacobian", *series_files(tmp_path, monomials), "--weights", "1,1,1,1,2", "--syzygy"],
        "classify": ["classify", "--format", "json"],
    }


# the modules each command runs besides cli; every command reads its input through lattice
RUNS = {
    "lattice": {"linalg", "lattice"},
    "roots": {"linalg", "lattice", "roots"},
    "weyl": {"linalg", "lattice", "weyl"},
    "borch": {"linalg", "lattice", "weyl", "series"},
    "jacobian": {"linalg", "lattice", "series"},
    "syzygy": {"linalg", "lattice", "series"},
    "classify": {"linalg", "lattice", "roots", "weyl", "classify"},
}


# the commands that load no dataclasses: its import costs a fresh process more than json or argparse,
# and brings inspect, ast, dis and tokenize with it
NO_DATACLASSES = {"lattice", "weyl", "borch", "jacobian", "syzygy"}


@pytest.fixture(scope="module")
def bare_modules() -> set[str]:
    """The modules a bare interpreter of this environment loads, the probe's own included."""
    _, proc = modules_run("pass")
    return imported(proc)


class TestFreshInterpreter:
    def test_bare_import_runs_no_submodule(self):
        ran, _ = modules_run(
            "import orthoforms\n"
            "assert {n.split('.')[1] for n in sys.modules if n.startswith('orthoforms.')} == " + repr(SUBMODULES)
        )
        assert ran == set()

    @pytest.mark.parametrize("command", sorted(RUNS))
    def test_command_runs_only_its_modules(self, command, tmp_path, bare_modules):
        ran, proc = modules_run(RUN_MAIN, *commands(tmp_path)[command])
        assert proc.stdout.splitlines()[-2] == "0"
        assert proc.stderr == ""
        assert ran == RUNS[command] | {"cli"}
        if command in NO_DATACLASSES:
            assert not {"dataclasses", "inspect"} & (imported(proc) - bare_modules)

    def test_input_error_runs_no_series(self, tmp_path):
        # the exit-2 clause of main comes before the one naming series.SeriesOverflowError
        bad = write_json(tmp_path / "bad.json", {"lattice": "builtin:A1", "coeffs": 5})
        ran, proc = modules_run(RUN_MAIN, "weyl", bad)
        assert proc.stdout.splitlines()[-2] == "2"
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert ran == {"cli", "linalg", "lattice"}

    def test_module_entry_point_warns_nothing(self):
        # cli is never registered lazily: runpy warns about a module found in sys.modules before it runs
        proc = fresh("-W", "error", "-m", "orthoforms.cli", "lattice", "builtin:E8", "--format", "json")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout)["order"] == 1


class TestExports:
    def test_each_name_is_its_module_object(self):
        for name in orthoforms.__all__:
            obj = getattr(orthoforms, name)
            module, _, home = obj.__module__.partition(".")
            assert (module, obj.__name__) == ("orthoforms", name)
            assert home in SUBMODULES and getattr(sys.modules[obj.__module__], name) is obj
            assert vars(orthoforms)[name] is obj  # kept after the first read

    def test_submodules_are_the_registered_modules(self):
        for name in SUBMODULES:
            assert getattr(orthoforms, name) is sys.modules[f"orthoforms.{name}"]

    def test_dir_lists_every_name(self):
        assert set(orthoforms.__all__) | SUBMODULES <= set(dir(orthoforms))

    def test_star_import_binds_exactly_all(self):
        namespace: dict = {}
        exec("from orthoforms import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(orthoforms.__all__)
        assert len(orthoforms.__all__) == len(set(orthoforms.__all__))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="'no_such_name'"):
            orthoforms.no_such_name
        assert not hasattr(orthoforms, "q_str")  # a module's name that is not exported
