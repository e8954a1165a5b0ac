"""Every name exported from orthoforms has a caller outside the tests, every
method and property of a package class is read outside the tests, and every
module-level name of the package is referred to somewhere.

A name counts as called when the code of another module of the package or
of the perfbench harness refers to it, or when README.md names it in code
(a backtick span or a fenced block).  A name whose caller is still planned
is kept by KEEP, with the ROADMAP item that will call it; none is kept now.
A method counts as read when an attribute of that name is read in the
package or the harness, or README.md names it in code; KEEP_METHODS holds
the ones kept on purpose.  Both scans go by the word alone, not by its
meaning or class, so a method still hides behind another attribute of its
name or a word in README.md's code; a word of its prose no longer counts.
"""

import ast
import re
from pathlib import Path

import orthoforms

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "orthoforms"

KEEP: dict[str, str] = {}
KEEP_METHODS = {
    "series.TruncatedSeries.absolute_terms": "tests state other operations' results with it",
    "cli._Parser._check_value": "argparse calls it to check a choice, which it quotes by _quoted's rule",
}


def exported_names() -> set[str]:
    """The names of the export table of __init__.py, ``_EXPORTS = {module: (name, ...)}``."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    (table,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["_EXPORTS"]
    ]
    return {name for names in table.values() for name in names}


def defined_names(stmt: ast.stmt) -> set[str]:
    """The module-level names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def code_references(path: Path) -> set[str]:
    """Names and attributes the module's code reads, outside the definition of each name."""
    refs: set[str] = set()
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        names = {node.id for node in ast.walk(stmt) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        names |= {
            node.attr for node in ast.walk(stmt) if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        }
        refs |= names - defined_names(stmt)
    return refs


def readme_code_words() -> set[str]:
    """The words inside README.md's code: fenced blocks and inline backtick spans."""
    code = re.findall(r"```.*?```|`[^`\n]+`", (ROOT / "README.md").read_text(encoding="utf-8"), flags=re.S)
    return set(re.findall(r"\w+", " ".join(code)))


def referenced_names(files) -> set[str]:
    """What the code of the files refers to, and every word of README.md's code."""
    return set().union(*map(code_references, files)) | readme_code_words()


MODULES = sorted(PACKAGE.glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))
# the callers an export needs: another package module, the harness or README.md
CALLERS = [p for p in MODULES if p.name != "__init__.py"] + PERFBENCH


def test_export_table_is_what_the_package_serves():
    # the scans below read the table; the package must serve exactly its names
    assert exported_names() == set(orthoforms.__all__)


def test_every_export_has_a_caller():
    uncalled = exported_names() - referenced_names(CALLERS) - set(KEEP)
    assert not uncalled, f"exported with no caller outside the tests: {sorted(uncalled)}"


def test_keep_list_names_only_uncalled_exports():
    # a kept name that gains a caller, or stops being exported, leaves KEEP
    assert set(KEEP) <= exported_names()
    assert not set(KEEP) & referenced_names(CALLERS)


def test_every_module_level_name_is_referred_to():
    # anywhere outside its own definition: the package, perfbench, the tests or README.md
    refs = referenced_names(MODULES + PERFBENCH + sorted((ROOT / "tests").glob("*.py")))
    unreferenced = sorted(
        f"{path.stem}.{name}"
        for path in MODULES
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body
        for name in defined_names(stmt) - refs
        if not (name.startswith("__") and name.endswith("__"))
    )
    assert not unreferenced, f"defined but never referred to: {unreferenced}"


def methods():
    """The qualified names (module.Class.method) of the non-dunder methods and properties."""
    return {
        f"{path.stem}.{cls.name}.{node.name}": node.name
        for path in MODULES
        for cls in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not (node.name.startswith("__") and node.name.endswith("__"))
    }


def attribute_reads(files) -> set[str]:
    """The attributes the code of the files reads, and every word of README.md's code."""
    reads = {
        node.attr
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return reads | readme_code_words()


def test_every_method_is_read_outside_the_tests():
    reads = attribute_reads(CALLERS)
    unread = sorted(q for q, name in methods().items() if name not in reads and q not in KEEP_METHODS)
    assert not unread, f"methods read by no caller outside the tests: {unread}"


def test_kept_methods_are_unread_methods():
    # a kept method that gains a reader, or goes, leaves KEEP_METHODS
    reads = attribute_reads(CALLERS)
    found = methods()
    assert all(q in found and found[q] not in reads for q in KEEP_METHODS)
