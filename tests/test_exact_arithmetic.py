"""The package never touches floating point: a scan of the syntax of every module.

No module may hold a float or complex constant or name the types ``float``
or ``complex``, and ``math`` may be read only for the integer functions
below, whether through ``import math`` or ``from math import``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "orthoforms"
INTEGER_MATH = {"floor", "gcd", "isqrt", "lcm", "prod"}


def float_uses(source: str) -> list[str]:
    """Each float or complex constant, float or complex name, and read of math outside INTEGER_MATH."""
    tree = ast.parse(source)
    found = []
    attributes = set()  # the math.X nodes, whose Name math is allowed
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "math":
            attributes.add(id(node.value))
            if node.attr not in INTEGER_MATH:
                found.append(f"line {node.lineno}: math.{node.attr}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append(f"line {node.lineno}: constant {node.value!r}")
        elif isinstance(node, ast.Name) and node.id in ("float", "complex"):
            found.append(f"line {node.lineno}: name {node.id}")
        elif isinstance(node, ast.Name) and node.id == "math" and id(node) not in attributes:
            found.append(f"line {node.lineno}: math read whole")
        elif isinstance(node, ast.Import):
            found += [f"line {node.lineno}: import math as {a.asname}" for a in node.names if a.name == "math" and a.asname]
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [f"line {node.lineno}: from math import {a.name}" for a in node.names if a.name not in INTEGER_MATH]
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_floating_point(path):
    assert float_uses(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source",
    [
        "x = 0.5",
        "x = 2j",
        "y = float(x)",
        "isinstance(x, complex)",
        "import math\nd = int(math.log10(n))",
        "import math\nm = math.inf",
        "import math as m",
        "import math\nf = math",
        "from math import sqrt",
        "from math import *",
    ],
)
def test_scan_finds_each_float_use(source):
    assert len(float_uses(source)) == 1


def test_scan_passes_integer_math():
    assert float_uses("import math\nfrom math import gcd, isqrt\nx = math.floor(n) + math.lcm(2, 3) + 10**20") == []
