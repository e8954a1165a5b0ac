"""The README's library tour runs and its comments state what it computes."""

import json
import re
from pathlib import Path

from orthoforms.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def library_tour() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library tour", 1)[1]
    (block,) = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    return block


def file_formats() -> str:
    return README.read_text(encoding="utf-8").split("### File formats", 1)[1].split("\n## ", 1)[0]


def test_library_tour_values():
    block = library_tour()
    for claim in ("# 252", "# A = 31, C = 30, A = C + 1", "# the 26 accepted (L, group) pairs"):
        assert claim in block, claim
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert namespace["k"] == 252
    wv = namespace["wv"]
    assert (wv.a, wv.c) == (31, 30) and wv.a == wv.c + 1
    assert len(namespace["report"].accepted) == 26


def test_coefficient_file_example(capsys, tmp_path):
    section = file_formats()
    (block,) = re.findall(r"```json\n(.*?)```", section, re.S)
    assert "the Weyl vector (3, [1/2], 2) and weight 35" in " ".join(section.split())
    path = tmp_path / "phi.json"
    path.write_text(block, encoding="utf-8")
    assert main(["weyl", str(path), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["A"], doc["B"], doc["C"], doc["weight"]) == ("3/1", ["1/2"], "2/1", "35/1")
