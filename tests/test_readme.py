"""The README's library tour runs and its comments state what it computes."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_tour() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library tour", 1)[1]
    (block,) = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    return block


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
