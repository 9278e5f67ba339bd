"""The README's library example runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_snippet() -> str:
    text = README.read_text()
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, flags=re.S | re.M)
    assert len(blocks) == 1, "the Library use section should hold one python block"
    return blocks[0]


def test_library_use_snippet_runs(capsys):
    exec(compile(library_use_snippet(), f"{README}:Library use", "exec"), {})
    assert capsys.readouterr().out.strip().splitlines()[-1] == "True"
