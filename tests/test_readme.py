"""The README's code runs against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs():
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None, "no python block under 'Library quick start'"
    namespace = {}
    exec(compile(block.group(1), f"{README}:quick-start", "exec"), namespace)
    assert namespace["score"].trials_used == 1
    assert namespace["bound"].shape == (100,)
