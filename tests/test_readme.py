"""The README's code runs against the package as it is."""

import json
import re
from pathlib import Path

from recical.config import ExperimentConfig, config_from_dict

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


def test_configuration_example_is_the_defaults():
    # the JSON under "Configuration file" documents every key with its default
    text = README.read_text()
    section = text[text.index("## Configuration file"):]
    block = re.search(r"```json\n(.*?)```", section, re.DOTALL)
    assert block is not None, "no json block under 'Configuration file'"
    assert config_from_dict(json.loads(block.group(1))).to_dict() == ExperimentConfig().to_dict()
