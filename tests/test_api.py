"""The README's Library table lists the whole public API, and nothing else."""

import importlib
import re
from pathlib import Path

import lleval

README = Path(__file__).resolve().parent.parent / "README.md"


def _listed():
    """(name, module) of each row of the API table in the Library section."""
    text = README.read_text()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `(\w+)` \| `(lleval\.\w+)` \|", section, re.MULTILINE)


def test_readme_lists_all_of_dunder_all():
    names = [name for name, _ in _listed()]
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(lleval.__all__)


def test_each_listed_name_is_defined_by_its_module():
    for name, module in _listed():
        found = getattr(importlib.import_module(module), name)
        assert found is getattr(lleval, name) and found.__module__ == module, name
