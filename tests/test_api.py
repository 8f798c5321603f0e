"""The README's Library table lists the whole public API, and nothing else,
and its Command line section names every option; the package's modules
import only what they use, the ranking and search layers depend on the
cache alone, one walker reads a cache's bands, one writer makes
directories, every command checks its targets before it reads an input,
every worker thread is an executor's, and the Search commands share one
copy of each rule: the seed check, the strategy and the budget range."""

import argparse
import ast
import importlib
import re
from pathlib import Path

import pytest

import lleval
from lleval.cli import _build_parser

README = Path(__file__).resolve().parent.parent / "README.md"
PACKAGE = Path(lleval.__file__).resolve().parent


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


def _options(parser):
    """Every option string of a parser and of its subcommands, but --help."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _options(sub)
        elif not isinstance(action, argparse._HelpAction):
            yield from action.option_strings


def test_readme_command_line_names_every_option():
    text = README.read_text()
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    missing = sorted(
        {opt for opt in _options(_build_parser())
         if not re.search(rf"{re.escape(opt)}(?![\w-])", section)}
    )
    assert not missing, f"README's Command line section never names {missing}"


def _imports(tree):
    """(node, bound name) of every import in a module, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node, alias.asname or alias.name


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_import(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if path.name == "__init__.py":  # its imports are the re-exports
        used |= set(lleval.__all__)
    unused = sorted({name for _, name in _imports(tree)} - used)
    assert not unused, f"{path.name} imports {unused} and never uses them"


@pytest.mark.parametrize("name", ["sort.py", "search.py"])
def test_ranking_and_search_import_only_the_cache(name):
    tree = ast.parse((PACKAGE / name).read_text())
    for node, bound in _imports(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            assert node.module == "cache", f"{name} imports {bound} from .{node.module}"
        else:
            module = node.module if isinstance(node, ast.ImportFrom) else bound
            assert module.split(".")[0] != "lleval", f"{name} imports {module}"


def test_only_the_band_walker_releases():
    """Every pass over a cache's rows walks them with ``cache._bands``, the
    one place that names ``_release``; no pass sizes its own bands."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        assert "_band_rows" not in names | defined, path.name
        callers = {
            func.name
            for func in ast.walk(tree)
            if isinstance(func, ast.FunctionDef)
            for node in ast.walk(func)
            if isinstance(node, ast.Name) and node.id == "_release"
        }
        if path.name == "cache.py":
            assert "_bands" in defined
            assert callers == {"_bands"}, f"_release named in {sorted(callers)}"
        else:
            assert "_release" not in names and not callers, path.name


def test_only_the_replacing_writer_makes_directories():
    """``cache._replacing_writer`` is the one place that names ``mkdir``, so
    every directory a write makes is one it removes if the write fails."""
    makers = {
        (path.name, func.name)
        for path in sorted(PACKAGE.glob("*.py"))
        for func in ast.walk(ast.parse(path.read_text()))
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if (isinstance(node, ast.Attribute) and node.attr in ("mkdir", "makedirs"))
        or (isinstance(node, ast.Name) and node.id in ("mkdir", "makedirs"))
    }
    assert makers == {("cache.py", "_replacing_writer")}


def test_commands_check_targets_only_through_the_rule():
    """``cli.py`` names neither ``_check_parents`` nor ``mkdir``, so a
    command's targets are checked only by ``cache._check_targets``."""
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    named = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    named |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    named |= {node.name for node in ast.walk(tree) if isinstance(node, ast.alias)}
    assert not named & {"_check_parents", "mkdir", "makedirs"}
    assert "_check_targets" in named


# what a command reads its inputs with; the rule must come before each of them
INPUT_READERS = {"load_cache", "load_permutation", "_read_outcomes", "_read_json",
                 "import_csv", "generate", "_oracle"}


def test_every_command_checks_its_targets_before_reading():
    """Each ``_cmd_*`` calls ``_check_targets`` once, and no input reader
    before it (but ``eval-model``'s ``load_permutation``, whose length names
    the files), so a bad target costs no read, draw or query."""
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    commands = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_")]
    assert len(commands) == 6
    for command in commands:
        calls = [(node, getattr(node.func, "attr", getattr(node.func, "id", None)))
                 for node in ast.walk(command) if isinstance(node, ast.Call)]
        checks = [node for node, name in calls if name == "_check_targets"]
        assert len(checks) == 1, f"{command.name} calls _check_targets {len(checks)} times"
        end = (checks[0].end_lineno, checks[0].end_col_offset)
        early = {name for node, name in calls
                 if name in INPUT_READERS and (node.lineno, node.col_offset) < end}
        if command.name == "_cmd_eval_model":
            early.discard("load_permutation")
        assert not early, f"{command.name} calls {sorted(early)} before _check_targets"


def test_no_module_starts_its_own_thread():
    """Every worker thread is an executor's: no module names
    ``threading.Thread``, so each is joined by its executor's ``with``."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        named = [node for node in ast.walk(tree)
                 if (isinstance(node, ast.Attribute) and node.attr == "Thread")
                 or (isinstance(node, ast.Name) and node.id == "Thread")
                 or (isinstance(node, ast.alias) and node.name == "Thread")]
        assert not named, f"{path.name} names threading.Thread"


def test_cli_states_each_search_rule_once():
    """``cli.py`` parses no strategy (``evaluate`` does), compares a seed
    only in ``main``, before any command runs, and declares ``--strategy``
    once, for the three Search commands."""
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    parsed = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
              and getattr(node.func, "id", getattr(node.func, "attr", None))
              == "SamplingStrategy"]
    assert not parsed, f"cli.py calls SamplingStrategy on line {parsed[0].lineno}"
    (main,) = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "main"]
    in_main = {id(node) for node in ast.walk(main)}
    seeds = [node for node in ast.walk(tree) if isinstance(node, ast.Compare)
             and any(getattr(n, "attr", getattr(n, "id", getattr(n, "value", None)))
                     == "seed" for n in ast.walk(node))]
    assert seeds and all(id(node) in in_main for node in seeds), [
        node.lineno for node in seeds if id(node) not in in_main]
    declared = [node for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and node.value == "--strategy"]
    assert len(declared) == 1, [node.lineno for node in declared]
    (subcommands,) = [a for a in _build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)]
    commands = [name for name, sub in subcommands.choices.items()
                if "--strategy" in _options(sub)]
    assert commands == ["eval-model", "insert-sample", "simulate"]


def test_one_budget_range_rule():
    """``search._check_budget`` is the one place that states the budget
    range, so every budget is refused in the same words."""
    copies = {path.name: path.read_text().count("outside [1, ")
              for path in sorted(PACKAGE.glob("*.py"))}
    assert sum(copies.values()) == 1 and copies["search.py"] == 1, copies
