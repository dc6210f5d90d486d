"""The package surface: its exported names and the README's library tour."""

import importlib
import re
from pathlib import Path

import juntaleap

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    assert juntaleap.__all__
    listed = dir(juntaleap)
    for name in juntaleap.__all__:
        assert name in listed, name
        getattr(juntaleap, name)  # AttributeError for a name its module lost


def test_readme_library_tour_runs():
    readme = README.read_text()
    code = readme.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    assert "(leap, cover, rel_leap, rel_cover) = (1, 4, 1, 4)" in code
    namespace = {}
    exec(code, namespace)
    assert juntaleap.exponents(namespace["rep_csq"]) == (1, 4, 1, 4)
    assert namespace["result"].success


def test_readme_module_table_names_resolve():
    """Each bare identifier in backticks in a row of the module table is an
    attribute of that row's module, or of a class the module defines."""
    table = README.read_text().split("\n| module ", 1)[1].split("\n\n", 1)[0]
    rows = [re.match(r"\| `(\w+)` +\| (.*) \|$", line) for line in table.splitlines()[2:]]
    assert rows and all(rows)
    for row in rows:
        module = importlib.import_module(f"juntaleap.{row[1]}")
        classes = [v for v in vars(module).values() if isinstance(v, type) and v.__module__ == module.__name__]
        for name in re.findall(r"`([A-Za-z_]\w*)`", row[2]):
            assert hasattr(module, name) or any(hasattr(c, name) for c in classes), f"{row[1]}.{name}"


def test_readme_config_table_matches_the_cli():
    """The README's config table gives each key of each CLI block, whether
    the block requires it, and its kind, as `cli._COMMANDS` declares them."""
    from juntaleap.cli import _COMMANDS, AUTO_OR_NUMBER, FLAG, LIBRARY, NUMBER, NUMBERS

    words = {NUMBER: "finite number", NUMBERS: "list of finite numbers", AUTO_OR_NUMBER: '`"auto"` or a finite number',
             FLAG: "`true` or `false`", LIBRARY: "checked by the library"}
    declared = {(command, key): (key in required, f"integer >= {kind}" if isinstance(kind, int) else words[kind])
                for command, (_, _, required, kinds) in _COMMANDS.items() for key, kind in kinds.items()}
    table = README.read_text().split("\n| key | blocks (* required) | kind |\n", 1)[1].split("\n\n", 1)[0]
    documented = {}
    for line in table.splitlines()[1:]:
        keys, blocks, kind = line.strip("| ").split(" | ")
        for key in re.findall(r"`(\w+)`", keys):
            for command, star in re.findall(r"`([\w-]+)`(\*?)", blocks):
                documented[(command, key)] = (star == "*", kind)
    assert documented.keys() == declared.keys()
    for entry, (required, kind) in declared.items():
        assert documented[entry][0] == required and documented[entry][1].startswith(kind), entry
