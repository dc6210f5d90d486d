"""The package surface: its exported names, the README's library tour, the
names that perfbench's span tracer wraps and the imports of its modules."""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import juntaleap

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_every_exported_name_resolves():
    assert juntaleap.__all__
    listed = dir(juntaleap)
    for name in juntaleap.__all__:
        assert name in listed, name
        getattr(juntaleap, name)  # AttributeError for a name its module lost


def test_detect_is_the_submodule():
    """Loading `juntaleap.detect` binds the package attribute to the module,
    whose `detect` is the dispatcher on the model name."""
    import juntaleap.detect
    from juntaleap.detect import DetectReport, detect

    assert juntaleap.detect is importlib.import_module("juntaleap.detect")
    assert juntaleap.detect.detect is detect and juntaleap.detect.DetectReport is DetectReport
    assert "detect" not in juntaleap.__all__


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
    from juntaleap.cli import _COMMANDS, AUTO_OR_NUMBER, FLAG, LIBRARY, NUMBER, NUMBERS, SPECS

    words = {NUMBER: "finite number", NUMBERS: "list of finite numbers", AUTO_OR_NUMBER: '`"auto"` or a finite number',
             FLAG: "`true` or `false`", SPECS: "non-empty list", LIBRARY: "checked by the library"}
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


def test_readme_cli_lines_on_bundled_configs_pass_the_config_checks(monkeypatch, tmp_path):
    """Each README CLI line whose --config is a bundled example passes every
    key and kind check: `main` reaches its command, here a stub that does no
    work, and exits 0."""
    from importlib.resources import files

    from juntaleap import cli

    bundled = {path.name for path in files("juntaleap").joinpath("configs").iterdir()}
    commands = README.read_text().split("\n## CLI\n", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    lines = [line.split()[1:] for line in commands.splitlines()]
    runs = [argv for argv in lines if argv[argv.index("--config") + 1] in bundled]
    assert runs
    reached = []

    def stub(cfg, block, out_dir, seed):
        reached.append(cfg)
        return 0

    for argv in runs:
        _, *checks = cli._COMMANDS[argv[0]]
        monkeypatch.setitem(cli._COMMANDS, argv[0], (stub, *checks))
        argv[argv.index("--out") + 1] = str(tmp_path)
        assert cli.main(argv) == 0, argv
    assert len(reached) == len(runs)


def test_every_trace_target_resolves():
    """perfbench/spans.py patches owner.__dict__[attr] for each target, so a
    renamed or moved function would fail every traced benchmark round. The
    module is loaded from its file and only read."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = spans.juntaleap_targets(spans.Tracer())
    assert targets
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in targets if attr not in owner.__dict__]
    assert not missing, f"trace targets missing: {', '.join(missing)}"


def test_src_has_no_unused_imports():
    """Each name a module under src/ imports is read somewhere in that module,
    unless its import statement carries `# noqa: F401` (a deliberate
    re-export). Stands in for pyflakes' F401, at module granularity; a name
    read only in a quoted annotation counts as unused."""
    unused = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        imported = {}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.relative_to(ROOT)}:{line} {name}" for name, line in imported.items() if name not in used]
    assert not unused, f"unused imports: {', '.join(unused)}"
