"""The package surface: its exported names and the README's library tour."""

from pathlib import Path

import juntaleap


def test_every_exported_name_resolves():
    assert juntaleap.__all__
    listed = dir(juntaleap)
    for name in juntaleap.__all__:
        assert name in listed, name
        getattr(juntaleap, name)  # AttributeError for a name its module lost


def test_readme_library_tour_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    code = readme.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    assert "(leap, cover, rel_leap, rel_cover) = (1, 4, 1, 4)" in code
    namespace = {}
    exec(code, namespace)
    assert juntaleap.exponents(namespace["rep_csq"]) == (1, 4, 1, 4)
    assert namespace["result"].success
