import json
import re
from pathlib import Path

import isospec
from isospec import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out.strip()


def test_top_level_exports_the_readme_names():
    assert sorted(isospec.__all__) == sorted(
        [
            "__version__",
            "make_torus",
            "field_from_expression",
            "assemble_base",
            "conformal_operators",
            "solve",
            "compute_corrections",
            "ConformalPerturbation",
            "PerturbationSide",
        ]
    )
    for name in isospec.__all__:
        assert hasattr(isospec, name)


def _stated_default(text):
    """A key's default as README states it: required, none, or a value."""
    if text == "required":
        return cli.REQUIRED
    if not text:
        return None
    value = text.removeprefix("default ")
    return value.strip("`") if value.startswith("`") else json.loads(value)


def _assert_stated(text, default, where):
    stated = _stated_default(text)
    if default is cli.REQUIRED or default is None:
        assert stated is default, where
    else:
        assert stated == json.loads(json.dumps(default)), where


def test_readme_subcommand_table_matches_the_cli():
    rows = {}
    for line in README.read_text().split("Per subcommand:", 1)[1].splitlines():
        if line.startswith("| `"):
            name, keys, notes = (cell.strip() for cell in line.strip("|").split("|"))
            # `key`, `key` (required) or `key` (default value)
            keys = dict(re.findall(r"`(\w+)`(?: \((required|default .+?)\))?", keys))
            rows[name.strip("`")] = (keys, notes)
        elif rows:
            break
    assert list(rows) == list(cli._SUBCOMMANDS)
    for name, (keys, notes) in rows.items():
        subcommand = cli._SUBCOMMANDS[name]
        assert set(keys) == set(subcommand.keys), name
        for key, default in subcommand.keys.items():
            _assert_stated(keys[key], default, (name, key))
        stated = re.search(r"defaults to (\d+) modes", notes)
        if stated:
            assert int(stated[1]) == subcommand.default_modes, name
    assert "defaults to 100 modes" in rows["weyl"][1]


def test_readme_surface_row_matches_the_cli():
    row = next(
        line for line in README.read_text().splitlines() if line.startswith("| `surface` |")
    )
    kinds = {}
    # `{"kind": "torus"}` with `key` (required), `key` (default value); or ...
    for text in row.split("|")[2].split("; or "):
        kind = re.search(r'"kind": "(\w+)"', text)[1]
        kinds[kind] = dict(re.findall(r"`(\w+)` \((required|default .+?)\)", text))
    assert list(kinds) == list(cli._SURFACE_KEYS)
    for kind, keys in kinds.items():
        declared = dict(cli._SURFACE_KEYS[kind])
        assert declared.pop("kind") is cli.REQUIRED
        assert set(keys) == set(declared), kind
        for key, default in declared.items():
            _assert_stated(keys[key], default, (kind, key))
