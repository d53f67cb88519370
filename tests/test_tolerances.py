"""The README "Tolerances" table matches the constants in the code."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import intdist

README = Path(__file__).resolve().parents[1] / "README.md"


def _table_rows():
    """(name, module, value) of every row of the README Tolerances table."""
    section = README.read_text(encoding="utf-8").split("## Tolerances", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = [c.strip() for c in re.split(r"(?<!\\)\|", line.strip())[1:-1]]
        if len(cells) == 4 and cells[0].startswith("`"):
            rows.append((cells[0].strip("`"), cells[1].strip("`"), cells[2].strip("`")))
    return rows


def _modules():
    return {info.name: importlib.import_module(f"intdist.{info.name}")
            for info in pkgutil.iter_modules(intdist.__path__)}


def test_every_row_names_a_constant_with_its_value():
    rows = _table_rows()
    assert len(rows) >= 10
    modules = _modules()
    for name, module, value in rows:
        assert module in modules, f"{name}: no module intdist.{module}"
        assert hasattr(modules[module], name), f"{name} is not defined in intdist.{module}"
        assert getattr(modules[module], name) == ast.literal_eval(value), name


def test_every_tolerance_constant_has_a_row():
    home = {name: module for name, module, _ in _table_rows()}
    modules = _modules()
    for module_name, module in modules.items():
        for name, value in vars(module).items():
            if name.endswith("TOL"):
                assert name in home, f"intdist.{module_name}.{name} has no README row"
                # other modules import the constant from its row's module, not restate it
                assert value is getattr(modules[home[name]], name), f"intdist.{module_name}.{name}"
