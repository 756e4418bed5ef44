"""The README's Layout table names every module of the package, and no module that is gone."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_layout_table_names_exactly_the_modules():
    layout = (ROOT / "README.md").read_text().split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    first_cells = [line.split("|")[1] for line in layout.splitlines() if line.startswith("| `")]
    named = set(re.findall(r"`(\w+\.py)`", " ".join(first_cells)))
    modules = {path.name for path in (ROOT / "src" / "predcurves").glob("*.py")} - {"__init__.py"}
    assert named == modules
