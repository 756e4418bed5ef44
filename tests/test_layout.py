"""The README's Layout table names every module of the package, and no module that is gone;
every test file is named after a module, or after what it checks across them."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = {path.stem for path in (ROOT / "src" / "predcurves").glob("*.py")} - {"__init__"}
# Test files that check the whole program rather than one module.
WHOLE_PROGRAM_TESTS = {"acceptance", "golden", "layout"}


def test_layout_table_names_exactly_the_modules():
    layout = (ROOT / "README.md").read_text().split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    first_cells = [line.split("|")[1] for line in layout.splitlines() if line.startswith("| `")]
    named = set(re.findall(r"`(\w+\.py)`", " ".join(first_cells)))
    assert named == {f"{name}.py" for name in MODULES}


def test_each_test_file_names_a_module():
    names = {path.stem.removeprefix("test_") for path in (ROOT / "tests").glob("test_*.py")}
    assert names - MODULES - WHOLE_PROGRAM_TESTS == set()
