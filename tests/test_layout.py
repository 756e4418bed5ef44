"""The README's Layout table names every module of the package, and no module that is gone;
every test file is named after a module, or after what it checks across them; every
top-level name of the package is read by package code, or listed with its reader."""

import ast
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


# Top-level names that no package code reads: (reader, the ROADMAP item that frees it, if any).
UNREAD_BY_PACKAGE = {
    "scenarios.gen_linear": ("perfbench/tracer.py, perfbench/workloads.py", "item 3"),
    "scenarios.gen_nn": ("perfbench/tracer.py, perfbench/workloads.py", "item 3"),
    "closed_form.homeostasis_report": ("tests/test_closed_form.py, tests/test_acceptance.py", "item 6"),
    "closed_form.width_ordering_trial": ("tests/test_closed_form.py, tests/test_acceptance.py", "item 6"),
    "verify.rank_coverage": ("tests/test_verify.py", "item 10"),
    "linalg.DTRTRS_LIBRARY": ("tests/test_linalg.py", None),
    "cli.entry": ("pyproject.toml", None),
}


def _defines(node: ast.stmt) -> set[str]:
    """The top-level functions, classes and module constants a module statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
    return {name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name)}


def _is_main_guard(node: ast.stmt) -> bool:
    return isinstance(node, ast.If) and "__main__" in ast.unparse(node.test)


def test_every_top_level_name_is_read_or_listed_with_its_reader():
    trees = {path.stem: ast.parse(path.read_text()) for path in (ROOT / "src" / "predcurves").glob("*.py")}
    defined = {f"{module}.{name}" for module, tree in trees.items() for node in tree.body for name in _defines(node)}
    read = set()
    for module, tree in trees.items():
        imported = {}  # local name -> "module.name" of a package name imported into this module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    imported[alias.asname or alias.name] = f"{node.module}.{alias.name}" if node.module else alias.name
        # the __main__ guard is an entry point, like pyproject.toml; a definition reading its own name is recursion
        for statement in (node for node in tree.body if not _is_main_guard(node)):
            for node in ast.walk(statement):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in _defines(statement):
                    read.add(imported.get(node.id, f"{module}.{node.id}"))
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in imported:
                    read.add(f"{imported[node.value.id]}.{node.attr}")
    unread = defined - read
    assert unread - UNREAD_BY_PACKAGE.keys() == set(), "read by no package code and not listed"
    assert UNREAD_BY_PACKAGE.keys() - unread == set(), "listed, but read by package code or gone"
