"""No library module is called only by its own tests.

Every module under ``src/repro`` (package ``__init__`` files aside) must have
a public name that some file other than itself, its package ``__init__`` and
``tests/`` uses: library code, an example, a script or a benchmark.  A module
whose names only its tests mention is dead weight the line budget pays for;
delete it with its tests instead.  Entry points started by name rather than
imported for their names are listed in ``ENTRY_POINTS``, each with its reason.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src"
CALLERS = ("src", "examples", "scripts", "benchmarks")

#: modules run by name, so no other file needs one of their names (``repro.cli``
#: and the worker spawn target ``repro.serving.worker`` need no entry:
#: ``__main__`` and the worker pool import them)
ENTRY_POINTS = {
    "repro/__main__.py": "`python -m repro` runs it; it defines no public name",
}


def _public_names(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(target.id for target in targets if isinstance(target, ast.Name))
    return {name for name in names if not name.startswith("_")}


def _uses(tree: ast.Module, *, imports: bool = True) -> set[str]:
    """Every name a file reads or looks up, and every name and module it imports."""
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Import) and imports:
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and imports:
            found.add(node.module)
            for alias in node.names:
                found.update((alias.name, f"{node.module}.{alias.name}"))
    return found


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def unused_modules(root: Path = ROOT) -> dict[str, set[str]]:
    """``{module path: public names}`` for every module no outside file uses.

    A module is used where another file imports it or names one of its
    public names.  Its package ``__init__`` counts only where it uses a name
    beyond importing it: a re-export alone is no caller.
    """
    source = root / "src"
    files = sorted(path for name in CALLERS for path in (root / name).rglob("*.py"))
    trees = {path: _parse(path) for path in files}
    uses = {path: _uses(tree) for path, tree in trees.items()}
    calls = {path: _uses(tree, imports=False) for path, tree in trees.items()}
    unused = {}
    for module in sorted((source / "repro").rglob("*.py")):
        relative = module.relative_to(source).as_posix()
        if module.name == "__init__.py" or relative in ENTRY_POINTS:
            continue
        names = _public_names(trees[module])
        names.add(relative.removesuffix(".py").replace("/", "."))
        package = module.parent / "__init__.py"
        if not any(
            names & (calls[path] if path == package else uses[path])
            for path in files
            if path != module
        ):
            unused[relative] = names
    return unused


def test_every_module_has_a_caller_outside_its_tests():
    assert unused_modules() == {}


def test_entry_points_exist():
    for relative in ENTRY_POINTS:
        assert (SOURCE / relative).is_file(), relative
