"""Every top-level function and class in src/nettsp has a user besides unit tests.

A definition counts as used when src/ code outside its own definition names
it, or the acceptance battery does. Code that only unit tests call is not
part of the solver, so it is deleted rather than kept alive by its tests.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _loaded_names(node):
    """Names that node reads, bare or as an attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            yield sub.attr


def test_every_top_level_definition_is_used_by_src_or_the_acceptance_battery():
    defined = []                            # (module, name)
    readers = defaultdict(set)              # name -> {(module, enclosing definition)}
    for path in sorted((ROOT / "src" / "nettsp").glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            owner = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = node.name
                defined.append((path.stem, node.name))
            for name in _loaded_names(node):
                readers[name].add((path.stem, owner))
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    for name in _loaded_names(acceptance):
        readers[name].add(("test_acceptance", None))
    unused = [f"{module}.{name}" for module, name in defined
              if not readers[name] - {(module, name)}]
    assert unused == [], f"defined but used by neither src/ nor the acceptance battery: {unused}"
