"""Every top-level function and class in src/nettsp, and every method and
property of a top-level class, has a user besides unit tests.

A definition counts as used when src/ code outside its own definition names
it, or the acceptance battery does. Dunder methods are exempt, since Python
calls them. Code that only unit tests call is not part of the solver, so it
is deleted rather than kept alive by its tests.
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


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _scopes(node):
    """(definition path, subtree) pairs that together cover a top-level node.

    A path names the definition a subtree sits in: ("f",) for a top-level
    function or class f, ("C", "m") for a method or property m of class C,
    () for any other statement. Dunder methods stay part of their class.
    """
    if not isinstance(node, DEFINITIONS):
        return [((), node)]
    if not isinstance(node, ast.ClassDef):
        return [((node.name,), node)]
    scopes = [((node.name,), sub) for sub in node.decorator_list + node.bases + node.keywords]
    for sub in node.body:
        method = isinstance(sub, DEFINITIONS[:2]) and not (
            sub.name.startswith("__") and sub.name.endswith("__"))
        scopes.append(((node.name, sub.name) if method else (node.name,), sub))
    return scopes


def test_every_top_level_definition_is_used_by_src_or_the_acceptance_battery():
    defined = set()                         # (module, definition path)
    readers = defaultdict(set)              # name -> {(module, definition path it is read in)}
    for path in sorted((ROOT / "src" / "nettsp").glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            for scope, sub in _scopes(node):
                if scope:
                    defined.add((path.stem, scope))
                for name in _loaded_names(sub):
                    readers[name].add((path.stem, scope))
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    for name in _loaded_names(acceptance):
        readers[name].add(("test_acceptance", ()))
    unused = sorted(f"{module}.{'.'.join(scope)}" for module, scope in defined
                    if all(m == module and s[:len(scope)] == scope
                           for m, s in readers[scope[-1]]))
    assert unused == [], f"defined but used by neither src/ nor the acceptance battery: {unused}"


def test_every_parameter_of_a_private_function_is_read():
    """A private function or method (one leading underscore) reads each of
    its parameters in its body; a parameter no one reads is deleted, not
    passed along by every caller."""
    unread = []
    for path in sorted((ROOT / "src" / "nettsp").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, DEFINITIONS[:2]) and node.name.startswith("_")
                    and not node.name.startswith("__")):
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [
                a for a in (args.vararg, args.kwarg) if a is not None]
            read = {name for stmt in node.body for name in _loaded_names(stmt)}
            unread += [f"{path.stem}.{node.name}({a.arg})" for a in params
                       if a.arg not in read]
    assert unread == [], f"parameters their private function never reads: {unread}"


def _passed(call, offset):
    """Positional slots (past the first ``offset``) and keyword names that a
    call fills; None when it unpacks ``*`` or ``**`` and so may fill any."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(
            kw.arg is None for kw in call.keywords):
        return None
    return len(call.args) + offset, {kw.arg for kw in call.keywords}


def test_every_optional_parameter_is_passed_by_src_or_the_acceptance_battery():
    """Each parameter with a default, of any function or method in src/nettsp,
    is passed by some call in src/ or in the acceptance battery, by position
    or by keyword; else its default is all it ever is, a knob that changes
    nothing. A call counts when its callee has the function's name, or the
    class's for ``__init__``. ``cli.main``'s ``argv`` is exempt: the console
    script calls main() and argparse reads sys.argv."""
    modules = {path.stem: ast.parse(path.read_text())
               for path in sorted((ROOT / "src" / "nettsp").glob("*.py"))}
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    calls = defaultdict(list)               # callee name -> calls
    for tree in [*modules.values(), acceptance]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls[name].append(node)
    unpassed = []
    for module, tree in modules.items():
        for owner in ast.walk(tree):
            body = getattr(owner, "body", None)
            for node in body if isinstance(body, list) else []:
                if not isinstance(node, DEFINITIONS[:2]):
                    continue
                method = isinstance(owner, ast.ClassDef) and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in node.decorator_list)
                name = owner.name if node.name == "__init__" else node.name
                args = node.args
                positional = args.posonlyargs + args.args
                optional = [(i, a.arg) for i, a in enumerate(positional)
                            if i >= len(positional) - len(args.defaults)]
                optional += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                             if d is not None]
                filled = [_passed(call, int(method)) for call in calls[name]]
                for i, arg in optional:
                    if (module, node.name, arg) == ("cli", "main", "argv"):
                        continue
                    if not any(f is None or arg in f[1] or (i is not None and i < f[0])
                               for f in filled):
                        unpassed.append(f"{module}.{node.name}({arg})")
    assert unpassed == [], f"optional parameters no caller passes: {unpassed}"
