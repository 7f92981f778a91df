"""Nothing in `src/als` without a caller, and no import without a reader.

A top-level function, class or assigned name (a constant such as
`operators.HS`) counts as called if its name appears as a name, an
attribute or an imported name somewhere in `src/als` outside its own body
or assignment.  A method counts as called if its name appears as an
attribute outside its own body.

Exempt: functions that click decorates (the commands and their group),
methods of classes with a `click.` base (click calls them), dunders, and
the (module, function) pairs of TRACED_ONLY, which only `bench/tracer.py`
looks up by name.  Any other traced function that loses its last caller
fails; the tracer is read with `runpy`, as in `test_tracer_targets.py`.
"""

import ast
import runpy
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "als"
TRACER = runpy.run_path(str(ROOT / "bench" / "tracer.py"))
TRACED = set(TRACER["SPANNED"] + TRACER["COUNTED"])
#: The traced functions that nothing in `src/als` calls: the benchmark still wraps them.
TRACED_ONLY = {("gstate", "density_grid"), ("operators", "expectation"), ("operators", "eigen_residual")}


def _references(node) -> tuple[Counter, Counter]:
    """Counts of the names (imported ones included) and of the attributes used under node."""
    names, attrs = Counter(), Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.alias):
            names[sub.name] += 1
        elif isinstance(sub, ast.Attribute):
            attrs[sub.attr] += 1
    return names, attrs


def _root(node) -> str | None:
    """The leading name of a decorator or base such as ``click.option(...)``."""
    while isinstance(node, (ast.Call, ast.Attribute)):
        node = node.func if isinstance(node, ast.Call) else node.value
    return node.id if isinstance(node, ast.Name) else None


def _definitions(tree):
    """(qualified name, node, exempt) of every top-level def, module-level assigned name and method."""
    click_roots = {"click"}
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id, node, False
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            clicked = any(_root(d) in click_roots for d in node.decorator_list)
            if clicked:
                click_roots.add(node.name)
            yield node.name, node, clicked
        if isinstance(node, ast.ClassDef):
            click_base = any(_root(b) == "click" for b in node.bases)
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item, click_base


def uncalled() -> list[str]:
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    names, attrs = Counter(), Counter()
    for tree in trees.values():
        n, a = _references(tree)
        names.update(n)
        attrs.update(a)
    offenders = []
    for mod, tree in trees.items():
        for qualname, node, exempt in _definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            if exempt or (name.startswith("__") and name.endswith("__")) or (mod, qualname) in TRACED_ONLY:
                continue
            own_names, own_attrs = _references(node)
            uses = attrs[name] - own_attrs[name]
            if "." not in qualname:  # a method is called only as an attribute
                uses += names[name] - own_names[name]
            if not uses:
                offenders.append(f"{mod}.{qualname}")
    return offenders


def test_every_definition_has_a_caller():
    offenders = uncalled()
    assert not offenders, "no caller in src/als: " + ", ".join(offenders)


def test_traced_only_names_are_traced_and_uncalled(monkeypatch):
    # the allowlist holds no stale entry: each name is still traced, and
    # without the exemption each one is still reported
    assert TRACED_ONLY <= TRACED
    expected = {f"{mod}.{name}" for mod, name in TRACED_ONLY}
    monkeypatch.setattr(f"{__name__}.TRACED_ONLY", set())
    assert set(uncalled()) == expected


def unused_imports() -> list[str]:
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        offenders.append(f"{path.stem}: {bound}")
    return offenders


def test_every_import_is_read():
    offenders = unused_imports()
    assert not offenders, "imported but never read in src/als: " + ", ".join(offenders)
