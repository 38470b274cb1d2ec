"""Every third-party module the package or its tests import is declared,
every module-level import is used, the package exports exactly the names
it binds, and every field of the fitter and solver configs, like the
solvers' ``batch_mean`` keyword, takes at least two values somewhere in the
package.

The package may import the standard library, itself and the modules of
``[project].dependencies``; the tests may also import pytest and their own
``oracles`` module.  Installed but undeclared packages fail the scan.
"""

import ast
import re
import sys
import types
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = Path(__file__).resolve().parents[1]

# distributions whose import name differs from their normalized project name
_IMPORT_NAMES = {"pyyaml": "yaml"}


def _declared_modules() -> set[str]:
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.-]+", d).group(0).lower().replace("-", "_") for d in deps}
    return {_IMPORT_NAMES.get(n, n) for n in names}


def _third_party_imports(folder: Path) -> dict[str, set[str]]:
    """Top-level module -> files under folder importing it, absolute imports
    outside the standard library only (function-local ones included)."""
    found: dict[str, set[str]] = {}
    for path in sorted(folder.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                mods = [node.module]
            else:
                continue
            for mod in mods:
                top = mod.split(".")[0]
                if top not in sys.stdlib_module_names:
                    found.setdefault(top, set()).add(path.name)
    return found


def test_package_imports_only_declared_dependencies():
    allowed = _declared_modules() | {"fyinv"}
    used = _third_party_imports(ROOT / "src" / "fyinv")
    assert {m: f for m, f in used.items() if m not in allowed} == {}


def test_tests_import_only_declared_dependencies():
    allowed = _declared_modules() | {"fyinv", "pytest", "oracles"}
    used = _third_party_imports(ROOT / "tests")
    assert {m: f for m, f in used.items() if m not in allowed} == {}


def test_all_lists_every_public_name():
    import fyinv

    bound = {
        name for name, v in vars(fyinv).items()
        if not name.startswith("_") and not isinstance(v, types.ModuleType)
    }
    assert set(fyinv.__all__) == bound


def _unused_imports(path: Path) -> list[str]:
    """Names a file's module-level imports bind but the file never reads.

    A name counts as read where it appears as a Name node (attribute chains
    start with one) or in the file's own ``__all__``; ``__future__`` imports
    bind nothing.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = []
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [name for name in bound if name not in used]


def test_no_unused_imports():
    files = sorted((ROOT / "src" / "fyinv").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    unused = {p.relative_to(ROOT).as_posix(): _unused_imports(p) for p in files}
    assert {f: names for f, names in unused.items() if names} == {}


def _config_values(classes: tuple[str, ...]) -> dict[str, dict[str, set[str]]]:
    """Class -> field -> the distinct source expressions the field takes.

    Counted over every constructor call and every ``dataclasses.replace``
    keyword in the package; a constructor call that leaves a field out
    counts the field's default.  A replace keyword counts for each of the
    classes that has a field of that name.
    """
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted((ROOT / "src" / "fyinv").glob("*.py"))]
    defaults = {
        node.name: {st.target.id: ast.unparse(st.value) for st in node.body if isinstance(st, ast.AnnAssign)}
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name in classes
    }
    values = {cls: {name: set() for name in fields} for cls, fields in defaults.items()}
    for tree in trees:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            callee = getattr(call.func, "id", getattr(call.func, "attr", None))
            given = {kw.arg: ast.unparse(kw.value) for kw in call.keywords if kw.arg}
            if callee in defaults:
                given |= {name: ast.unparse(a) for name, a in zip(defaults[callee], call.args)}
                for name, default in defaults[callee].items():
                    values[callee][name].add(given.get(name, default))
            elif callee == "replace":
                for fields in values.values():
                    for name, v in given.items():
                        if name in fields:
                            fields[name].add(v)
    return values


def _keyword_values(keyword: str) -> dict[str, set[str]]:
    """Function -> the distinct source expressions its keyword-only
    parameter ``keyword`` takes over every call in the package.

    A call that leaves the keyword out counts its default; a call that
    passes on its own caller's parameter of that name counts every value
    the caller takes.
    """
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted((ROOT / "src" / "fyinv").glob("*.py"))]
    defaults = {
        fn.name: ast.unparse(d)
        for tree in trees
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
        if a.arg == keyword
    }
    values = {fn: set() for fn in defaults}
    forwards = set()  # (caller, callee)

    def visit(node, caller):
        if isinstance(node, ast.FunctionDef):
            caller = node.name
        func = node.func if isinstance(node, ast.Call) else None
        callee = getattr(func, "id", getattr(func, "attr", None))
        if callee in defaults:
            arg = next((kw.value for kw in node.keywords if kw.arg == keyword), None)
            if isinstance(arg, ast.Name) and arg.id == keyword and caller in defaults:
                forwards.add((caller, callee))
            else:
                values[callee].add(defaults[callee] if arg is None else ast.unparse(arg))
        for child in ast.iter_child_nodes(node):
            visit(child, caller)

    for tree in trees:
        visit(tree, None)
    for _ in forwards:  # a chain of forwards is at most this long
        for caller, callee in forwards:
            values[callee] |= values[caller]
    return values


def test_every_config_knob_takes_two_values():
    # a field that every caller leaves at one value is a constant, not a knob
    values = _config_values(("SgdConfig",))
    assert set(values) == {"SgdConfig"} and "gap_tol" in values["SgdConfig"]
    single = {f"{cls}.{name}": v for cls, fields in values.items() for name, v in fields.items() if len(v) < 2}
    assert single == {}
    # so is a private keyword that every call passes the same way
    batch_mean = _keyword_values("batch_mean")
    assert {"_fw_project_batch", "_project_region_batch"} <= set(batch_mean)
    assert {fn: v for fn, v in batch_mean.items() if len(v) < 2} == {}
