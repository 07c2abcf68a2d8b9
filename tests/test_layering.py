"""Layering: the substrate packages never import the layers built on them.

``core`` / ``gpu`` / ``lsh`` / ``sa`` / ``datasets`` / ``baselines`` are what
the session, planner, cluster, replica, stream, serve and obs layers are
built from; an import in the other direction — even a lazy one inside a
function body — is a cycle waiting to happen.
"""

import ast
from pathlib import Path

import repro

LOWER = ("core", "gpu", "lsh", "sa", "datasets", "baselines")
UPPER = ("api", "serve", "plan", "cluster", "replica", "stream", "obs")


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):  # walks function bodies too
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.lineno, node.module
            for alias in node.names:  # ``from repro import api``
                yield node.lineno, f"{node.module}.{alias.name}"


def test_lower_layers_do_not_import_upward():
    root = Path(repro.__file__).parent
    banned = tuple(f"repro.{name}" for name in UPPER)
    offenders = []
    for package in LOWER:
        for path in sorted((root / package).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for lineno, module in _imported_modules(tree):
                if any(module == b or module.startswith(b + ".") for b in banned):
                    offenders.append(f"{path.relative_to(root)}:{lineno}: {module}")
    assert not offenders, "upward imports:\n" + "\n".join(offenders)


def test_only_baselines_and_experiments_import_the_specification():
    """``core/reference.py`` is the per-query specification, not a code path.

    Production modules — the engine included, and ``repro.core``'s own
    ``__init__`` — never import it; the baselines (which *are* per-query
    systems) and the experiment runners may.
    """
    root = Path(repro.__file__).parent
    allowed = ("baselines", "experiments")
    offenders = []
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root)
        if relative.parts[0] in allowed or relative == Path("core/reference.py"):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for lineno, module in _imported_modules(tree):
            if module == "repro.core.reference" or module.startswith("repro.core.reference."):
                offenders.append(f"{relative}:{lineno}: {module}")
    assert not offenders, "the specification leaked into production:\n" + "\n".join(offenders)


def _called_names(path: Path):
    """Attribute / function names of every call expression in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call):
            func = node.func
            yield func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")


def test_one_execution_loop_and_one_merge():
    """A second scan loop or top-k merge cannot come back unnoticed.

    Every scan goes through ``_scan_one``, the only place the executor
    makes a part resident; every merge is ``merge_shard_results``, the
    only ``lexsort`` in the plan and cluster layers.
    """
    root = Path(repro.__file__).parent
    executor_calls = list(_called_names(root / "plan" / "executor.py"))
    assert executor_calls.count("_ensure_resident") == 1
    sorters = [
        str(path.relative_to(root))
        for package in ("plan", "cluster")
        for path in sorted((root / package).rglob("*.py"))
        if "lexsort" in _called_names(path)
    ]
    assert sorters == ["cluster/executor.py"]
    merge_calls = list(_called_names(root / "cluster" / "executor.py"))
    assert merge_calls.count("lexsort") == 1
