"""Layering: the substrate packages never import the layers built on them.

``core`` / ``gpu`` / ``lsh`` / ``sa`` / ``datasets`` are what
the session, planner, cluster, replica, stream, serve and obs layers are
built from; an import in the other direction — even a lazy one inside a
function body — is a cycle waiting to happen.
"""

import ast
from pathlib import Path

import repro

LOWER = ("core", "gpu", "lsh", "sa", "datasets")
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


def test_the_package_imports_nothing_from_paper():
    """How the paper evaluates GENIE (``paper/``: the Algorithm-1 reference structures and the
    per-query specification, the baselines, the figure runners) is not a code path.

    The wheel does not ship it, so no module of the package may import it — not even lazily
    inside a function body: the engine prices the c-PQ structures and the Count Table, it never
    builds them.
    """
    root = Path(repro.__file__).parent
    offenders = [
        f"{path.relative_to(root)}:{lineno}: {module}"
        for path in sorted(root.rglob("*.py"))
        for lineno, module in _imported_modules(ast.parse(path.read_text(), filename=str(path)))
        if module == "paper" or module.startswith("paper.")
    ]
    assert not offenders, "imports of the paper harness:\n" + "\n".join(offenders)


def test_stream_and_cluster_never_import_the_session_layer():
    """A slice copy lives next to the slice it copies: ``stream/`` builds the delta
    run's from ``repro.cluster.plan``, not by reaching up into ``repro.api``."""
    root = Path(repro.__file__).parent
    offenders = [
        f"{path.relative_to(root)}:{lineno}: {module}"
        for package in ("stream", "cluster")
        for path in sorted((root / package).rglob("*.py"))
        for lineno, module in _imported_modules(ast.parse(path.read_text(), filename=str(path)))
        if module == "repro.api" or module.startswith("repro.api.")
    ]
    assert not offenders, "session-layer imports:\n" + "\n".join(offenders)


def test_one_partition_cut_in_one_place():
    """Cut points come from ``cluster/plan.py`` (equal ranges, ``part_size`` parts, carried
    cuts) and ``balanced_range_bounds``; ``IndexHandle._install`` alone turns them into a plan.

    A second ``linspace`` / stepped ``range`` in the session, stream, replica, plan or serve
    layer is a second opinion about where slices end — how a compaction came to undo
    ``rebalance()``.
    """
    root = Path(repro.__file__).parent
    cutters, builders = [], []
    for package in ("api", "stream", "replica", "plan", "serve", "cluster"):
        for path in sorted((root / package).rglob("*.py")):
            relative = str(path.relative_to(root))
            tree = ast.parse(path.read_text(), filename=str(path))
            for function in ast.walk(tree):
                if not isinstance(function, ast.FunctionDef):
                    continue
                for node in ast.walk(function):
                    if not isinstance(node, ast.Call):
                        continue
                    name = getattr(node.func, "attr", getattr(node.func, "id", ""))
                    if name == "linspace" or (name == "range" and len(node.args) == 3):
                        cutters.append(f"{relative}::{function.name}")
                    owner = getattr(getattr(node.func, "value", None), "id", "")
                    if name == "build_ranges" or (name == "build" and owner in ("ShardPlan", "cls")):
                        builders.append(f"{relative}::{function.name}")
    assert sorted(set(cutters)) == ["cluster/plan.py::_equal_bounds", "cluster/plan.py::part_bounds"]
    assert sorted(set(builders) - {"cluster/plan.py::build"}) == ["api/session.py::_install"]
    from repro import plan
    from repro.replica import rebalance

    assert "ShardContext" not in plan.__all__ and not hasattr(plan, "ShardContext")
    assert [name for name in vars(rebalance) if name.endswith("bounds")] == ["balanced_range_bounds"]


def _called_names(path: Path):
    """Attribute / function names of every call expression in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call):
            func = node.func
            yield func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")


def test_one_execution_loop_and_one_merge():
    """A second scan loop or top-k merge cannot come back unnoticed.

    Every scan goes through ``_scan_one``, the only place the executor
    makes a part resident; every regrouping of the sources' candidates —
    the merge and the TPUT threshold — is ``pool_candidates``, the only
    sort in the plan and cluster layers (fused keys, or its one
    ``lexsort`` when they do not fit).
    """
    root = Path(repro.__file__).parent
    executor_calls = list(_called_names(root / "plan" / "executor.py"))
    assert executor_calls.count("_ensure_resident") == 1
    assert executor_calls.count("pool_candidates") == 1
    sorters = [
        str(path.relative_to(root))
        for package in ("plan", "cluster")
        for path in sorted((root / package).rglob("*.py"))
        if {"lexsort", "argsort"} & set(_called_names(path))
    ]
    assert sorters == ["cluster/executor.py"]
    merge_calls = list(_called_names(root / "cluster" / "executor.py"))
    assert merge_calls.count("lexsort") == merge_calls.count("argsort") == merge_calls.count("pool_candidates") == 1


def _search_path_modules(root: Path):
    """The production modules a search crosses after the encoders."""
    yield root / "core" / "batch_scan.py"
    yield root / "core" / "engine.py"
    yield root / "api" / "session.py"
    for package in ("plan", "cluster", "stream", "serve"):
        yield from sorted((root / package).rglob("*.py"))


def _per_query_uses(path: Path):
    """``(lineno, what)`` for every way a module could walk queries one by one."""
    tree = ast.parse(path.read_text(), filename=str(path))
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if node.attr == "items" and id(node) not in called:  # ``dict.items()`` is a call
                yield node.lineno, "reads .items"
            elif node.attr == "num_keywords":
                yield node.lineno, "reads .num_keywords"
            elif node.attr in ("all_keywords", "count_bound") and id(node) in called:
                yield node.lineno, f"calls .{node.attr}()"
        if isinstance(node, ast.Call):
            func = node.func
            owner = func.value if isinstance(func, ast.Attribute) else func
            if isinstance(owner, ast.Name) and owner.id == "Query":
                yield node.lineno, "constructs Query"


def test_search_path_reads_batch_arrays_only():
    """Behind the doors a batch is three arrays: no per-query, per-item walk.

    ``QueryBatch`` is the only query representation on the search path; a
    module there that reads ``query.items``, builds a ``Query`` or asks one
    for its keywords has brought a re-flattening loop back.
    """
    root = Path(repro.__file__).parent
    offenders = [
        f"{path.relative_to(root)}:{lineno}: {what}"
        for path in _search_path_modules(root)
        for lineno, what in _per_query_uses(path)
    ]
    assert not offenders, "per-query walks on the search path:\n" + "\n".join(offenders)


def test_search_path_moves_candidates_as_batches():
    """Behind the doors answers are ``TopKBatch`` arrays: no result object per (source, query).

    A ``TopKResult(...)`` built in the scan, the executor, the merge, the
    stream or the serve layer is a per-query python loop come back; the
    per-query views are made by ``TopKBatch.__getitem__`` alone, once per
    answered query at ``search_encoded``. (The specification and the
    baselines, GEN-SPQ included, are per-query systems; they live in
    ``paper/``, outside the package.)
    """
    root = Path(repro.__file__).parent
    offenders = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in _search_path_modules(root)
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", "")) == "TopKResult"
    ]
    assert not offenders, "TopKResult built on the search path:\n" + "\n".join(offenders)


def test_the_stream_delta_holds_a_corpus_not_per_object_dicts():
    """The delta run is its id array, its index and a log of the ``Corpus`` each edit brought:
    no dict entry or row object per insert."""
    root = Path(repro.__file__).parent
    offenders = []
    for path in sorted((root / "stream").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.AnnAssign) and "dict" in ast.unparse(node.annotation) \
                    and "ndarray" in ast.unparse(node.annotation):
                offenders.append(f"{path.relative_to(root)}:{node.lineno}: {ast.unparse(node.annotation)}")
            if isinstance(node, ast.Call) and getattr(node.func, "attr", "") in ("from_rows", "keywords"):
                offenders.append(f"{path.relative_to(root)}:{node.lineno}: re-assembles a corpus row by row")
    assert not offenders, "per-object keyword storage in stream/:\n" + "\n".join(offenders)
    from repro.stream import DeltaRun, SegmentManifest, StreamConfig

    assert set(DeltaRun.__slots__) == {
        "global_ids", "index", "postings", "_sizes", "_added", "_dropped", "_logged", "_indexed_ids"
    }
    # One run, not a list of them — and no knob that could make a second.
    manifest = SegmentManifest(0)
    assert isinstance(manifest.delta, DeltaRun) and not hasattr(manifest, "segments")
    assert set(StreamConfig.__dataclass_fields__) == {"compact_ratio", "auto_compact"}


def test_only_the_doors_and_the_specification_construct_queries():
    root = Path(repro.__file__).parent
    allowed_files = {Path("core/types.py"), Path("core/match_count.py"), Path("api/models.py")}
    offenders = []
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root)
        if relative in allowed_files:
            continue
        offenders += [f"{relative}:{lineno}" for lineno, what in _per_query_uses(path)
                      if what == "constructs Query"]
    assert not offenders, "Query built outside the doors:\n" + "\n".join(offenders)


def _corpus_rewraps(path: Path):
    """``(lineno, what)`` for every ``Corpus(...)`` built from rows a corpus already holds."""
    for call in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not (isinstance(call, ast.Call) and getattr(call.func, "id", getattr(call.func, "attr", "")) == "Corpus"):
            continue
        for argument in [*call.args, *(keyword.value for keyword in call.keywords)]:
            for node in ast.walk(argument):
                if isinstance(node, ast.Attribute) and node.attr == "keyword_arrays":
                    yield call.lineno, "Corpus(... .keyword_arrays ...)"
                elif isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "keywords":
                    yield call.lineno, "Corpus(... segment.keywords() ...)"
                elif isinstance(node, ast.comprehension):
                    names = {getattr(n, "id", getattr(n, "attr", "")) for n in ast.walk(node.iter)}
                    if any(name.endswith(("corpus", "corpora", "slots")) for name in names):
                        yield call.lineno, "Corpus(comprehension over corpus rows)"


def test_canonical_rows_are_moved_not_rewrapped():
    """One ragged container: rows are canonicalized where they enter, then moved.

    Production layers slice, gather and glue corpora with ``take`` /
    ``concat`` / ``by_global_id``; a ``Corpus(...)`` over
    rows another corpus handed out sorts them again, and a loop over
    ``.keyword_arrays`` in the build path is a python object per object.
    """
    root = Path(repro.__file__).parent
    allowed_files = {Path("core/types.py"), Path("core/match_count.py")}
    offenders = []
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root)
        if relative in allowed_files:
            continue
        offenders += [f"{relative}:{lineno}: {what}" for lineno, what in _corpus_rewraps(path)]
    for relative in ("core/inverted_index.py", "cluster/plan.py", "stream/state.py", "api/session.py"):
        tree = ast.parse((root / relative).read_text())
        offenders += [
            f"{relative}:{node.lineno}: reads .keyword_arrays"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "keyword_arrays"
        ]
    assert not offenders, "re-derived corpus rows:\n" + "\n".join(offenders)


def test_both_containers_canonicalize_through_the_one_routine():
    """``np.unique`` per object was 0.13 s of a 0.15 s fit; a second segmented sort is a fork."""
    tree = ast.parse((Path(repro.__file__).parent / "core" / "types.py").read_text())
    for container in ("Corpus", "QueryBatch"):
        (cls,) = [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef) and node.name == container]
        (init,) = [node for node in cls.body if isinstance(node, ast.FunctionDef) and node.name == "__init__"]
        called = {getattr(node.func, "attr", getattr(node.func, "id", ""))
                  for node in ast.walk(init) if isinstance(node, ast.Call)}
        assert "canonical_segments" in called, container
        assert not called & {"unique", "sort", "lexsort", "argsort"}, container


def test_the_theory_functions_run_without_scipy():
    """numpy is the only runtime dependency: the two closed forms that once used scipy run with it blocked."""
    import os
    import subprocess
    import sys

    done = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.modules['scipy'] = None\n"
         "from repro.lsh import psi_l2, success_probability\n"
         "print(repr(psi_l2(1.0, 4.0)), repr(success_probability(0.5, 234)))"],
        env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).parent.parent)},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    psi, success = map(float, done.stdout.split())
    assert abs(psi - 0.80053) < 1e-5  # 1 - 2 Phi(-4) - (1 - e^-8) / (2 sqrt(2 pi))
    assert 0.94 <= success < 0.95  # m = 234 is the first m past 1 - delta at s = 0.5


def test_the_package_holds_no_linter_and_imports_no_repo_tool():
    """The checker is a repository tool (``tools/lint``), not part of the installed system."""
    root = Path(repro.__file__).parent
    assert not (root / "lint").exists()
    offenders = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for lineno, module in _imported_modules(tree):
            if module == "tools" or module.startswith("tools."):
                offenders.append(f"{path.relative_to(root)}:{lineno}: {module}")
    assert not offenders, "repo-tool imports:\n" + "\n".join(offenders)


#: The modules that left ``repro.core`` for ``paper/reference`` (and ``match_count``, the
#: brute-force oracle, which stays in the package but is no longer imported by ``repro.core``).
MOVED_CORE = ("cpq", "hash_table", "bitmap_counter", "zipper", "count_table", "reference", "spq_select")


def test_the_serving_system_loads_no_harness_package():
    """``import repro, repro.api, repro.serve`` loads nothing from ``paper`` and none of the
    Algorithm-1 structures, the Count Table or the brute-force oracle."""
    import os
    import subprocess
    import sys

    unwanted = [f"repro.core.{name}" for name in (*MOVED_CORE, "match_count")]
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys\n"
         "import repro, repro.api, repro.serve\n"
         "print(' '.join(sorted(m for m in sys.modules\n"
         f"    if m.split('.')[0] == 'paper' or m in {unwanted!r})))"],
        env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).parent.parent)},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


def test_the_package_holds_no_harness():
    """The baselines, the figure runners and the Algorithm-1 structures live in ``paper/``:
    a copy left in the package would ship in the wheel again."""
    root = Path(repro.__file__).parent
    assert not [name for name in ("baselines", "experiments") if (root / name).exists()]
    assert not [name for name in MOVED_CORE if (root / "core" / f"{name}.py").exists()]
    from repro import core

    assert set(core.__all__) == {
        "Corpus", "Query", "QueryBatch", "TopKBatch", "TopKResult", "GenieEngine", "GenieConfig",
        "InvertedIndex", "LoadBalanceConfig", "plan_batch_scan", "BatchScanPlan",
        "bits_for_bound", "hash_table_capacity", "per_query_device_bytes",
    }
