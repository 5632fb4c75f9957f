"""One way to run a stateful stage, and one keyed exchange.

Every stateful stage in the engine runs through
``stages.statecache.make_stage_fn``: a plain function whose state is built
once per worker process and that fuses into the surrounding map chain.
An actor pool was measured slower at every size tried (see the
statecache module docstring), so no ``map_batches`` call in the package
may start one again: no class as the function, no
``fn_constructor_args`` and no ``(min, max)`` tuple ``concurrency``.

Every keyed reduce the engine defines runs through ``ctx.bucket_exchange``,
which reduces a whole exchange block per call, an Arrow table in and an
Arrow table out: mostly via ``stages.agg.keyed_agg``, ``keyed_topk`` and
``keyed_scan``, otherwise as a caller's own Arrow function; no reduce
takes a pandas frame. Ray's ``groupby(key).map_groups`` calls Python
once per group and ignores ``num_partitions`` under the sort shuffle, so
no ``map_groups`` call may come back into the package. Sums, mins and
maxes run as ``stages.agg.keyed_agg``, so Ray's builtin
``aggregate`` (which keeps its own sort-based exchange beside this one)
may not come back either; Arrow's ``Table.group_by(...).aggregate``, the
kernel inside ``keyed_agg``, is not Ray's and stays allowed.

The first k rows per key under a total order run as
``stages.agg.keyed_topk``, with no key for a global top-k; so no pandas
``groupby(...).head``, ``idxmin``/``idxmax`` or keep-first/last
``drop_duplicates`` may hand-write one again, and the old global
``stages.topk`` module may not come back.

Windows (a lag, a running sum or max, a gap rule per key) run as
``stages.agg.keyed_scan``: numpy over an Arrow block sorted by the key
and its run-start mask. So no pandas ``groupby(...)`` may hand-write
one again with ``cumsum``, ``cummax``, ``cummin`` or ``transform``.

The exchange owns the bucket: callers pass a key, and ``bucket_exchange``
alone maps it to one bucket per reduce task. So no function may take a
bucket count (``n_buckets``) again.

The flagship's fused map operator does only work its output needs: it
computes no cell id (the flagship keeps none), and the PIP join checks
candidates in one broadcast pass, so the per-edge loop
``points_in_polygon`` lives in the tests only, as their reference.
"""

import ast
import pathlib

import rio_color_ray

PKG = pathlib.Path(rio_color_ray.__file__).parent


def _modules():
    return {p: ast.parse(p.read_text(), filename=str(p)) for p in sorted(PKG.rglob("*.py"))}


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def test_no_map_batches_call_starts_an_actor_pool():
    modules = _modules()
    classes = {
        node.name
        for tree in modules.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }
    calls, bad = 0, []
    for path, tree in modules.items():
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and _name(node.func) == "map_batches"):
                continue
            calls += 1
            where = f"{path.relative_to(PKG.parent)}:{node.lineno}"
            kw = {k.arg: k.value for k in node.keywords}
            fn = node.args[0] if node.args else kw.get("fn")
            if _name(fn) in classes:
                bad.append(f"{where}: class {_name(fn)} as the function")
            if "fn_constructor_args" in kw:
                bad.append(f"{where}: fn_constructor_args")
            if isinstance(kw.get("concurrency"), ast.Tuple):
                bad.append(f"{where}: tuple concurrency")
    assert calls > 50  # the walk really sees the engine's map_batches calls
    assert not bad, "\n".join(bad)


def test_no_map_groups_in_the_engine():
    bad = [
        f"{path.relative_to(PKG.parent)}:{node.lineno}"
        for path, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "map_groups"
    ]
    assert not bad, "map_groups calls:\n" + "\n".join(bad)


def test_no_builtin_aggregate_in_the_engine():
    bad = []
    for path, tree in _modules().items():
        where = path.relative_to(PKG.parent)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "aggregate"
                # Arrow's TableGroupBy: ``<table>.group_by(...).aggregate``
                and not (isinstance(node.func.value, ast.Call) and _name(node.func.value.func) == "group_by")
            ):
                bad.append(f"{where}:{node.lineno} .aggregate(")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ray.data.aggregate"):
                bad.append(f"{where}:{node.lineno} from {node.module} import")
            elif isinstance(node, ast.Import) and any(
                a.name.startswith("ray.data.aggregate") for a in node.names
            ):
                bad.append(f"{where}:{node.lineno} import ray.data.aggregate")
    assert not bad, "Ray builtin aggregates:\n" + "\n".join(bad)


# (module, top-level function) -> why its hand-written top-k stays
TOPK_ALLOWED = {
    ("pipelines/relational.py", "approx_distinct_users_kmv"): (
        "KMV's bottom-k must hold k DISTINCT hashes per type; a row-level "
        "top-k would keep a user's hash once per row"
    ),
}


def _hand_written_topk(node):
    """What top-k idiom ``node`` is, or None."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        attr, recv = node.func.attr, node.func.value
        if attr == "head" and isinstance(recv, ast.Call) and _name(recv.func) == "groupby":
            return "groupby(...).head("
        if attr in ("idxmin", "idxmax"):
            return f".{attr}("
        if attr == "drop_duplicates" and any(k.arg == "keep" for k in node.keywords):
            return "drop_duplicates(..., keep=...)"
    if isinstance(node, ast.ImportFrom):
        names = [node.module or ""] + [f"{node.module}.{a.name}" for a in node.names]
    else:
        names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
    if any(".stages.topk." in f".{n}." for n in names):
        return "import of stages.topk"
    return None


def test_no_hand_written_topk_in_the_engine():
    bad, allowed_seen = [], set()
    for path, tree in _modules().items():
        rel = path.relative_to(PKG).as_posix()
        for stmt in tree.body:
            owner = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                what = _hand_written_topk(node)
                if what is None:
                    continue
                if (rel, owner) in TOPK_ALLOWED:
                    allowed_seen.add((rel, owner))
                else:
                    bad.append(f"{rel}:{node.lineno} {what}")
    # the scan still sees the one allowed site, so it is not blind
    assert allowed_seen == set(TOPK_ALLOWED)
    assert not bad, "hand-written top-k (use stages.agg.keyed_topk):\n" + "\n".join(bad)


PANDAS_SCANS = {"cumsum", "cummax", "cummin", "transform"}


def _from_groupby(node, grouped):
    """Whether ``node`` is a pandas groupby, a column of one, or a name
    bound to either."""
    while True:
        if isinstance(node, ast.Call):
            if _name(node.func) == "groupby":
                return True
            node = node.func
        elif isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
        else:
            return isinstance(node, ast.Name) and node.id in grouped


def test_no_pandas_groupby_scan_in_the_engine():
    bad = []
    for path, tree in _modules().items():
        grouped = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and _from_groupby(node.value, set()):
                grouped |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in PANDAS_SCANS
                and _from_groupby(node.func.value, grouped)
            ):
                bad.append(f"{path.relative_to(PKG.parent)}:{node.lineno} .{node.func.attr}(")
    assert not bad, "pandas groupby scans (use stages.agg.keyed_scan):\n" + "\n".join(bad)


def test_no_n_buckets_parameter():
    bad = [
        f"{path.relative_to(PKG.parent)}:{node.lineno} {node.name}"
        for path, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and "n_buckets"
        in [a.arg for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs]
    ]
    assert not bad, "functions taking n_buckets:\n" + "\n".join(bad)


def test_flagship_map_chain_computes_no_cell(ray_session):
    from conftest import SF_SMOKE
    from rio_color_ray.pipelines.flagship import flagship

    ds = flagship(SF_SMOKE).materialize()
    chain = [line for line in ds.stats().splitlines() if "MapBatches(geocode_batch)" in line]
    assert chain, ds.stats()
    for line in chain:
        assert "PIPJoinStageFn" in line and "_add_tile_hash" in line  # one fused operator
        assert "cellify_batch" not in line


def test_no_engine_module_uses_points_in_polygon():
    bad = [
        str(path.relative_to(PKG.parent))
        for path in sorted(PKG.rglob("*.py"))
        if "points_in_polygon" in path.read_text()
    ]
    assert not bad, "points_in_polygon in the engine: " + ", ".join(bad)
