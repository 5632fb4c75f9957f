"""One way to run a stateful stage, and one keyed exchange.

Every stateful stage in the engine runs through
``stages.statecache.make_stage_fn``: a plain function whose state is built
once per worker process and that fuses into the surrounding map chain.
An actor pool was measured slower at every size tried (see the
statecache module docstring), so no ``map_batches`` call in the package
may start one again: no class as the function, no
``fn_constructor_args`` and no ``(min, max)`` tuple ``concurrency``.

Every keyed reduce the engine defines runs through ``ctx.bucket_exchange``
(mostly via ``stages.agg.hash_bucket_agg``), which reduces a whole
exchange block per call. Ray's ``groupby(key).map_groups`` calls Python
once per group and ignores ``num_partitions`` under the sort shuffle, so
no ``map_groups`` call may come back into the package.

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
