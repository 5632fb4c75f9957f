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

The broadcast-query stages (kNN, brute and IVF ANN) pick each batch's
candidates with one kernel, ``stages.knn.local_topk``, which keeps
k-th-place ties for ``keyed_topk`` to break; so no other code may call
``np.partition`` or ``argpartition``.

The text stages build their word 3-grams with one kernel,
``stages.text.rolling_grams``, and rank each document's k smallest
distinct grams with ``stages.text.k_smallest_distinct`` over
``stages.agg.run_position``; so no other code may multiply by the gram
multiplier ``_FP_P1``, and no code may rank rows in their run with
``pos - np.repeat(pos[...], ...)``.

Windows (a lag, a running sum or max, a gap rule per key) run as
``stages.agg.keyed_scan``: numpy over an Arrow block sorted by the key
and its run-start mask. So no pandas ``groupby(...)`` may hand-write
one again with ``cumsum``, ``cummax``, ``cummin`` or ``transform``.

The exchange owns the bucket: callers pass a key, and ``bucket_exchange``
alone maps it to one bucket per reduce task. So no function may take a
bucket count (``n_buckets``) again.

Arrow is the engine's only batch format: every map takes and returns an
Arrow table, joins run Arrow's ``pa.Table.join`` (``stages.join``), and
every registry entry returns a Dataset. So no module may import pandas,
map ``batch_format="pandas"`` or call a ``.merge(``, except that the
module of ``stages.sampling.hash64``, the engine's 64-bit value hash,
imports pandas once for its siphash kernel. A driver-sized result comes
back as an Arrow table (``ctx.collect``), not through ``.to_pandas(``,
except in the checkpoint's lineage frames and the CLI's print.

Binary and string columns made from buffers are made by one builder,
``stages.color_stage.binary_array``, the inverse of ``binary_view``: it
hands Arrow the values without a copy and refuses values past int32
offsets instead of wrapping them. So no other code may call
``Array.from_buffers`` with a binary or string type, or a binary or
string array class's ``from_buffers``.

The flagship's fused map operator does only work its output needs: it
computes no cell id (the flagship keeps none), and the PIP join checks
candidates in one broadcast pass, so the per-edge loop
``points_in_polygon`` lives in the tests only, as their reference.
"""

import ast
import pathlib
from collections import Counter

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


# a hand-written top-k, which the scan must flag so it is not blind
TOPK_SNIPPET = """
def partial(batch):
    return batch.sort_values(["t", "h"]).groupby("t").head(64)
"""


def _topk_sites(modules):
    return [
        f"{rel}:{node.lineno} {what}"
        for rel, tree in modules.items()
        for node in ast.walk(tree)
        if (what := _hand_written_topk(node)) is not None
    ]


def test_no_hand_written_topk_in_the_engine():
    assert _topk_sites({"snippet": ast.parse(TOPK_SNIPPET)}) == ["snippet:3 groupby(...).head("]
    bad = _topk_sites({path.relative_to(PKG).as_posix(): tree for path, tree in _modules().items()})
    assert not bad, "hand-written top-k (use stages.agg.keyed_topk):\n" + "\n".join(bad)


# the one per-batch top-k kernel: (module, function)
KERNEL = ("stages/knn.py", "local_topk")


def _partition_sites(modules):
    """Every ``np.partition`` and ``argpartition`` call outside the
    kernel, as "module:line what"; and how many the kernel makes."""
    sites, in_kernel = [], 0
    for rel, tree in modules.items():
        kernel = {
            id(n)
            for f in ast.walk(tree)
            if isinstance(f, ast.FunctionDef) and (rel, f.name) == KERNEL
            for n in ast.walk(f)
        }
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            attr = node.func.attr
            if attr == "argpartition" or (attr == "partition" and _name(node.func.value) in ("np", "numpy")):
                if id(node) in kernel:
                    in_kernel += 1
                else:
                    sites.append(f"{rel}:{node.lineno} .{attr}(")
    return sites, in_kernel


def test_one_per_batch_topk_kernel():
    snippet = "def pick(d2, k):\n    return np.argpartition(d2, k - 1, axis=0)[:k]\n"
    assert _partition_sites({"snippet": ast.parse(snippet)}) == (["snippet:2 .argpartition("], 0)
    bad, in_kernel = _partition_sites(
        {path.relative_to(PKG).as_posix(): tree for path, tree in _modules().items()}
    )
    assert not bad, "per-batch top-k outside stages.knn.local_topk:\n" + "\n".join(bad)
    assert in_kernel == 1


# the one rolling 3-gram kernel: (module, function)
GRAM_KERNEL = ("stages/text.py", "rolling_grams")

# a second gram kernel and a hand-written run rank, which the scan must flag
GRAM_SNIPPET = """
def keys(h, start):
    g = h[:-2] * _FP_P1 + h[1:-1] * _FP_P2 + h[2:]
    pos = np.arange(len(start))
    return g, pos - np.repeat(pos[start], np.diff(np.flatnonzero(start)))
"""


def _text_kernel_copies(modules):
    """Every multiplication by ``_FP_P1`` outside the gram kernel and
    every ``x - np.repeat(x[...], ...)`` run rank, as "module:line what";
    and how many multiplications the kernel makes."""
    sites, in_kernel = [], 0
    for rel, tree in modules.items():
        kernel = {
            id(n)
            for f in ast.walk(tree)
            if isinstance(f, ast.FunctionDef) and (rel, f.name) == GRAM_KERNEL
            for n in ast.walk(f)
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.BinOp):
                continue
            if isinstance(node.op, ast.Mult) and "_FP_P1" in (_name(node.left), _name(node.right)):
                if id(node) in kernel:
                    in_kernel += 1
                else:
                    sites.append(f"{rel}:{node.lineno} * _FP_P1")
            right = node.right
            if (
                isinstance(node.op, ast.Sub)
                and isinstance(right, ast.Call)
                and _name(right.func) == "repeat"
                and right.args
                and isinstance(right.args[0], ast.Subscript)
                and isinstance(node.left, ast.Name)
                and _name(right.args[0].value) == node.left.id
            ):
                sites.append(f"{rel}:{node.lineno} {node.left.id} - np.repeat({node.left.id}[...])")
    return sorted(sites), in_kernel


def test_one_gram_kernel_and_no_hand_written_run_rank():
    assert _text_kernel_copies({"snippet": ast.parse(GRAM_SNIPPET)}) == (
        ["snippet:3 * _FP_P1", "snippet:5 pos - np.repeat(pos[...])"], 0
    )
    bad, in_kernel = _text_kernel_copies(
        {path.relative_to(PKG).as_posix(): tree for path, tree in _modules().items()}
    )
    assert not bad, (
        "3-grams outside stages.text.rolling_grams, or a run rank outside "
        "stages.agg.run_position:\n" + "\n".join(bad)
    )
    assert in_kernel == 1


# the one builder of binary and string arrays from buffers: (module, function)
BINARY_BUILDER = ("stages/color_stage.py", "binary_array")
BINARY_TYPES = {"binary", "string", "utf8", "large_binary", "large_string", "large_utf8"}
BINARY_CLASSES = {
    "FixedSizeBinaryArray", "BinaryArray", "StringArray", "LargeBinaryArray", "LargeStringArray"
}

# a fixed-size pixel column cast to binary and a hand-built string
# column, which the scan must flag
BUILDER_SNIPPET = """
def pixels(px, k, offsets, data):
    fixed = pa.FixedSizeBinaryArray.from_buffers(pa.binary(3072), k, [None, pa.py_buffer(px)])
    return pa.Array.from_buffers(pa.string(), k, [None, offsets, data]), pc.cast(fixed, pa.binary())
"""


def _binary_from_buffers(modules):
    """Every ``from_buffers`` call that makes a binary or string array
    outside the builder, as "module:line"; and how many ``from_buffers``
    calls the builder makes."""
    sites, in_builder = [], 0
    for rel, tree in modules.items():
        builder = {
            id(n)
            for f in ast.walk(tree)
            if isinstance(f, ast.FunctionDef) and (rel, f.name) == BINARY_BUILDER
            for n in ast.walk(f)
        }
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and _name(node.func) == "from_buffers"):
                continue
            if id(node) in builder:
                in_builder += 1
                continue
            cls = _name(node.func.value)
            typ = node.args[0] if node.args else {k.arg: k.value for k in node.keywords}.get("type")
            if cls in BINARY_CLASSES or (
                cls == "Array" and isinstance(typ, ast.Call) and _name(typ.func) in BINARY_TYPES
            ):
                sites.append(f"{rel}:{node.lineno}")
    return sorted(sites), in_builder


def test_one_builder_of_binary_columns():
    assert _binary_from_buffers({"snippet": ast.parse(BUILDER_SNIPPET)}) == (
        ["snippet:3", "snippet:4"], 0
    )
    bad, in_builder = _binary_from_buffers(
        {path.relative_to(PKG).as_posix(): tree for path, tree in _modules().items()}
    )
    assert not bad, (
        "binary or string arrays built outside stages.color_stage.binary_array:\n" + "\n".join(bad)
    )
    assert in_builder == 1


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


# the one module that imports pandas: hash64 runs its siphash as a kernel
HASH_MODULE = "stages/sampling.py"
# the Dataset.to_pandas calls kept, per module: the checkpoint's two
# lineage frames (perfbench spies on Dataset.to_pandas there) and the
# CLI's print; every other driver-side result is an Arrow table (ctx.collect)
TO_PANDAS_KEPT = {"state/checkpoint.py": 2, "cli.py": 1}


def _pandas_uses(tree):
    """Every ``import pandas``, ``batch_format="pandas"``, ``.merge(``
    and ``.to_pandas(`` call in ``tree``, as (line, what)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "pandas" for a in node.names):
            yield node.lineno, "import pandas"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "pandas":
            yield node.lineno, "from pandas import"
        elif isinstance(node, ast.Call):
            if isinstance(node.func, ast.Attribute) and node.func.attr in ("merge", "to_pandas"):
                yield node.lineno, f".{node.func.attr}("
            for k in node.keywords:
                if k.arg == "batch_format" and getattr(k.value, "value", None) == "pandas":
                    yield node.lineno, 'batch_format="pandas"'


def test_the_engine_uses_no_pandas_but_the_hash_kernel():
    snippet = (
        'import pandas as pd\n'
        'ds.map_batches(lambda b: b.merge(s, on="k"), batch_format="pandas").to_pandas()\n'
    )
    assert sorted(_pandas_uses(ast.parse(snippet))) == [
        (1, "import pandas"), (2, ".merge("), (2, ".to_pandas("), (2, 'batch_format="pandas"')
    ]
    modules = {path.relative_to(PKG).as_posix(): tree for path, tree in _modules().items()}
    kernel = modules.pop(HASH_MODULE)
    uses = [(rel, line, what) for rel, tree in modules.items() for line, what in _pandas_uses(tree)]
    to_pandas = Counter(rel for rel, _, what in uses if what == ".to_pandas(")
    bad = [
        f"{rel}:{line} {what}"
        for rel, line, what in uses
        if what != ".to_pandas(" or to_pandas[rel] > TO_PANDAS_KEPT.get(rel, 0)
    ]
    assert not bad, "pandas outside the hash kernel (use Arrow):\n" + "\n".join(bad)
    assert [what for _, what in _pandas_uses(kernel)] == ["import pandas"]


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
