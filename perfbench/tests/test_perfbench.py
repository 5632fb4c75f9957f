"""Benchmark self-tests: seeded inputs, output checks, metric names.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
No Ray session is started.
"""

import json
import os
import sys

import numpy as np
import pyarrow as pa
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

from perfbench import harness, inputs, oracle, reference, run, workloads  # noqa: E402
from rio_color_ray.sources.pages import REP_STRIDE  # noqa: E402

N = 300


def test_documents_deterministic_per_seed():
    a, b = inputs.make_documents(7, N), inputs.make_documents(7, N)
    assert a.equals(b)
    assert not a.equals(inputs.make_documents(8, N))


def test_documents_shape():
    docs = inputs.make_documents(3, 2000)
    ids = docs.column("doc_id").to_numpy()
    assert len(np.unique(ids)) == len(ids) and ids.max() < REP_STRIDE
    assert set(docs.column("lang").to_pylist()) <= set(inputs.LANGS)
    assert 0.25 < inputs.hotspot_share(docs) < 0.35
    texts = docs.column("text").to_pylist()
    assert sum(t.endswith(" dup") for t in texts) > 50  # ~5% near-dups planted
    assert all(inputs.MIN_WORDS <= len(t.split()) <= inputs.MAX_WORDS + 1 for t in texts)


def test_continuous_tiles_deterministic_and_high_cardinality():
    from perfbench import kernels

    a, b = inputs.make_continuous_tiles(5, 16), inputs.make_continuous_tiles(5, 16)
    assert a.equals(b)
    assert kernels.distinct_tuple_ratio(a) > 0.5


def test_digest_ignores_order_and_chunking():
    t = pa.table({"k": pa.array([1, 2, 3], pa.int64()), "v": ["a", "b", "c"]})
    shuffled = pa.concat_tables([t.slice(2), t.slice(0, 2)])
    assert oracle.digest(t, ["k", "v"]) == oracle.digest(shuffled, ["k", "v"])


def _tiles_workload(seed=4):
    from rio_color_ray.pipelines.tiles import DEFAULT_OPS

    w = workloads.TilesZ10()
    docs = inputs.make_documents(seed, N)
    table, _ = oracle.reference_tiles(docs, 1, w.z, DEFAULT_OPS)
    w.expected = {"tiles": oracle.digest(table, oracle.TILE_COLUMNS)}
    w.columns = {"tiles": oracle.TILE_COLUMNS}
    return w, table


def _set(table, name, values):
    i = table.schema.get_field_index(name)
    return table.set_column(i, name, pa.array(values, table.schema.field(name).type))


def _flip_byte(table, row):
    px = table.column("pixels").to_pylist()
    b = bytearray(px[row])
    b[len(b) // 2] ^= 1
    px[row] = bytes(b)
    return _set(table, "pixels", px)


def _swap_pixels(table):
    px = table.column("pixels").to_pylist()
    j = next(j for j in range(1, len(px)) if px[j] != px[0])
    px[0], px[j] = px[j], px[0]
    return _set(table, "pixels", px)


def _outcome(**tables):
    return workloads.Outcome(tables, 1, 1)


def test_tile_check_passes_on_reference_and_fails_on_corruption():
    w, table = _tiles_workload()
    assert w.check(_outcome(tiles=table)) == []
    x = table.column("x").to_pylist()
    for bad in (_flip_byte(table, 3), _swap_pixels(table), table.slice(1),
                pa.concat_tables([table, table.slice(0, 1)]), table.drop_columns(["dtype"]),
                _set(table, "x", [x[0] + 1] + x[1:]), _set(table, "width", [16] * table.num_rows)):
        assert w.check(_outcome(tiles=bad)), "a corrupted tile output passed the check"


def test_resume_check_fails_on_its_own_problems():
    w, table = _tiles_workload()
    outcome = workloads.Outcome({"tiles": table}, 1, 1, problems=["partitions not split"])
    assert w.check(outcome) == ["partitions not split"]


def test_reference_tiles_match_full_image_color_math():
    """The per-distinct-count color shortcut equals direct math per tile."""
    from rio_color_ray.pipelines.tiles import DEFAULT_OPS

    docs = inputs.make_documents(9, N)
    table, rendered = oracle.reference_tiles(docs, 1, 10, DEFAULT_OPS)
    for i in (0, len(rendered) // 2, len(rendered) - 1):
        want = oracle.color_direct(rendered[i].reshape(3, 32, 32), DEFAULT_OPS)
        assert table.column("pixels")[i].as_py() == want.tobytes()


@pytest.fixture(scope="module")
def corpus_reference():
    w = workloads.CorpusDedup()
    docs = inputs.make_documents(6, N)
    w.prepare(workloads.Inputs(6, "", "", docs), harness.Tracer(False, "t"))
    return w, w.reference


def test_corpus_checks_fail_on_corruption(corpus_reference):
    w, outs = corpus_reference
    assert w.check(_outcome(**outs)) == []
    assert outs["near_dup"].num_rows >= N  # every page pairs with its replica
    corrupt = {
        "curate": _set(outs["curate"], "split", ["x"] + outs["curate"].column("split").to_pylist()[1:]),
        "near_dup": outs["near_dup"].slice(1),
        "clusters": _set(
            outs["clusters"], "cluster_id", [-1] + outs["clusters"].column("cluster_id").to_pylist()[1:]
        ),
    }
    for name, bad in corrupt.items():
        assert w.check(_outcome(**{**outs, name: bad})), f"corrupted {name} passed the check"
    assert w.check(_outcome(curate=outs["curate"], near_dup=outs["near_dup"]))


def test_min_label_is_transitive():
    node, label = oracle.min_label(np.array([5, 3, 3, 9, 7]), np.array([1, 1, 2, 2, 8]))
    assert dict(zip(node.tolist(), label.tolist())) == {3: 3, 5: 3, 7: 7, 9: 3}


def test_tail_percentile():
    assert harness.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert harness.tail([float(i) for i in range(20)]) == (19.0, 100.0, 0)
    value, pct, beyond = harness.tail([float(i) for i in range(40)])
    assert beyond == 10 and value == 29.0 and pct == 75.0


def test_benchmark_json_workloads_exist():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_end_to_end_emits_every_metric():
    w, table = _tiles_workload()
    w.units = {"pages": 300, "tiles": table.num_rows}
    ledger = harness.Ledger()
    ledger.attempted = 3
    inp = workloads.Inputs(1, "", "", inputs.make_documents(1, 10))
    outcome = workloads.Outcome({}, table.num_rows, table.nbytes)
    timed = [harness.Sample(wall, 1.5 * wall, outcome) for wall in (1.0, 1.1, 1.2)]
    refs = [(reference.REF_WALL_S, reference.REF_CPU_S)] * 3
    metrics = run.end_to_end(w, inp, [5.0, 6.0], timed, refs, 2**30, ledger)
    assert {k: v["unit"] for k, v in metrics.items()} == run.E2E_UNITS
    assert all(v["value"] > 0 for v in metrics.values())
    assert metrics["wall_s"]["value"] == 1.1 and metrics["setup_s"]["value"] == 5.5


def test_end_to_end_scales_times_by_the_reference_job():
    """A host twice as slow doubles the reference times and halves the scale."""
    w, table = _tiles_workload()
    w.units = {"pages": 300, "tiles": table.num_rows}
    ledger = harness.Ledger()
    ledger.attempted = 1
    inp = workloads.Inputs(1, "", "", inputs.make_documents(1, 10))
    timed = [harness.Sample(4.0, 6.0, workloads.Outcome({}, 10, 10))]
    slow = [(2 * reference.REF_WALL_S, 2 * reference.REF_CPU_S), (2 * reference.REF_WALL_S, 0.0),
            (0.0, 2 * reference.REF_CPU_S)]
    metrics = run.end_to_end(w, inp, [8.0], timed, slow, 2**30, ledger)
    assert metrics["wall_s"]["value"] == 2.0 and metrics["setup_s"]["value"] == 4.0
    assert metrics["cpu_s"]["value"] == 3.0 and metrics["pages_per_s"]["value"] == 150.0


def test_end_to_end_reports_runs_that_all_failed():
    w, table = _tiles_workload()
    w.units = {"pages": 300, "tiles": table.num_rows}
    ledger = harness.Ledger()
    ledger.attempted, ledger.failures = 2, ["run 0: wrong", "run 1: wrong"]
    inp = workloads.Inputs(1, "", "", inputs.make_documents(1, 10))
    metrics = run.end_to_end(w, inp, [5.0], [harness.Sample(1.0, 1.5, None)] * 2, [], 2**30, ledger)
    assert set(metrics) == set(run.E2E_UNITS) and metrics["ok_ratio"]["value"] == 0
