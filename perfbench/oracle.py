"""Expected outputs, computed without the engine's exchanges, and digests.

Each workload's result is checked by row count and an order-independent
content digest against values computed once per seed here:

* tiles: page coordinates from ``sources.pages.page_coords_microdeg``,
  tile and pixel from ``spatial.mercator_tile``/``tile_pixel``, one
  ``np.unique`` histogram, the render contract of ``render_tiles_sql``
  (log-density, occupancy, density % 256), then the color program by
  direct math (``to_math_type`` -> ops -> ``scale_dtype``) over each
  distinct band tuple. No sort, no LUT, no dictionary path.
* curate_corpus: its DuckDB twin ``curate_corpus_sql``.
* near_dup_pairs_minhash: a serial chain of public kernels
  (``synth_pages_batch`` -> ``MinHashStage`` -> band segments ->
  ``jaccard``); the DuckDB twin takes minutes at this size.
* dedup_clusters: ``fingerprint_keys_batch`` then serial min-label
  propagation over the whole doc-key graph.
"""

import numpy as np
import pandas as pd
import pyarrow as pa

_U64 = np.uint64
_MASK_KEY = 0x9E3779B97F4A7C15


def splitmix64(x: np.ndarray) -> np.ndarray:
    z = np.asarray(x).astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        z += _U64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
    return z ^ (z >> _U64(31))


def _column_hash(col) -> np.ndarray:
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_integer(col.type):
        v = col.to_numpy(zero_copy_only=False).astype(np.int64)
        return splitmix64(v.view(np.uint64))
    if pa.types.is_string(col.type) or pa.types.is_large_string(col.type) or pa.types.is_binary(
        col.type
    ) or pa.types.is_large_binary(col.type):
        if col.null_count:
            raise ValueError("digest: null values in a checked column")
        return pd.util.hash_array(np.asarray(col.to_pylist(), dtype=object))
    raise TypeError(f"digest: unsupported column type {col.type}")


def digest(table: pa.Table, columns) -> tuple:
    """(rows, 16-hex digest): the wrapping sum of one hash per row.

    Row order and block layout do not matter; a changed, dropped,
    duplicated or swapped cell changes the digest.
    """
    h = np.full(table.num_rows, _MASK_KEY, dtype=np.uint64)
    for i, name in enumerate(columns):
        with np.errstate(over="ignore"):
            h = splitmix64(h ^ _column_hash(table.column(name)) ^ _U64(i + 1))
    with np.errstate(over="ignore"):
        total = h.sum(dtype=np.uint64) if len(h) else _U64(0)
    return table.num_rows, f"{int(total):016x}"


# --- tiles ------------------------------------------------------------------

TILE_COLUMNS = ("tile_id", "z", "x", "y", "band_count", "dtype", "width", "height", "pixels")


def page_points(docs: pa.Table, replicate: int):
    """(lat, lon) of every page of ``pages(sf_dir, replicate)``."""
    from rio_color_ray.sources.pages import REP_STRIDE, page_coords_microdeg

    ids = docs.column("doc_id").to_numpy()
    ids = np.concatenate([ids + r * REP_STRIDE for r in range(replicate)])
    lat_u, lon_u = page_coords_microdeg(ids)
    return lat_u / 1e6, lon_u / 1e6


def tile_pixel_counts(lat, lon, z, tile_size=32):
    """Per-tile dense pixel histograms: (xt, yt, counts[tiles, px])."""
    from rio_color_ray.spatial import mercator_tile, tile_pixel

    xt, yt = mercator_tile(lat, lon, z)
    row, col = tile_pixel(lat, lon, z, xt, yt, tile_size)
    npix = tile_size * tile_size
    tkey = (xt.astype(np.int64) << 22) | yt.astype(np.int64)
    utile, tinv = np.unique(tkey, return_inverse=True)
    counts = np.zeros((len(utile), npix), dtype=np.int64)
    np.add.at(counts, (tinv, row.astype(np.int64) * tile_size + col), 1)
    ux = (utile >> 22).astype(np.int64)
    uy = (utile & ((1 << 22) - 1)).astype(np.int64)
    return ux, uy, counts


def render_bands(counts: np.ndarray) -> np.ndarray:
    """The render contract: (..., px) counts -> (3, ..., px) uint8 bands."""
    b0 = np.clip(np.round(32.0 * np.log2(1.0 + counts)), 0, 255).astype(np.uint8)
    b1 = np.where(counts > 0, 255, 0).astype(np.uint8)
    b2 = (counts % 256).astype(np.uint8)
    return np.stack([b0, b1, b2])


def color_direct(bands: np.ndarray, ops: str, out_dtype="uint8") -> np.ndarray:
    """The color program by direct math over a (3, h, w) array."""
    from rio_color_ray.color import parse_operations, scale_dtype, to_math_type

    arr = to_math_type(bands)
    for fn in parse_operations(ops):
        arr = fn(arr)
    return scale_dtype(arr, out_dtype)


def reference_tiles(docs: pa.Table, replicate: int, z: int, ops: str):
    """Expected color-corrected tiles: a table of TILE_COLUMNS, and the
    rendered (pre-color) pixels as (tiles, 3, 32, 32) uint8."""
    from .inputs import TILE_SIZE

    lat, lon = page_points(docs, replicate)
    ux, uy, counts = tile_pixel_counts(lat, lon, z, TILE_SIZE)
    # every pixel's bands are a function of its count: color each
    # distinct count once, then gather
    uniq, inv = np.unique(counts, return_inverse=True)
    inv = inv.reshape(counts.shape)
    bands_u = render_bands(uniq)  # (3, U)
    colored_u = color_direct(bands_u[:, :, None], ops)[:, :, 0]  # (3, U)
    n = len(ux)
    rendered = bands_u[:, inv].transpose(1, 0, 2).reshape(n, 3, TILE_SIZE, TILE_SIZE)
    colored = colored_u[:, inv].transpose(1, 0, 2).reshape(n, 3 * TILE_SIZE * TILE_SIZE)
    table = pa.table(
        {
            "tile_id": pa.array([f"{z}/{x}/{y}" for x, y in zip(ux.tolist(), uy.tolist())], pa.string()),
            "z": pa.array(np.full(n, z, dtype=np.int32)),
            "x": pa.array(ux.astype(np.int32)),
            "y": pa.array(uy.astype(np.int32)),
            "band_count": pa.array(np.full(n, 3, dtype=np.uint8)),
            "dtype": pa.array(["uint8"] * n, pa.string()),
            "width": pa.array(np.full(n, TILE_SIZE, dtype=np.int32)),
            "height": pa.array(np.full(n, TILE_SIZE, dtype=np.int32)),
            "pixels": pa.array([r.tobytes() for r in colored], pa.binary()),
        }
    )
    return table, np.ascontiguousarray(rendered)


# --- corpus -----------------------------------------------------------------

CURATE_COLUMNS = ("doc_id", "lang", "n_tokens", "quality_ppm", "split")
PAIR_COLUMNS = ("url_a", "url_b")
CLUSTER_COLUMNS = ("doc_id", "cluster_id")


def reference_curate(docs: pa.Table) -> pa.Table:
    import duckdb

    from rio_color_ray.pipelines.curate import curate_corpus_sql

    con = duckdb.connect()
    try:
        con.execute("SET threads=2")
        con.register("documents", docs)
        return con.sql(curate_corpus_sql()).arrow()
    finally:
        con.close()


def pages_table(docs: pa.Table, replicate: int) -> pa.Table:
    from rio_color_ray.sources.pages import synth_pages_batch

    src = docs.select(["doc_id", "source", "text", "lang"])
    return pa.concat_tables([synth_pages_batch(src, replica=r) for r in range(replicate)])


def candidate_pairs(bands: pa.Table) -> pd.DataFrame:
    """Distinct (id_a, id_b) sharing a (band, band_hash): the rule of
    ``stages.dedup.candidate_pairs_from_bands``, star cap included."""
    from rio_color_ray.stages.dedup import MAX_BUCKET_PAIRS_IDS

    d = (
        bands.to_pandas()
        .drop_duplicates(["band", "band_hash", "id"])
        .sort_values(["band", "band_hash", "id"], kind="mergesort")
    )
    ids = d["id"].to_numpy()
    bd, bh = d["band"].to_numpy(), d["band_hash"].to_numpy()
    new = np.ones(len(d), dtype=bool)
    new[1:] = (bd[1:] != bd[:-1]) | (bh[1:] != bh[:-1])
    starts = np.flatnonzero(new)
    ends = np.append(starts[1:], len(d))
    outs_a, outs_b = [], []
    for s, e in zip(starts, ends):
        c = e - s
        if c < 2:
            continue
        u = ids[s:e]
        if c > MAX_BUCKET_PAIRS_IDS:
            outs_a.append(np.repeat(u[:1], c - 1))
            outs_b.append(u[1:])
        else:
            ia, ib = np.triu_indices(c, k=1)
            outs_a.append(u[ia])
            outs_b.append(u[ib])
    if not outs_a:
        return pd.DataFrame({"id_a": [], "id_b": []})
    pairs = pd.DataFrame({"id_a": np.concatenate(outs_a), "id_b": np.concatenate(outs_b)})
    return pairs.drop_duplicates(ignore_index=True)


def reference_near_dup(docs: pa.Table, replicate=2, threshold=0.8):
    """Expected verified pairs, and the candidate-pair count."""
    from rio_color_ray.stages.dedup import MinHashStage, jaccard

    pages = pages_table(docs, replicate)
    bands = MinHashStage(id_col="url", text_col="text")(pages.select(["url", "text"]))
    cand = candidate_pairs(bands)
    text = dict(zip(pages.column("url").to_pylist(), pages.column("text").to_pylist()))
    ok = [jaccard(text[a], text[b]) >= threshold for a, b in zip(cand["id_a"], cand["id_b"])]
    ver = cand[np.asarray(ok, dtype=bool)] if len(cand) else cand
    table = pa.table(
        {
            "url_a": pa.array(ver["id_a"].tolist(), pa.string()),
            "url_b": pa.array(ver["id_b"].tolist(), pa.string()),
        }
    )
    return table, len(cand)


def min_label(nodes: np.ndarray, keys: np.ndarray) -> tuple:
    """Connected components of a node-key graph, serially: each distinct
    node with the minimum node id of its component."""
    un, ni = np.unique(nodes, return_inverse=True)
    _, ki = np.unique(keys, return_inverse=True)
    label = un[ni]
    big = np.iinfo(np.int64).max
    while True:
        kmin = np.full(ki.max() + 1, big, dtype=np.int64)
        np.minimum.at(kmin, ki, label)
        nmin = np.full(len(un), big, dtype=np.int64)
        np.minimum.at(nmin, ni, kmin[ki])
        new = nmin[ni]
        if np.array_equal(new, label):
            return un, nmin
        label = new


def reference_clusters(docs: pa.Table, k=2) -> pa.Table:
    from rio_color_ray.stages.text import fingerprint_keys_batch

    keys = fingerprint_keys_batch(docs.select(["doc_id", "text"]), k=k)
    node, cluster = min_label(
        keys.column("doc_id").to_numpy(), keys.column("key").to_numpy()
    )
    return pa.table({"doc_id": pa.array(node, pa.int64()), "cluster_id": pa.array(cluster, pa.int64())})
