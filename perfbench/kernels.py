"""Ray-free kernel timings over cached inputs, per unit of work.

Each layer's public batch function is called directly on the whole
cached input, outside Ray, so the fused operators' time can be split by
layer. Every timing is the median of ``REPS`` calls.
"""

import time

import numpy as np
import pyarrow as pa

REPS = 3
COLOR_TILES = 1024  # tiles timed per color path, in 128-tile batches
COLOR_BATCH = 128


def _timed(tracer, name, fn, reps=REPS):
    times, out = [], None
    for _ in range(reps):
        with tracer.span(name):
            t0 = time.perf_counter()
            out = fn()
            times.append(time.perf_counter() - t0)
    return float(np.median(times)), out


def _batches(table, size):
    return [table.slice(i, size) for i in range(0, table.num_rows, size)]


def distinct_tuple_ratio(tiles: pa.Table, batch=COLOR_BATCH) -> float:
    """Mean over batches of distinct band tuples / pixels."""
    ratios = []
    for b in _batches(tiles, batch):
        px = np.frombuffer(b"".join(b.column("pixels").to_pylist()), np.uint8)
        px = px.reshape(b.num_rows, 3, -1).transpose(1, 0, 2).reshape(3, -1)
        packed = px[0].astype(np.uint32) | (px[1].astype(np.uint32) << 8) | (px[2].astype(np.uint32) << 16)
        ratios.append(len(np.unique(packed)) / packed.size)
    return float(np.mean(ratios))


def measure(docs: pa.Table, replicate: int, density_tiles: pa.Table, continuous_tiles: pa.Table, tracer):
    """Per-unit kernel metrics and their raw counts."""
    from rio_color_ray.pipelines.tiles import BAND_UNIFORM_OPS, DEFAULT_OPS
    from rio_color_ray.sources.pages import synth_pages_batch
    from rio_color_ray.sources.polygons import make_admin_polygons
    from rio_color_ray.stages.cellify import cellify_batch
    from rio_color_ray.stages.color_stage import ColorStage
    from rio_color_ray.stages.dedup import MinHashStage
    from rio_color_ray.stages.geocode import geocode_batch
    from rio_color_ray.stages.pip_stage import PIPJoinStage

    m = {}
    src = docs.select(["doc_id", "source", "text", "lang"])
    with tracer.span("kernels"):
        t, pages = _timed(
            tracer, "sources.pages.synth_pages_batch",
            lambda: pa.concat_tables([synth_pages_batch(src, replica=r) for r in range(replicate)]),
        )
        n_pages = pages.num_rows
        m["sources.pages.us_per_page"] = 1e6 * t / n_pages

        t, geo = _timed(tracer, "stages.geocode.geocode_batch", lambda: geocode_batch(pages))
        m["stages.geocode.us_per_page"] = 1e6 * t / n_pages
        m["stages.geocode.hit_ratio"] = 1.0 - geo.column("lat").null_count / n_pages

        t, cells = _timed(tracer, "stages.cellify.cellify_batch", lambda: cellify_batch(geo))
        m["stages.cellify.us_per_page"] = 1e6 * t / n_pages

        pts = cells.select(["url", "lat", "lon"])
        polys = make_admin_polygons()
        left = PIPJoinStage(polys, "left")
        t, _ = _timed(tracer, "stages.pip_stage.PIPJoinStage", lambda: left(pts))
        m["stages.pip_stage.us_per_point"] = 1e6 * t / n_pages
        cand_pts, _ = left.tree.query_points(
            pts.column("lon").to_numpy(), pts.column("lat").to_numpy()
        )
        hits = PIPJoinStage(polys, "inner")(pts).num_rows
        m["spatial.rtree.candidates_per_point"] = len(cand_pts) / n_pages
        m["stages.pip_stage.hit_ratio"] = hits / max(len(cand_pts), 1)

        lut_stage, full_stage = ColorStage(BAND_UNIFORM_OPS), ColorStage(DEFAULT_OPS)
        for path, stage, tiles in (
            ("lut", lut_stage, density_tiles),
            ("dict", full_stage, density_tiles),
            ("full", full_stage, continuous_tiles),
        ):
            batches = _batches(tiles.slice(0, COLOR_TILES), COLOR_BATCH)
            n_tiles = sum(b.num_rows for b in batches)
            t, _ = _timed(
                tracer, f"stages.color_stage.ColorStage.{path}",
                lambda: [stage(b) for b in batches],
            )
            m[f"stages.color_stage.us_per_tile.{path}"] = 1e6 * t / n_tiles
        m["stages.color_stage.distinct_tuple_ratio"] = distinct_tuple_ratio(
            density_tiles.slice(0, COLOR_TILES)
        )

        mh = MinHashStage(id_col="url", text_col="text")
        texts = pages.column("text")
        t, _ = _timed(tracer, "stages.dedup.MinHashStage.signatures", lambda: mh.signatures(texts))
        m["stages.dedup.minhash.us_per_doc"] = 1e6 * t / n_pages
    return m


def map_chain_kernel_us_per_page(m):
    """Kernel time per page of the fused read -> PIP map operator."""
    return (
        m["sources.pages.us_per_page"] + m["stages.geocode.us_per_page"]
        + m["stages.cellify.us_per_page"] + m["stages.pip_stage.us_per_point"]
    )
