"""Geospatial pipelines: pages -> geocode -> cellify -> joins -> aggregates.

Scale notes (the 100 TB design, exercised at sf scale):
* The pages source is one ``map_batches`` over the documents read — no
  materialization; blocks stream straight into geocode/cellify (also
  stateless map_batches, fused by the streaming executor).
* Aggregates pre-reduce INSIDE map_batches (one row per key per batch)
  before the ``groupby`` — the all-to-all shuffle moves partial sums, not
  pages. The salted variant additionally splits hot keys across
  ``(key, salt)`` before the final reduce (north_rule requirement).
* Region joins broadcast the small side: its index is built once per
  worker process (stages/statecache.py); no shuffle.
"""

import numpy as np
import pandas as pd
import pyarrow as pa

from ..sources.pages import REP_STRIDE, synth_pages_batch
from ..sources.polygons import make_admin_polygons, make_admin_rects
from ..stages.cellify import CELL_COLUMNS, cellify_batch
from ..stages.geocode import geocode_batch
from ..stages.pip_stage import PIPJoinStage, RectJoinStage
from ..stages.statecache import make_stage_fn


N_SALT = 16  # salt fan-out for hot-cell aggregation


def pages(sf_dir, replicate=1, links_n=0):
    """The Common-Crawl-style corpus (url, warc_ts, html, text, lang).

    ``replicate > 1`` emits that many deterministic corpus copies
    (distinct urls/coords), replica-major within each block — bench-scale
    input without external data.
    ``links_n > 0`` embeds the outbound href elements (sources/pages.py)
    used by the link-graph pipelines; off elsewhere so the geocode/tile
    path never pays for them.

    Reads through io.read_table (~1 block per CPU; rationale and
    measurements there).
    """
    from ..io import read_table

    docs = read_table(
        sf_dir,
        "documents",
        columns=["doc_id", "source", "text", "lang"],  # n_chars never used
    )

    def expand(batch: pa.Table) -> pa.Table:
        # every replica of the block in ONE synth_pages_batch call (its
        # fixed per-call cost dominates at Ray's block shape), replica-major
        # like synth_pages_batch(batch, replica=r) for r in range(replicate)
        n = batch.num_rows
        reps = batch.take(np.tile(np.arange(n), replicate))
        doc_id = reps.column("doc_id")
        offset = np.repeat(np.arange(replicate) * REP_STRIDE, n)
        reps = reps.set_column(
            reps.schema.get_field_index("doc_id"),
            "doc_id",
            pa.array(doc_id.to_numpy() + offset, doc_id.type),
        )
        return synth_pages_batch(reps, links_n=links_n)

    return docs.map_batches(expand, batch_format="pyarrow")


def cellified(sf_dir, keep_columns=None, replicate=1):
    """pages -> geocode -> cellify; optionally prune columns early. Only
    the cells in ``keep_columns`` (all without it) are computed, if any."""
    ds = pages(sf_dir, replicate=replicate).map_batches(geocode_batch, batch_format="pyarrow")
    cells = [c for c in CELL_COLUMNS if not keep_columns or c in keep_columns]
    if cells:
        ds = ds.map_batches(cellify_batch, batch_format="pyarrow", fn_kwargs={"cells": cells})
    if keep_columns:
        ds = ds.select_columns(keep_columns)
    return ds


def geocode_query(sf_dir):
    """url, lat, lon for every page (the oracle-checked geocode)."""
    return cellified(sf_dir, keep_columns=["url", "lat", "lon"])


def _partial_count(key):
    """Batch-level pre-aggregation: one (key, n) row per key per batch."""

    def agg(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch.groupby(key, as_index=False).size()
        return out.rename(columns={"size": "n"})

    return agg


def grid_cell_agg(sf_dir):
    """Pages per 0.5-deg grid cell — partial-sum, then a hash-bucket
    reduce (cell cardinality grows toward planet scale; stages/agg.py)."""
    from ..stages.agg import hash_bucket_agg

    ds = cellified(sf_dir, keep_columns=["grid_cell"])
    partial = ds.map_batches(_partial_count("grid_cell"), batch_format="pandas")
    return hash_bucket_agg(
        partial,
        "grid_cell",
        lambda df: df.groupby("grid_cell", as_index=False)["n"]
        .sum()
        .rename(columns={"n": "n_pages"}),
    )


def top_grid_cells(sf_dir, k=20):
    """Densest grid cells; deterministic tie-break on cell id.

    Partial top-k per block, not a full sort — the aggregate is
    cell-count-sized, which at planet scale is still millions of rows
    nobody wants range-partitioned for 20 survivors (stages/topk.py).
    """
    from ..stages.topk import topk_rows

    return topk_rows(
        grid_cell_agg(sf_dir), ["n_pages", "grid_cell"], [True, False], k
    )


def _salted_partial(key):
    def agg(batch: pd.DataFrame) -> pd.DataFrame:
        g = batch.groupby([key, "salt"], as_index=False).size()
        return g.rename(columns={"size": "n"})

    return agg


def cell_agg_salted(sf_dir, key="h3_r8"):
    """Hex-cell aggregation with explicit hot-key salting.

    Stage 1: add ``salt = hash(url) % N_SALT``; partial-count per
    (cell, salt) inside each batch. Stage 2: groupby (cell, salt) partial
    reduce. Stage 3: groupby cell final reduce. Hot cells (urban hotspots
    hold ~30% of pages) are spread over N_SALT reducers before the final
    tiny combine.
    """

    def add_salt(batch: pa.Table) -> pa.Table:
        urls = batch.column("url")
        h = np.asarray(
            pd.util.hash_array(np.asarray(urls.to_pylist(), dtype=object)),
            dtype=np.uint64,
        )
        return batch.append_column(
            "salt", pa.array((h % N_SALT).astype(np.int64), pa.int64())
        )

    ds = cellified(sf_dir, keep_columns=["url", key]).map_batches(
        add_salt, batch_format="pyarrow"
    )
    from ..stages.agg import hash_bucket_agg

    partial = ds.map_batches(_salted_partial(key), batch_format="pandas")
    # stage 2 spreads a hot cell's partials over N_SALT reducer keys: the
    # exchange keys on the pair [cell, salt] — keying on salt alone would
    # light up only N_SALT buckets. Both reduces run as keyed exchanges
    # (cell cardinality is planet-scale at res 8 — stages/agg.py).
    mid = hash_bucket_agg(
        partial,
        [key, "salt"],
        lambda df: df.groupby([key, "salt"], as_index=False)["n"]
        .sum()
        .rename(columns={"n": "n_mid"}),
    )
    return hash_bucket_agg(
        mid,
        key,
        lambda df: df.groupby(key, as_index=False)["n_mid"]
        .sum()
        .rename(columns={"n_mid": "n_pages"}),
    )


def cell_agg_h8(sf_dir):
    """Pages + distinct domains + language histogram per res-8 hex cell.

    Two-level exact distinct (no unbounded per-cell Python sets): batch
    partials count per (cell, domain, lang); a groupby over that triple
    collapses them to TRUE distinct combos, so the per-cell group in the
    final reduce is distinct-combo-sized — never page-sized, even for a
    hot urban cell at 100 TB. ``lang_hist`` (SURVEY §1.2) is emitted as
    the canonical sorted string ``"de:3|en:10"`` so the DuckDB oracle can
    compare it value-exactly (a map column has no stable hash encoding).
    """

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        df = batch.assign(domain=batch["url"].str.split("/").str[2])
        g = df.groupby(["h3_r8", "domain", "lang"], as_index=False).size()
        return g.rename(columns={"size": "n"})

    ds = cellified(sf_dir, keep_columns=["url", "lang", "h3_r8"])

    def combos_and_final(df: pd.DataFrame) -> pd.DataFrame:
        # all partials of a cell are co-located in this bucket: collapse
        # to TRUE distinct (cell, domain, lang) combos, then build every
        # cell's aggregate vectorized — one exchange, no per-cell Python
        d = df.groupby(["h3_r8", "domain", "lang"], as_index=False)["n"].sum()
        lh = (
            d.groupby(["h3_r8", "lang"], as_index=False)["n"]
            .sum()
            .sort_values(["h3_r8", "lang"], kind="mergesort")
        )
        kv = lh["lang"] + ":" + lh["n"].astype(str)
        hist = kv.groupby(lh["h3_r8"].to_numpy()).agg("|".join)
        base = d.groupby("h3_r8").agg(
            n_pages=("n", "sum"), n_domains=("domain", "nunique")
        )
        out = base.join(hist.rename("lang_hist")).reset_index(
            names="h3_r8"
        )
        out["n_pages"] = out["n_pages"].astype(np.int64)
        out["n_domains"] = out["n_domains"].astype(np.int64)
        return out[["h3_r8", "n_pages", "n_domains", "lang_hist"]]

    from ..stages.agg import hash_bucket_agg

    return hash_bucket_agg(
        ds.map_batches(partial, batch_format="pandas"), "h3_r8", combos_and_final
    )


def rect_join(sf_dir, mode="inner"):
    """Broadcast rectangle-region join (oracle-checkable in SQL)."""
    ds = cellified(sf_dir, keep_columns=["url", "lat", "lon"])
    out = ds.map_batches(
        make_stage_fn(RectJoinStage, make_admin_rects(), mode), batch_format="pyarrow"
    )
    if mode in ("inner", "left"):
        return out.select_columns(["url", "admin_id"])
    return out.select_columns(["url"])


def pip_join(sf_dir, mode="inner"):
    """Broadcast polygon PIP join (STRtree + exact ray-cast)."""
    ds = cellified(sf_dir, keep_columns=["url", "lat", "lon"])
    out = ds.map_batches(
        make_stage_fn(PIPJoinStage, make_admin_polygons(), mode), batch_format="pyarrow"
    )
    if mode in ("inner", "left"):
        return out.select_columns(["url", "admin_id"])
    return out.select_columns(["url"])


def cell_agg_s2(sf_dir):
    """Pages per S2-style quadsphere cell (Hilbert ids). Oracle-checked
    against the generated SQL twin ``spatial.s2.s2_cell_sql`` (the same
    projection chain + unrolled Hilbert bit walk in DuckDB)."""
    from ..stages.agg import hash_bucket_agg

    ds = cellified(sf_dir, keep_columns=["s2_cell"])
    partial = ds.map_batches(_partial_count("s2_cell"), batch_format="pandas")
    return hash_bucket_agg(
        partial,
        "s2_cell",
        lambda df: df.groupby("s2_cell", as_index=False)["n"]
        .sum()
        .rename(columns={"n": "n_pages"}),
    )
