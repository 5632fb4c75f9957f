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

from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..ctx import bucket_exchange
from ..sources.pages import REP_STRIDE, synth_pages_batch
from ..sources.polygons import make_admin_polygons, make_admin_rects
from ..stages.cellify import CELL_COLUMNS, cellify_batch
from ..stages.geocode import geocode_batch
from ..stages.pip_stage import PIPJoinStage, RectJoinStage
from ..stages.sampling import hash64
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

    One ``map_batches`` of :func:`expand_pages` over :func:`page_docs`.
    """
    expand = partial(expand_pages, replicate=replicate, links_n=links_n)
    return page_docs(sf_dir).map_batches(expand, batch_format="pyarrow")


def page_docs(sf_dir):
    """The documents columns a page is made of, read through
    io.read_table (one block per CPU; rationale and measurements there)."""
    from ..io import read_table

    # n_chars never used
    return read_table(sf_dir, "documents", columns=["doc_id", "source", "text", "lang"])


def expand_pages(batch: pa.Table, replicate=1, links_n=0) -> pa.Table:
    """A :func:`page_docs` block -> its pages, ``replicate`` copies.

    Every replica of the block in ONE synth_pages_batch call (its fixed
    per-call cost dominates at Ray's block shape), replica-major like
    ``synth_pages_batch(batch, replica=r) for r in range(replicate)``.
    """
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


def geocode_steps(replicate=1):
    """:func:`pages` and ``geocode_batch`` as the Arrow functions that map
    a :func:`page_docs` block to geocoded pages, for a map chain that
    runs them inside one function (``pipelines.tiles.tile_chain``)."""
    return (partial(expand_pages, replicate=replicate), geocode_batch)


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


def _count_pages(ds, key):
    """Pages per ``key``: a keyed sum of ones, combined inside every map
    block before the exchange (stages/agg.py)."""
    from ..stages.agg import keyed_agg

    return keyed_agg(ds.map_batches(_ones, batch_format="pyarrow"), key, {"n_pages": "sum"})


def _ones(batch: pa.Table) -> pa.Table:
    return batch.append_column("n_pages", pa.array(np.ones(batch.num_rows, np.int64)))


def grid_cell_agg(sf_dir):
    """Pages per 0.5-deg grid cell — partial-sum, then a hash-bucket
    reduce (cell cardinality grows toward planet scale; stages/agg.py)."""
    return _count_pages(cellified(sf_dir, keep_columns=["grid_cell"]), "grid_cell")


def top_grid_cells(sf_dir, k=20):
    """Densest grid cells; deterministic tie-break on cell id.

    A global keyed top-k, not a full sort — the aggregate is
    cell-count-sized, which at planet scale is still millions of rows
    nobody wants range-partitioned for 20 survivors; the top-k's
    combiner cuts every block to k rows before its one exchange
    (stages/agg.py).
    """
    from ..stages.agg import keyed_topk

    order = [("n_pages", "descending"), ("grid_cell", "ascending")]
    return keyed_topk(grid_cell_agg(sf_dir), [], order, k).select_columns(["grid_cell", "n_pages"])


def cell_agg_salted(sf_dir, key="h3_r8"):
    """Hex-cell aggregation with explicit hot-key salting.

    Add ``salt = hash(url) % N_SALT``, count per (cell, salt), then sum
    per cell. ``keyed_agg``'s combiner already bounds a hot cell (urban
    hotspots hold ~30% of pages) to one row per block, so the salt level
    buys no skew protection; it stays as the salted aggregate shuffle
    BASELINE.json's north star names, at the cost of a second exchange:
    0.212 s against 0.141 s for one keyed count on the cell, same output
    (sf0.1, 4-CPU session, median of 6).
    """

    def add_salt(batch: pa.Table) -> pa.Table:
        h = hash64(batch.column("url"))
        return batch.append_column(
            "salt", pa.array((h % N_SALT).astype(np.int64), pa.int64())
        )

    ds = cellified(sf_dir, keep_columns=["url", key]).map_batches(
        add_salt, batch_format="pyarrow"
    )
    # stage 2 spreads a hot cell's partials over N_SALT reducer keys: the
    # exchange keys on the pair [cell, salt] — keying on salt alone would
    # light up only N_SALT buckets. Both reduces run as keyed exchanges
    # (cell cardinality is planet-scale at res 8 — stages/agg.py).
    from ..stages.agg import keyed_agg

    mid = _count_pages(ds, [key, "salt"])
    return keyed_agg(mid, key, {"n_pages": "sum"})


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

    def partial(batch: pa.Table) -> pa.Table:
        domain = pc.list_element(pc.split_pattern(batch.column("url"), "/"), 2)
        combos = batch.select(["h3_r8", "lang"]).append_column("domain", domain)
        g = combos.group_by(["h3_r8", "domain", "lang"], use_threads=False).aggregate([([], "count_all")])
        return g.select(["h3_r8", "domain", "lang", "count_all"]).rename_columns(["h3_r8", "domain", "lang", "n"])

    ds = cellified(sf_dir, keep_columns=["url", "lang", "h3_r8"])

    def combos_and_final(block: pa.Table) -> pa.Table:
        # all partials of a cell are co-located in this bucket: collapse
        # to TRUE distinct (cell, domain, lang) combos, then build every
        # cell's aggregate vectorized — one exchange, no per-cell Python
        d = block.group_by(["h3_r8", "domain", "lang"], use_threads=False).aggregate([("n", "sum")])
        base = (
            d.group_by("h3_r8", use_threads=False)
            .aggregate([("n_sum", "sum"), ("domain", "count_distinct")])
            .sort_by("h3_r8")
        )
        lh = (
            d.group_by(["h3_r8", "lang"], use_threads=False)
            .aggregate([("n_sum", "sum")])
            .sort_by([("h3_r8", "ascending"), ("lang", "ascending")])
        )
        kv = pc.binary_join_element_wise(lh["lang"], lh["n_sum_sum"].cast(pa.string()), ":")
        # single-threaded, a list aggregate keeps its input order, so each
        # cell's "lang:n" entries stay sorted by lang
        hist = (
            pa.table({"h3_r8": lh["h3_r8"], "kv": kv})
            .group_by("h3_r8", use_threads=False)
            .aggregate([("kv", "list")])
            .sort_by("h3_r8")
        )
        return pa.table(
            {
                "h3_r8": base["h3_r8"],
                "n_pages": base["n_sum_sum"],
                "n_domains": base["domain_count_distinct"],
                "lang_hist": pc.binary_join(hist["kv_list"], "|"),
            }
        )

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return bucket_exchange(partials, "h3_r8", combos_and_final)


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
    return _count_pages(cellified(sf_dir, keep_columns=["s2_cell"]), "s2_cell")
