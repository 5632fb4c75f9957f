"""Link-graph analytics over the pages corpus: distributed PageRank.

The canonical iterative web-graph algorithm, used in crawl pipelines as
a per-page quality/priority weight. Exact INTEGER fixed point (micro
rank units, floor division) so every engine computes bit-identical
ranks regardless of summation order — the same trick label_centroids
uses (Q20) to make a float-ish aggregate driver-hashable.

Graph: each page links to ``FANOUT`` deterministic targets (an affine
permutation, a 3-to-1 collapsing map, and a quadratic map — see
``sources.pages.link_dsts``/``_link_sql``), giving an in-degree distribution with
hubs and orphans like a real href graph, derivable from doc_id alone.
Two pipelines share the fixed point (and therefore one oracle):

* :func:`pagerank` exploits the determinism — contributions come from
  a stateless flat-map over the CURRENT rank table (no edge
  materialization, no join; dst is arithmetic on src), so one
  iteration is exactly ONE keyed exchange of (dst, contribution)
  int64 pairs + a bucketed sum, each moving 2 x FANOUT x n_nodes
  int64s independent of text/html size.
* :func:`pagerank_edges` is the crawl-shaped path (VERDICT r04 #4):
  the hrefs are EXTRACTED from the page html into a ``links(src,
  dst)`` table (pipelines/web.py), and each iteration routes the rank
  table through the engine's bucketed hash join against those edges —
  the data path a production pipeline ranks over.

Rank update (PageRank, damping 0.85, uniform base, all integer):
    rank_0(v)     = RANK_UNIT
    rank_{k+1}(v) = (15 * RANK_UNIT) // 100
                    + (85 * sum_{u -> v}(rank_k(u) // FANOUT)) // 100

Dangling mass lost to floor division is deterministic on both engines;
nodes with no in-links keep the base term via a zero self-contribution
emitted per node.
"""

import numpy as np
import pyarrow as pa

from ..io import read_table, table_num_rows
from ..sources.pages import LINK_FANOUT, link_dsts
from ..stages.agg import keyed_agg

RANK_UNIT = 1_000_000
DAMP_NUM, DAMP_DEN = 85, 100
BASE = (100 - DAMP_NUM) * RANK_UNIT // DAMP_DEN  # 150_000
FANOUT = LINK_FANOUT
N_ITER = 5


# the link maps live in sources/pages.py (link_dsts): they are part of
# corpus synthesis now — synth_pages_batch(links_n=n) embeds them as
# <link href="/doc/D"> elements, web.extract_links parses them back out,
# and pagerank_edges ranks over the EXTRACTED table. link_dsts raises
# past the int64-overflow-safe node count (~2^26: the quadratic map
# squares doc_id; numpy would wrap silently where DuckDB raises).
def _link_sql(n_expr: str) -> list[str]:
    """The same three maps as SQL dst expressions over column src;
    ``n_expr`` is the node-count SQL expression (a CTE column, so the
    oracle string is scale-independent)."""
    return [
        f"(src * 31 + 7) % {n_expr}",
        f"((src // 3) * 97 + 13) % {n_expr}",
        f"(src * src + 29) % {n_expr}",
    ]


def _damped(batch: pa.Table) -> pa.Table:
    """A node's summed in-flow ``c`` -> its damped rank."""
    c = batch.column("c").to_numpy()
    return pa.table({"doc_id": batch.column("doc_id"), "rank": BASE + DAMP_NUM * c // DAMP_DEN})


def _next_rank(contribs):
    """(doc_id, c) contributions -> (doc_id, rank): one keyed sum."""
    return keyed_agg(contribs, "doc_id", {"c": "sum"}).map_batches(_damped, batch_format="pyarrow")


def pagerank(sf_dir, n_iter=N_ITER):
    """(doc_id, rank) after ``n_iter`` exact fixed-point iterations.

    One lazy Dataset DAG: n_iter chained flat-map -> bucketed-sum
    rounds over int64 pairs; the pages corpus itself is touched once.
    """
    n = table_num_rows(sf_dir, "documents")

    ds = read_table(sf_dir, "documents", columns=["doc_id"]).map_batches(
        lambda b: pa.table(
            {
                "doc_id": b.column("doc_id"),
                "rank": pa.array(
                    np.full(b.num_rows, RANK_UNIT, np.int64), pa.int64()
                ),
            }
        ),
        batch_format="pyarrow",
    )

    def contribs(batch: pa.Table) -> pa.Table:
        src = batch.column("doc_id").to_numpy()
        rank = batch.column("rank").to_numpy()
        share = rank // FANOUT
        dsts = link_dsts(src, n)
        # zero self-row keeps no-inlink nodes in the domain
        dst = np.concatenate(dsts + [src])
        c = np.concatenate([share] * FANOUT + [np.zeros(len(src), np.int64)])
        return pa.table(
            {
                "doc_id": pa.array(dst.astype(np.int64), pa.int64()),
                "c": pa.array(c.astype(np.int64), pa.int64()),
            }
        )

    for _ in range(n_iter):
        ds = _next_rank(ds.map_batches(contribs, batch_format="pyarrow"))
    return ds


def pagerank_edges(sf_dir, n_iter=N_ITER):
    """PageRank over a REAL extracted edge table (same fixed point as
    :func:`pagerank`, so the same unrolled-CTE oracle verifies it).

    The crawl-shaped path: ``web.extract_links`` parses the hrefs out of
    the page html into ``links(src, dst)``; each iteration joins the
    current rank table against those edges through the engine's bucketed
    hash join (stages/join.py) and pre-reduces contributions per batch
    before the keyed sum — the data path a production crawl ranks over,
    replacing the arithmetic flat-map of :func:`pagerank`.

    Scale shape:
    * The edge table is materialized ONCE — int64 pairs, ~16 bytes/edge,
      the working set every distributed PageRank keeps partition-resident
      across iterations (re-deriving it would re-parse the html corpus
      n_iter times). The page corpus itself streams through exactly one
      extraction pass.
    * One iteration = one bucketed join exchange (edges + rank rows,
      co-located by their ``doc_id`` bucket) + one keyed partial-sum
      exchange of (dst, contribution) int64 pairs. No-inlink nodes stay
      in the domain via zero self-rows emitted from the join output
      (every node has FANOUT out-edges, so every node appears as a src).
    * The rank side of the join ends in an aggregation, so its schema is
      declared explicitly — the probe would otherwise execute the whole
      upstream plan (stages/join.py docstring).
    """
    from ..stages.join import bucketed_hash_join
    from .web import extract_links

    links = (
        extract_links(sf_dir)
        .map_batches(
            lambda b: b.rename_columns(["doc_id", "dst"]), batch_format="pyarrow"
        )
        .materialize()
    )

    rank = read_table(sf_dir, "documents", columns=["doc_id"]).map_batches(
        lambda b: pa.table(
            {
                "doc_id": b.column("doc_id"),
                "rank": pa.array(np.full(b.num_rows, RANK_UNIT, np.int64), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )

    i64 = pa.int64()
    links_schema = {"doc_id": i64, "dst": i64}
    rank_schema = {"doc_id": i64, "rank": i64}

    def contribs(batch: pa.Table) -> pa.Table:
        """Joined (doc_id=src, dst, rank) rows -> per-batch PARTIAL sums
        of (dst, rank//FANOUT), plus zero self-rows keeping every src in
        the domain. Vectorized np.unique + np.add.at combine: the keyed
        exchange moves one row per distinct dst per batch."""
        src = batch.column("doc_id").to_numpy()
        dst = batch.column("dst").to_numpy()
        rank_v = batch.column("rank").to_numpy()
        keys = np.concatenate([dst, src])
        vals = np.concatenate([rank_v // FANOUT, np.zeros(len(src), np.int64)])
        uniq, inv = np.unique(keys, return_inverse=True)
        sums = np.zeros(len(uniq), np.int64)
        np.add.at(sums, inv, vals)
        return pa.table(
            {"doc_id": pa.array(uniq, i64), "c": pa.array(sums, i64)}
        )

    for _ in range(n_iter):
        joined = bucketed_hash_join(
            links,
            rank,
            "doc_id",
            left_schema=links_schema,
            right_schema=rank_schema,
        )
        rank = _next_rank(joined.map_batches(contribs, batch_format="pyarrow"))
    return rank


def pagerank_sql(n_iter=N_ITER) -> str:
    """The same iterations unrolled as chained CTEs (all integer math;
    scale-independent — the node count comes from a scalar CTE)."""
    edge_union = " UNION ALL ".join(
        f"SELECT src, {expr} AS dst "
        f"FROM (SELECT doc_id AS src FROM documents), nn"
        for expr in _link_sql("nn.c")
    )
    ctes = [
        "nn AS (SELECT count(*) AS c FROM documents)",
        f"edges AS ({edge_union})",
        f"r0 AS (SELECT doc_id, CAST({RANK_UNIT} AS BIGINT) AS rank FROM documents)",
    ]
    for k in range(n_iter):
        ctes.append(
            # CAST the summed in-flow back to BIGINT: DuckDB's SUM over
            # BIGINT yields HUGEINT, which .df() renders as float64 and
            # would spuriously fail the driver's value-hash against the
            # Ray side's int64 (same convention as every other twin)
            f"""r{k + 1} AS (
  SELECT d.doc_id,
         {BASE} + ({DAMP_NUM} * COALESCE(s.inc, 0)) // {DAMP_DEN} AS rank
  FROM documents d
  LEFT JOIN (
    SELECT e.dst AS doc_id, CAST(SUM(r.rank // {FANOUT}) AS BIGINT) AS inc
    FROM edges e JOIN r{k} r ON e.src = r.doc_id
    GROUP BY e.dst
  ) s ON d.doc_id = s.doc_id
)"""
        )
    return "WITH " + ",\n".join(ctes) + f"\nSELECT doc_id, rank FROM r{n_iter}"
