"""Distributed PageRank vs its unrolled-CTE DuckDB twin."""

import numpy as np
import pytest

from conftest import SF_SMOKE as SF
from conftest import duckdb_con, oracle_check


@pytest.fixture(scope="module")
def con():
    return duckdb_con()


def test_pagerank_matches_sql_twin(ray_session, con):
    from rio_color_ray.pipelines import graph

    out = oracle_check(graph.pagerank(SF), con, graph.pagerank_sql())
    # the skewed link maps must actually produce a skewed rank vector
    # (a permutation graph degenerates to uniform ranks — see link_dsts)
    assert out["rank"].nunique() > 100
    assert out["rank"].max() > 5 * out["rank"].min()
    # the oracle must hand the driver int64, not HUGEINT-degraded float64
    assert str(con.sql(graph.pagerank_sql()).df()["rank"].dtype) == "int64"


def test_pagerank_matches_local_reference(ray_session):
    """5 iterations on the exact dense reference recurrence (pure numpy,
    no Ray, no SQL) — guards both engines against a shared mistake."""
    from rio_color_ray.io import table_num_rows
    from rio_color_ray.pipelines import graph
    from rio_color_ray.sources.pages import link_dsts

    n = table_num_rows(SF, "documents")
    rank = np.full(n, graph.RANK_UNIT, np.int64)
    src = np.arange(n, dtype=np.int64)
    for _ in range(graph.N_ITER):
        inc = np.zeros(n, np.int64)
        share = rank // graph.FANOUT
        for dst in link_dsts(src, n):
            np.add.at(inc, dst, share)
        rank = graph.BASE + (graph.DAMP_NUM * inc) // graph.DAMP_DEN
    out = graph.pagerank(SF).to_pandas().sort_values("doc_id")
    assert np.array_equal(out["rank"].to_numpy(), rank)


def test_pagerank_single_iteration_base_case(ray_session):
    """After one iteration a node's rank is BASE + damped floor-shares
    of its in-links — in-degree times the uniform share."""
    from rio_color_ray.io import table_num_rows
    from rio_color_ray.pipelines import graph
    from rio_color_ray.sources.pages import link_dsts

    n = table_num_rows(SF, "documents")
    out = (
        graph.pagerank(SF, n_iter=1).to_pandas().set_index("doc_id")["rank"]
    )
    src = np.arange(n, dtype=np.int64)
    share = graph.RANK_UNIT // graph.FANOUT
    indeg = np.zeros(n, np.int64)
    for dst in link_dsts(src, n):
        np.add.at(indeg, dst, 1)
    expect = graph.BASE + (graph.DAMP_NUM * indeg * share) // graph.DAMP_DEN
    assert np.array_equal(out.sort_index().to_numpy(), expect)


def test_extract_links_matches_link_maps(ray_session):
    """The hrefs parsed back out of the html equal the synthesis-side
    link maps — the crawl-extraction half of pagerank_edges."""
    import pandas as pd

    from rio_color_ray.io import table_num_rows
    from rio_color_ray.pipelines import web
    from rio_color_ray.sources.pages import link_dsts

    n = table_num_rows(SF, "documents")
    got = (
        web.extract_links(SF)
        .to_pandas()
        .sort_values(["src", "dst"])
        .reset_index(drop=True)
    )
    src = np.arange(n, dtype=np.int64)
    expect = (
        pd.DataFrame(
            {
                "src": np.repeat(src, 3),
                "dst": np.stack(link_dsts(src, n), axis=1).ravel(),
            }
        )
        .sort_values(["src", "dst"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, expect)


def test_pagerank_edges_matches_sql_twin(ray_session, con):
    """The bucketed-hash-join iteration over the EXTRACTED edge table
    lands on the identical fixed point as the oracle (and therefore as
    the arithmetic flat-map pipeline, which shares that oracle)."""
    from rio_color_ray.pipelines import graph

    out = oracle_check(graph.pagerank_edges(SF), con, graph.pagerank_sql())
    assert out["rank"].nunique() > 100


def test_link_maps_guard_overflow_unsafe_sizes():
    """link_dsts must refuse node counts where the quadratic map would
    wrap int64 on the numpy side while DuckDB raises (ADVICE r04)."""
    from rio_color_ray.sources.pages import LINK_MAX_NODES, link_dsts

    src = np.arange(4, dtype=np.int64)
    with pytest.raises(ValueError, match="overflow"):
        link_dsts(src, LINK_MAX_NODES)
    with pytest.raises(ValueError, match="overflow"):
        link_dsts(np.array([LINK_MAX_NODES + 1], np.int64), 10)
