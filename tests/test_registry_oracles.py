"""Every registry query against its oracle, value for value, at sf0.001.

Each ``queries()`` entry with an ``oracle_sql()`` twin, plus the tile
content twins at zoom 7 and 10, runs through ``conftest.oracle_check``
against DuckDB views of the same Parquet files. An entry without a
twin must be named in ``ROWS_ONLY`` with the reason, so a new query
cannot skip its oracle unnoticed. Every entry, checked or rows-only,
returns a ``ray.data.Dataset``.

sf0.001 holds few rows per key, so this is the net under every shared
exchange, not a replacement for the sf0.01 sweep of the verify skill.
"""

import pytest

from conftest import SF_SMOKE, duckdb_con, oracle_check

TABLES = (
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
)

# entry -> why it has no value oracle of its own
ROWS_ONLY = {
    "render_tiles": "binary pixels; the same bytes are checked as hex by render_tiles_content",
    "color_tiles": "binary pixels; the same bytes are checked as hex by color_tiles_content",
    "ann_topk_ivf": (
        "approximate (probes a subset of cells); ann_topk_ivf_fullprobe is the exact twin "
        "and test_corpus.py::test_ann_ivf_recall_vs_brute bounds the recall"
    ),
    "embedding_near_dup": (
        "approximate LSH configuration; embedding_near_dup_exact is the exact twin"
    ),
}


def _cases():
    import __ray_entry__ as entry
    from rio_color_ray.pipelines import tiles

    queries, sqls = entry.queries(), entry.oracle_sql()
    cases = {name: (queries[name], sqls[name]) for name in queries if name in sqls}
    for z in (7, 10):
        cases[f"render_tiles_content_z{z}"] = (
            lambda sf, z=z: tiles.render_tiles_content(sf, z),
            tiles.render_tiles_content_sql(z),
        )
        cases[f"color_tiles_content_z{z}"] = (
            lambda sf, z=z: tiles.color_tiles_content(sf, z),
            tiles.color_tiles_content_sql(z),
        )
    return cases


CASES = _cases()


@pytest.fixture(scope="module")
def con():
    return duckdb_con(TABLES, SF_SMOKE)


@pytest.mark.parametrize("name", list(CASES))
def test_registry_entry_matches_its_oracle(ray_session, con, name):
    query, sql = CASES[name]
    result = query(SF_SMOKE)
    assert isinstance(result, ray_session.data.Dataset), type(result)
    oracle_check(result, con, sql)


# the layout a 1-CPU session runs (perfbench's): one read block and one
# exchange bucket, so one reduce holds every key
ONE_TASK = (
    "render_tiles_content_z7",
    "render_tiles_content_z10",
    "color_tiles_content_z7",
    "color_tiles_content_z10",
    "q5_nation_revenue",  # bucketed and broadcast joins, then keyed_agg
    "top_grid_cells",  # keyed_agg, then a global keyed_topk
    "topk_orders_per_priority",  # keyed_topk per key
    "sessionize",  # keyed_scan
)


@pytest.mark.parametrize("name", ONE_TASK)
def test_one_task_layout_matches_its_oracle(ray_session, con, monkeypatch, name):
    from rio_color_ray import ctx

    monkeypatch.setattr(ctx, "shuffle_partitions", lambda: 1)
    query, sql = CASES[name]
    oracle_check(query(SF_SMOKE), con, sql)


@pytest.mark.parametrize("name", sorted(ROWS_ONLY))
def test_rows_only_entry_returns_a_dataset(ray_session, name):
    import __ray_entry__ as entry

    result = entry.queries()[name](SF_SMOKE)
    assert isinstance(result, ray_session.data.Dataset), type(result)


def test_every_entry_is_oracle_checked_or_rows_only():
    import __ray_entry__ as entry

    queries, sqls = entry.queries(), entry.oracle_sql()
    unchecked = {name for name in queries if name not in sqls}
    assert unchecked == set(ROWS_ONLY), "entries without an oracle must be listed in ROWS_ONLY"
    assert not set(sqls) - set(queries), "oracles without an entry"
