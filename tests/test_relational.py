"""Relational pipelines vs DuckDB oracles (sf0.001) + multimodal plumbing."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ["lineitem", "orders", "customer", "nation", "region", "events", "part"]:
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")
    return c


def _check(ray_result, con, sql):
    rdf = ray_result if isinstance(ray_result, pd.DataFrame) else ray_result.to_pandas()
    odf = con.sql(sql).df()
    a = rdf[sorted(rdf.columns)].sort_values(sorted(rdf.columns)).reset_index(drop=True)
    b = odf[sorted(odf.columns)].sort_values(sorted(odf.columns)).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b, check_dtype=False, check_exact=True)
    return rdf


def test_q1(ray_session, con):
    from rio_color_ray.pipelines import relational as R

    out = _check(R.q1_pricing_summary(SF), con, R.Q1_SQL)
    assert len(out) == 6  # 3 returnflags x 2 linestatus combos


def test_q3_bucketed_default(ray_session, con):
    from rio_color_ray.pipelines import relational as R

    out = _check(R.q3_top_orders(SF), con, R.Q3_SQL)
    assert len(out) == 10
    assert out["revenue_micros"].is_monotonic_decreasing


def test_q5_bucketed_join(ray_session, con):
    from rio_color_ray.pipelines import relational as R

    out = _check(R.q5_nation_revenue(SF), con, R.Q5_SQL)
    assert out["n_name"].is_unique


@pytest.mark.parametrize("query", ["q3_top_orders", "q5_nation_revenue", "q10_returned_revenue"])
def test_orders_lineitem_join_runs_no_schema_probe(ray_session, monkeypatch, query):
    """Both sides of the orders |><| lineitem join declare their schema.
    A ``Dataset.schema()`` probe would re-run a side's plan under
    ``limit(1)`` and cancel its map tasks mid-flight."""
    import ray.data

    from rio_color_ray.pipelines import relational as R

    calls = []
    schema = ray.data.Dataset.schema

    def counting(self, *args, **kwargs):
        calls.append(query)
        return schema(self, *args, **kwargs)

    monkeypatch.setattr(ray.data.Dataset, "schema", counting)
    getattr(R, query)(SF)
    assert not calls


def test_events_windows_and_topk(ray_session, con):
    from rio_color_ray.pipelines import relational as R

    _check(R.events_daily(SF), con, R.EVENTS_DAILY_SQL)
    _check(R.top_users_by_value(SF), con, R.TOP_USERS_SQL)
    _check(R.distinct_users_per_type(SF), con, R.DISTINCT_USERS_SQL)


def test_bucketed_join_edge_cases(ray_session):
    """Empty side, negative keys, duplicate keys — vs a pandas oracle;
    a null key matches nothing, as in SQL."""
    import ray.data

    from rio_color_ray.stages.join import bucketed_hash_join

    ldf = pd.DataFrame({"k": [-5, -5, 0, 3, 7, 9], "lv": [1, 2, 3, 4, 5, 6]})
    rdf = pd.DataFrame({"k": [-5, 3, 3, 11], "rv": [10, 20, 30, 40]})
    out = (
        bucketed_hash_join(
            ray.data.from_pandas(ldf), ray.data.from_pandas(rdf), key="k"
        )
        .to_pandas()
        .sort_values(["k", "lv", "rv"])
        .reset_index(drop=True)
    )
    exp = ldf.merge(rdf, on="k").sort_values(["k", "lv", "rv"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(out[exp.columns].astype(exp.dtypes.to_dict()), exp)

    empty = pd.DataFrame({"k": pd.Series([], dtype=np.int64), "rv": pd.Series([], dtype=np.int64)})
    out2 = bucketed_hash_join(
        ray.data.from_pandas(ldf), ray.data.from_pandas(empty), key="k"
    )
    assert out2.count() == 0

    # pandas' merge would pair the two NaN keys; DuckDB and Arrow do not
    lnull = pa.table({"k": pa.array([None, 3], pa.int64()), "lv": [1, 2]})
    rnull = pa.table({"k": pa.array([None, 3], pa.int64()), "rv": [10, 20]})
    out3 = bucketed_hash_join(
        ray.data.from_arrow(lnull), ray.data.from_arrow(rnull), key="k"
    ).to_pandas()
    assert out3[["k", "lv", "rv"]].values.tolist() == [[3, 2, 20]]


def test_bucketed_join_refuses_shared_non_key_column(ray_session):
    """Two sides that share a non-key column are refused with a
    ValueError naming it, before any work runs: no join renames one."""
    import ray.data

    from rio_color_ray.stages.join import bucketed_hash_join

    left = ray.data.from_arrow(pa.table({"k": [1, 2], "v": [1, 2], "lv": [3, 4]}))
    right = ray.data.from_arrow(pa.table({"k": [2, 3], "v": [5, 6]}))
    with pytest.raises(ValueError, match=r"\['v'\]"):
        bucketed_hash_join(left, right, key="k")


def test_bucketed_join_pandas_backed_strings(ray_session):
    """pandas-backed Datasets with object/str non-key columns join fine
    (np.dtype('O') has no direct Arrow mapping) and int64 dtypes survive
    the null-union round trip without a float64 upcast."""
    import ray.data

    from rio_color_ray.stages.join import bucketed_hash_join

    ldf = pd.DataFrame({"k": [1, 2, 3, 3], "name": ["a", "b", "c", "cc"]})
    rdf = pd.DataFrame({"k": [2, 3, 4], "big": [2**60 + 1, 2**60 + 2, 2**60 + 3]})
    out = (
        bucketed_hash_join(
            ray.data.from_pandas(ldf), ray.data.from_pandas(rdf), key="k"
        )
        .to_pandas()
        .sort_values(["k", "name"])
        .reset_index(drop=True)
    )
    exp = ldf.merge(rdf, on="k").sort_values(["k", "name"]).reset_index(drop=True)
    assert out["big"].dtype == np.int64  # exact above 2**53
    pd.testing.assert_frame_equal(out[exp.columns], exp, check_dtype=False)
    assert list(out["big"]) == list(exp["big"])


def test_bucketed_join_matches_builtin(ray_session, monkeypatch):
    """Our explicit bucketed hash join == Ray's Dataset.join, row for row."""
    import ray.data
    from ray.data import DataContext

    # Dataset.join runs Ray's hash-shuffle join (aggregator actors), the
    # one hash shuffle here; with its pool uncapped this join stalled on a
    # 4-CPU node
    monkeypatch.setattr(DataContext.get_current(), "max_hash_shuffle_aggregators", 8)

    from rio_color_ray.io import read_table
    from rio_color_ray.stages.join import bucketed_hash_join

    orders = read_table(SF, "orders", columns=["o_orderkey", "o_custkey"])
    li = read_table(SF, "lineitem", columns=["l_orderkey", "l_quantity"])
    li = li.map_batches(
        lambda b: b.rename_columns(["o_orderkey", "l_quantity"]), batch_format="pyarrow"
    )
    ours = bucketed_hash_join(orders, li, key="o_orderkey").to_pandas()
    builtin = (
        ray.data.read_parquet(f"{SF}/orders.parquet", columns=["o_orderkey", "o_custkey"])
        .join(
            ray.data.read_parquet(f"{SF}/lineitem.parquet", columns=["l_orderkey", "l_quantity"]),
            join_type="inner",
            num_partitions=8,
            on=("o_orderkey",),
            right_on=("l_orderkey",),
        )
        .to_pandas()
    )
    a = ours.sort_values(["o_orderkey", "o_custkey", "l_quantity"]).reset_index(drop=True)
    b = builtin.rename(columns={"l_orderkey": "o_orderkey_r"}) if "l_orderkey" in builtin else builtin
    b = b[["o_orderkey", "o_custkey", "l_quantity"]].sort_values(
        ["o_orderkey", "o_custkey", "l_quantity"]
    ).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        a[["o_orderkey", "o_custkey", "l_quantity"]], b, check_dtype=False
    )


def test_multimodal_plumbing(ray_session):
    import ray.data

    from rio_color_ray.stages.multimodal import (
        AudioFrameStage,
        DecodeImageStage,
        make_media_table,
    )

    media = make_media_table(n=32, payload_bytes=2048)
    ds = ray.data.from_arrow(media)
    imgs = ds.filter(lambda r: r["kind"] == "image").map_batches(
        DecodeImageStage, batch_format="pyarrow", concurrency=(1, 2), batch_size=8
    )
    out = imgs.to_pandas()
    assert len(out) == 16
    assert set(out.columns) == {"media_id", "height", "width", "pixels", "mean_r", "mean_g", "mean_b"}
    assert all(len(p) == 16 * 16 * 3 for p in out["pixels"])
    # deterministic: same payload -> same fake pixels
    out2 = (
        ray.data.from_arrow(media)
        .filter(lambda r: r["kind"] == "image")
        .map_batches(DecodeImageStage, batch_format="pyarrow", concurrency=(1, 2), batch_size=8)
        .to_pandas()
    )
    pd.testing.assert_frame_equal(
        out.sort_values("media_id").reset_index(drop=True),
        out2.sort_values("media_id").reset_index(drop=True),
    )

    frames = ds.filter(lambda r: r["kind"] == "audio").map_batches(
        AudioFrameStage, batch_format="pyarrow", concurrency=(1, 2), batch_size=8
    )
    fdf = frames.to_pandas()
    assert len(fdf) == 16 * (2048 // 256)
    assert (fdf["energy"] >= 0).all()


def test_q14_promo_revenue(ray_session, con):
    from rio_color_ray.pipelines import relational as R

    _check(R.q14_promo_revenue(SF), con, R.Q14_SQL)


def test_events_sliding_window(ray_session, con):
    """Every event lands in exactly 2 of the 6h/3h sliding windows."""
    from rio_color_ray.pipelines import relational as R

    rdf = _check(R.events_sliding_window(SF), con, R.SLIDING_SQL)
    n_events = con.sql("SELECT count(*) FROM events").fetchone()[0]
    assert rdf["n_events"].sum() == 2 * n_events


def test_sessionize(ray_session, con):
    """Gap-based sessions match the SQL window-function oracle, and a
    >30min gap provably splits while <=30min does not."""
    from rio_color_ray.pipelines import relational as R

    rdf = _check(R.sessionize(SF), con, R.SESSIONIZE_SQL)
    assert (rdf["session_end"] >= rdf["session_start"]).all()
    # per-user sanity: session count == 1 + number of >gap deltas
    ev = con.sql("SELECT user_id, ts FROM events ORDER BY user_id, ts").df()
    gaps = (
        ev.groupby("user_id")["ts"]
        .apply(lambda s: int((s.diff().dt.total_seconds() > 1800).sum()) + 1)
    )
    got = rdf.groupby("user_id")["session_id"].nunique()
    pd.testing.assert_series_equal(got.sort_index(), gaps.sort_index(), check_names=False)


def test_statecache_group_lru_bounded(ray_session):
    """Repeated pipeline builds must not grow worker state without bound:
    the per-class LRU keeps at most 4 live stage instances."""
    from rio_color_ray.stages import statecache as sc

    class Dummy:
        def __init__(self, tag):
            self.tag = tag

        def __call__(self, batch):
            return batch

    built = []
    for i in range(10):
        key = f"Dummy-{i}"
        sc.process_cached(key, lambda i=i: built.append(i) or Dummy(i), group="Dummy")
    assert len(built) == 10
    live = [k for k in sc._PROCESS_CACHE if str(k).startswith("Dummy-")]
    assert len(live) == sc._GROUP_CAP
    # most-recent entries survive
    assert set(live) == {f"Dummy-{i}" for i in range(6, 10)}


def test_asof_join_clicks(ray_session, con):
    from rio_color_ray.pipelines import relational as R

    out = _check(R.asof_join_clicks(SF), con, R.ASOF_SQL)
    assert (out["gap_us"] >= 0).all()
    assert out["event_id"].is_unique  # one match row per purchase


def test_topk_orders_per_priority(ray_session, con):
    from rio_color_ray.pipelines import relational as R

    out = _check(R.topk_orders_per_priority(SF), con, R.TOPK_PRIORITY_SQL)
    assert len(out) == 15  # 5 priorities x top-3
    assert set(out["rank"]) == {1, 2, 3}


def test_q18_large_orders(ray_session, con):
    from rio_color_ray.pipelines import relational as R

    out = _check(R.q18_large_orders(SF), con, R.Q18_SQL)
    assert (out["sum_qty"] > R.Q18_MIN_QTY).all()
    assert len(out) > 0


def test_q10_returned_revenue(ray_session, con):
    from rio_color_ray.pipelines import relational as R

    out = _check(R.q10_returned_revenue(SF), con, R.Q10_SQL)
    assert len(out) == 20
    assert out["revenue_micros"].is_monotonic_decreasing


def test_value_quantiles_per_type(ray_session, con):
    from rio_color_ray.pipelines import relational as R

    out = _check(R.value_quantiles_per_type(SF), con, R.QUANTILES_SQL)
    assert len(out) == 5
    q = out[["p25_cents", "p50_cents", "p75_cents", "p90_cents"]].to_numpy()
    assert (np.diff(q, axis=1) >= 0).all()


def test_range_join_clicks(ray_session, con):
    from rio_color_ray.pipelines import relational as R

    out = _check(R.range_join_clicks(SF), con, R.RANGE_JOIN_SQL)
    assert (out["n_clicks_1h"] >= 0).all()
    # every purchase appears exactly once, including zero-click ones
    n_purch = con.sql(
        "SELECT count(*) FROM events WHERE event_type = 'purchase'"
    ).fetchone()[0]
    assert len(out) == n_purch


def test_customer_order_counts_left_join(ray_session, con):
    from rio_color_ray.pipelines import relational as R

    out = _check(R.customer_order_counts(SF), con, R.CUSTOMER_ORDER_COUNTS_SQL)
    n_cust = con.sql("SELECT count(*) FROM customer").fetchone()[0]
    assert len(out) == n_cust  # LEFT: all customers survive
    assert (out.loc[out["n_orders"] == 0, "spend_cents"] == 0).all()


def test_bucketed_join_left_unmatched(ray_session):
    """join_type='left outer' keeps left rows with no right match (null
    right cols) — the zero-orders branch sf0.001 happens not to contain."""
    import ray.data

    from rio_color_ray.stages.join import bucketed_hash_join

    ldf = pd.DataFrame({"k": [1, 2, 3, 4], "name": ["a", "b", "c", "d"]})
    rdf = pd.DataFrame({"k": [2, 4], "n": [10, 20]})
    joined = bucketed_hash_join(
        ray.data.from_pandas(ldf), ray.data.from_pandas(rdf), key="k",
        join_type="left outer",
    )
    out = pa.concat_tables(
        joined.iter_batches(batch_format="pyarrow", batch_size=None), promote_options="default"
    ).sort_by("k")
    assert out.num_rows == 4
    # the unmatched right column stays int64, with nulls (pandas gave float64 NaN)
    assert out.schema.field("n").type == pa.int64()
    assert out.column("n").to_pylist() == [None, 10, None, 20]


@pytest.mark.parametrize("join_type", ["inner", "right semi"])
def test_broadcast_join(ray_session, join_type):
    """The broadcast join against a small Arrow table, vs a pandas merge /
    isin reference; keys 5 and -1 are missing from the small side."""
    import ray.data

    from rio_color_ray.stages.join import broadcast_join

    big = pd.DataFrame({"k": [1, 2, 2, 3, 5, -1, 4], "v": np.arange(7) * 10})
    small = pa.table({"k": [1, 2, 3, 4, 6], "name": ["a", "b", "c", "d", "f"]})
    got = broadcast_join(
        ray.data.from_pandas(big).repartition(3), small, "k", join_type
    ).to_pandas()
    sdf = small.to_pandas()
    want = big.merge(sdf, on="k") if join_type == "inner" else big[big["k"].isin(sdf["k"])]
    assert list(got.columns) == list(want.columns)
    pd.testing.assert_frame_equal(
        got.sort_values(["k", "v"]).reset_index(drop=True),
        want.sort_values(["k", "v"]).reset_index(drop=True),
    )


def test_event_gaps(ray_session, con):
    from rio_color_ray.pipelines import relational as R

    out = _check(R.event_gaps(SF), con, R.EVENT_GAPS_SQL)
    assert (out["gap_us"] >= 0).all()
    n_events = con.sql("SELECT count(*) FROM events").fetchone()[0]
    n_users = con.sql("SELECT count(DISTINCT user_id) FROM events").fetchone()[0]
    assert len(out) == n_events - n_users  # one lag-less first event per user


def test_users_click_and_purchase(ray_session, con):
    from rio_color_ray.pipelines import relational as R

    out = _check(R.users_click_and_purchase(SF), con, R.INTERSECT_SQL)
    assert out["user_id"].is_unique
    clickers = set(
        con.sql("SELECT DISTINCT user_id FROM events WHERE event_type='click'").df()["user_id"]
    )
    assert set(out["user_id"]) <= clickers


def test_events_pivot(ray_session, con):
    from rio_color_ray.pipelines import relational as R

    out = _check(R.events_pivot(SF), con, R.PIVOT_SQL)
    n_events = con.sql("SELECT count(*) FROM events").fetchone()[0]
    wide_cols = [c for c in out.columns if c.startswith("n_")]
    assert out[wide_cols].to_numpy().sum() == n_events  # partition of events


def test_topk_rows_equals_sort_limit(ray_session):
    """The global ``keyed_topk`` (no key) == sort().limit() row-for-row,
    including tie order and k larger than the input."""
    import ray.data

    from rio_color_ray.stages.agg import keyed_topk

    rng = np.random.default_rng(7)
    df = pd.DataFrame(
        {"v": rng.integers(0, 5, 500), "id": np.arange(500, dtype=np.int64)}
    )
    ds = ray.data.from_pandas(df).repartition(13)
    for k in (1, 10, 1000):
        a = (
            keyed_topk(ds, [], [("v", "descending"), ("id", "ascending")], k)
            .select_columns(["v", "id"])
            .to_pandas()
            .reset_index(drop=True)
        )
        b = (
            ds.sort(["v", "id"], descending=[True, False])
            .limit(k)
            .to_pandas()
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(a, b)


def test_late_events(ray_session, con):
    from rio_color_ray.pipelines import relational as R

    out = _check(R.late_events(SF), con, R.LATE_EVENTS_SQL)
    assert (out["lateness_us"] > 0).all()


def test_q4_late_shipments(ray_session, con):
    from rio_color_ray.pipelines import relational as R

    out = _check(R.q4_late_shipments(SF), con, R.Q4_SQL)
    assert out["n_late"].sum() > 0


def test_user_running_value(ray_session, con):
    from rio_color_ray.pipelines import relational as R

    out = _check(R.user_running_value(SF), con, R.USER_RUNNING_VALUE_SQL)
    # one row per event, monotone within a user by construction of cumsum
    g = out.sort_values("event_id").groupby("user_id")["cum_value_cents"]
    assert (g.diff().dropna() >= 0).all()


def test_approx_distinct_users_kmv(ray_session, con):
    from rio_color_ray.pipelines import relational as R

    out = _check(
        R.approx_distinct_users_kmv(SF), con, R.approx_distinct_users_kmv_sql()
    )
    exact = con.sql(
        "SELECT event_type, count(DISTINCT user_id) AS n FROM events GROUP BY 1"
    ).df()
    m = out.merge(exact, on="event_type")
    # KMV with k=64: relative error well inside 4/sqrt(k) = 50%; the
    # exact branch (c < k) is bit-equal by construction
    assert (abs(m["n_users_approx"] - m["n"]) <= 0.5 * m["n"]).all()


def test_kmv_sketch_branch_estimates(ray_session, con):
    """Force the sketch branch (k < distinct count) and check accuracy."""
    from rio_color_ray.pipelines import relational as R

    out = (
        R.approx_distinct_users_kmv(SF, k=8)
        .to_pandas()
        .merge(
            con.sql(
                "SELECT event_type, count(DISTINCT user_id) AS n "
                "FROM events GROUP BY 1"
            ).df(),
            on="event_type",
        )
    )
    assert (out["n"] > 8).any()  # sketch branch actually exercised
    assert (abs(out["n_users_approx"] - out["n"]) <= out["n"]).all()


def test_events_rollup(ray_session, con):
    from rio_color_ray.pipelines import relational as R

    out = _check(R.events_rollup(SF), con, R.ROLLUP_SQL)
    grand = out[(out["day"] == "ALL") & (out["event_type"] == "ALL")]
    assert grand["n"].iloc[0] == out[out["event_type"] != "ALL"]["n"].sum()


def test_users_click_no_purchase(ray_session, con):
    from rio_color_ray.pipelines import relational as R

    out = _check(R.users_click_no_purchase(SF), con, R.EXCEPT_SQL)
    assert len(out) > 0  # non-trivial at this SF by construction
    # no user in the result has a qualifying purchase
    bad = con.sql(
        f"SELECT DISTINCT user_id FROM events WHERE event_type = 'purchase' "
        f"AND value > {R.EXCEPT_VALUE_CUTOFF}"
    ).df()
    assert not out["user_id"].isin(bad["user_id"]).any()
