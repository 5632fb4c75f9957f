"""Relational pipelines over the TPC-H-ish tables + the events stream.

Money/quantity columns are converted ONCE per batch to exact integers
(cents / percent, via np.rint on values that are 2-decimal by
construction), so every aggregate is an int64 sum that matches the DuckDB
oracle bit-for-bit — no float summation-order hazards.

Join strategy per query (the explicit scale decisions):
* dimension tables (nation/region/customer-subset) -> BROADCAST merge
* orders |><| lineitem (both large) -> our explicit ``bucketed_hash_join``
  (q3 and q5, both oracle-checked)
* aggregates -> per-batch partial reduce, then a small groupby
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data
from ray.data.aggregate import Sum

from ..stages.agg import hash_bucket_agg
from ..stages.join import BroadcastJoinStage, broadcast_semi_filter, bucketed_hash_join

Q1_CUTOFF = "1998-09-02"
Q3_DATE = "1997-01-01"


def _cast_ts_us(*cols):
    """Final-stage cast to timestamp[us]: Ray's sort-based aggregate
    normalizes temporal key columns to ns; the DuckDB oracle emits us."""

    def fn(batch: pa.Table) -> pa.Table:
        for c in cols:
            i = batch.schema.get_field_index(c)
            batch = batch.set_column(
                i, c, pc.cast(batch.column(c), pa.timestamp("us"))
            )
        return batch

    return fn


def _read(sf_dir, name, columns=None):
    from ..io import read_table

    return read_table(sf_dir, name, columns=columns)


def _int_cents(col):
    return np.rint(col.to_numpy(zero_copy_only=False) * 100).astype(np.int64)


def q1_pricing_summary(sf_dir):
    """TPC-H Q1 analog with exact integer aggregates."""
    ds = _read(
        sf_dir,
        "lineitem",
        columns=[
            "l_returnflag",
            "l_linestatus",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
            "l_tax",
            "l_shipdate",
        ],
    )

    def partial(batch: pa.Table) -> pd.DataFrame:
        batch = batch.filter(
            pc.less_equal(batch.column("l_shipdate"), pa.scalar(np.datetime64(Q1_CUTOFF, "us")))
        )
        qty = np.rint(batch.column("l_quantity").to_numpy(zero_copy_only=False)).astype(np.int64)
        price_c = _int_cents(batch.column("l_extendedprice"))
        disc_pct = np.rint(batch.column("l_discount").to_numpy(zero_copy_only=False) * 100).astype(np.int64)
        tax_pct = np.rint(batch.column("l_tax").to_numpy(zero_copy_only=False) * 100).astype(np.int64)
        df = pd.DataFrame(
            {
                "l_returnflag": batch.column("l_returnflag").to_pandas().to_numpy(),
                "l_linestatus": batch.column("l_linestatus").to_pandas().to_numpy(),
                "sum_qty": qty,
                "sum_base_price_cents": price_c,
                "sum_disc_price_micros": price_c * (100 - disc_pct),
                "sum_charge_micros2": price_c * (100 - disc_pct) * (100 + tax_pct),
                "count_order": 1,
            }
        )
        return df.groupby(["l_returnflag", "l_linestatus"], as_index=False).sum()

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return partials.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        Sum("sum_qty", alias_name="sum_qty"),
        Sum("sum_base_price_cents", alias_name="sum_base_price_cents"),
        Sum("sum_disc_price_micros", alias_name="sum_disc_price_micros"),
        Sum("sum_charge_micros2", alias_name="sum_charge_micros2"),
        Sum("count_order", alias_name="count_order"),
    )


Q1_SQL = f"""
SELECT l_returnflag, l_linestatus,
       CAST(sum(CAST(round(l_quantity) AS BIGINT)) AS BIGINT) AS sum_qty,
       CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)) AS BIGINT) AS sum_base_price_cents,
       CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
           * (100 - CAST(round(l_discount * 100) AS BIGINT))) AS BIGINT) AS sum_disc_price_micros,
       CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
           * (100 - CAST(round(l_discount * 100) AS BIGINT))
           * (100 + CAST(round(l_tax * 100) AS BIGINT))) AS BIGINT) AS sum_charge_micros2,
       count(*) AS count_order
FROM lineitem
WHERE l_shipdate <= TIMESTAMP '{Q1_CUTOFF} 00:00:00'
GROUP BY l_returnflag, l_linestatus
"""


def q3_top_orders(sf_dir, k=10):
    """BUILDING-segment orders before the cutoff, ranked by revenue.

    customer -> broadcast semi-filter; orders |><| lineitem -> the
    engine's bucketed hash join (task-based sort-shuffle exchange, not
    Ray's ``Dataset.join``, whose per-execution hash-aggregator actor
    pools cost ~2s of spawn and can wedge small nodes — ctx.py); exact
    integer revenue.
    """
    import pyarrow.parquet as pq

    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )
    building = set(
        pa.table(cust).filter(pc.equal(cust.column("c_mktsegment"), "BUILDING"))
        .column("c_custkey")
        .to_pylist()
    )

    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_orderdate"])
    orders = broadcast_semi_filter(orders, building, "o_custkey")
    orders = orders.map_batches(
        lambda b: b.filter(
            pc.less(b.column("o_orderdate"), pa.scalar(np.datetime64(Q3_DATE, "us")))
        ),
        batch_format="pyarrow",
    )

    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_extendedprice", "l_discount"])

    def revenue(batch: pa.Table) -> pa.Table:
        price_c = _int_cents(batch.column("l_extendedprice"))
        disc = np.rint(batch.column("l_discount").to_numpy(zero_copy_only=False) * 100).astype(np.int64)
        return pa.table(
            {
                "o_orderkey": batch.column("l_orderkey"),  # the join key's name
                "revenue_micros": pa.array(price_c * (100 - disc), pa.int64()),
            }
        )

    li = li.map_batches(revenue, batch_format="pyarrow")
    joined = bucketed_hash_join(orders, li, "o_orderkey")

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.groupby("o_orderkey", as_index=False)["revenue_micros"].sum()

    per_order = hash_bucket_agg(
        joined.map_batches(partial, batch_format="pandas"),
        "o_orderkey",
        lambda df: df.groupby("o_orderkey", as_index=False)["revenue_micros"].sum(),
    )
    from ..stages.topk import topk_rows

    return topk_rows(per_order, ["revenue_micros", "o_orderkey"], [True, False], k)


Q3_SQL = f"""
SELECT o_orderkey, revenue_micros FROM (
  SELECT o.o_orderkey,
         CAST(sum(CAST(round(l.l_extendedprice * 100) AS BIGINT)
             * (100 - CAST(round(l.l_discount * 100) AS BIGINT))) AS BIGINT) AS revenue_micros
  FROM orders o
  JOIN customer c ON c.c_custkey = o.o_custkey AND c.c_mktsegment = 'BUILDING'
  JOIN lineitem l ON l.l_orderkey = o.o_orderkey
  WHERE o.o_orderdate < TIMESTAMP '{Q3_DATE} 00:00:00'
  GROUP BY o.o_orderkey
) ORDER BY revenue_micros DESC, o_orderkey LIMIT 10
"""


def q5_nation_revenue(sf_dir):
    """Revenue by customer nation — explicit bucketed hash join for the
    large-large side, broadcast merges for the dimensions."""
    import pyarrow.parquet as pq

    nation = pq.read_table(f"{sf_dir}/nation.parquet").to_pandas()
    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    ).to_pandas()

    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_extendedprice", "l_discount"])

    def revenue(batch: pa.Table) -> pa.Table:
        price_c = _int_cents(batch.column("l_extendedprice"))
        disc = np.rint(batch.column("l_discount").to_numpy(zero_copy_only=False) * 100).astype(np.int64)
        return pa.table(
            {
                "o_orderkey": batch.column("l_orderkey"),
                "revenue_micros": pa.array(price_c * (100 - disc), pa.int64()),
            }
        )

    li = li.map_batches(revenue, batch_format="pyarrow")
    joined = bucketed_hash_join(orders, li, key="o_orderkey")

    # customer |><| nation is small but NOT tiny (150k x sf rows): ship it
    # once through the object store (ray.put; BroadcastJoinStage resolves
    # the ref per worker) instead of re-pickling it into every task
    import ray

    from ..stages.join import BroadcastJoinStage
    from ..stages.statecache import make_stage_fn

    cust_nation = cust.merge(
        nation[["n_nationkey", "n_name"]],
        left_on="c_nationkey",
        right_on="n_nationkey",
    )[["c_custkey", "n_name"]].rename(columns={"c_custkey": "o_custkey"})

    with_nation = joined.map_batches(
        make_stage_fn(BroadcastJoinStage, ray.put(cust_nation), "o_custkey"),
        batch_format="pandas",
    ).select_columns(["n_name", "revenue_micros"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.groupby("n_name", as_index=False)["revenue_micros"].sum()

    return (
        with_nation.map_batches(partial, batch_format="pandas")
        .groupby("n_name")
        .aggregate(Sum("revenue_micros", alias_name="revenue_micros"))
    )


Q5_SQL = """
SELECT n_name, CAST(sum(CAST(round(l.l_extendedprice * 100) AS BIGINT)
                   * (100 - CAST(round(l.l_discount * 100) AS BIGINT))) AS BIGINT) AS revenue_micros
FROM lineitem l
JOIN orders o ON o.o_orderkey = l.l_orderkey
JOIN customer c ON c.c_custkey = o.o_custkey
JOIN nation n ON n.n_nationkey = c.c_nationkey
GROUP BY n_name
"""


def events_daily(sf_dir):
    """Tumbling 1-day window: events per (day, event_type) + value cents."""
    ds = _read(sf_dir, "events", columns=["ts", "event_type", "value"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        day = pc.floor_temporal(batch.column("ts"), unit="day")
        cents = _int_cents(batch.column("value"))
        df = pd.DataFrame(
            {
                "day": day.to_pandas(),
                "event_type": batch.column("event_type").to_pandas().to_numpy(),
                "n_events": 1,
                "value_cents": cents,
            }
        )
        out = df.groupby(["day", "event_type"], as_index=False).sum()
        # pyarrow's to_pandas coerces temporal cols to ns; the oracle emits
        # timestamp[us] — pin us so the hash compare sees identical dtypes.
        out["day"] = out["day"].astype("datetime64[us]")
        return out

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["day", "event_type"])
        .aggregate(
            Sum("n_events", alias_name="n_events"),
            Sum("value_cents", alias_name="value_cents"),
        )
        .map_batches(_cast_ts_us("day"), batch_format="pyarrow")
    )


EVENTS_DAILY_SQL = """
SELECT date_trunc('day', ts) AS day, event_type,
       count(*) AS n_events,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS value_cents
FROM events GROUP BY 1, 2
"""


def top_users_by_value(sf_dir, k=10):
    ds = _read(sf_dir, "events", columns=["user_id", "value"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        df = pd.DataFrame(
            {
                "user_id": batch.column("user_id").to_numpy(),
                "value_cents": _int_cents(batch.column("value")),
            }
        )
        return df.groupby("user_id", as_index=False).sum()

    from ..stages.topk import topk_rows

    out = hash_bucket_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        "user_id",
        lambda df: df.groupby("user_id", as_index=False)["value_cents"].sum(),
    )
    return topk_rows(out, ["value_cents", "user_id"], [True, False], k)


TOP_USERS_SQL = """
SELECT user_id, value_cents FROM (
  SELECT user_id, CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS value_cents
  FROM events GROUP BY user_id
) ORDER BY value_cents DESC, user_id LIMIT 10
"""


def distinct_users_per_type(sf_dir):
    """count(distinct user_id) via TWO-LEVEL exact distinct.

    Level 1 partitions by a hash bucket of user_id (stages/agg.py — the
    (event_type, user_id) combo cardinality grows with the data, so the
    distinct collapse runs as a vectorized drop_duplicates per bucket,
    not one Ray group per combo), so no reducer ever holds one
    event_type's full user set (5 event types would otherwise mean 5
    giant groups at 100 TB). Level 2 counts the combo rows per type:
    batch partial counts into a 5-row groupby.
    """
    ds = _read(sf_dir, "events", columns=["event_type", "user_id"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.drop_duplicates()

    combos = hash_bucket_agg(
        ds.map_batches(partial, batch_format="pandas"),
        "user_id",
        lambda df: df.drop_duplicates(),
    )

    def count_partial(batch: pd.DataFrame) -> pd.DataFrame:
        g = batch.groupby("event_type", as_index=False).size()
        return g.rename(columns={"size": "n"})

    return (
        combos.map_batches(count_partial, batch_format="pandas")
        .groupby("event_type")
        .aggregate(Sum("n", alias_name="n_users"))
    )


DISTINCT_USERS_SQL = """
SELECT event_type, count(DISTINCT user_id) AS n_users FROM events GROUP BY event_type
"""


def q14_promo_revenue(sf_dir):
    """TPC-H Q14 analog: promo vs total revenue per ship month.

    ``part`` is the small side — read once on the driver, broadcast as a
    dense ``partkey -> is_promo`` int8 lookup array inside a stateless
    ``map_batches`` (no shuffle for the join); the monthly aggregate is a
    per-batch partial reduce into a tiny groupby. Exact integer micros.
    """
    import pyarrow.parquet as pq

    import ray

    from ..stages.statecache import process_cached

    part = pq.read_table(f"{sf_dir}/part.parquet", columns=["p_partkey", "p_type"])
    pk = part.column("p_partkey").to_numpy()
    promo = pc.starts_with(part.column("p_type"), "PROMO").to_numpy(zero_copy_only=False)
    lookup = np.zeros(int(pk.max()) + 1, dtype=np.int8)
    lookup[pk] = promo.astype(np.int8)
    # the dense partkey lookup is part-table-sized: ship once via object
    # store (zero-copy numpy read per worker), not per-task pickles
    ref = ray.put(lookup)

    ds = _read(
        sf_dir, "lineitem", columns=["l_partkey", "l_extendedprice", "l_discount", "l_shipdate"]
    )

    def partial(batch: pa.Table) -> pd.DataFrame:
        lookup = process_cached(("q14_lookup", ref.hex()), lambda: ray.get(ref),
                                group="q14_promo_lookup")
        price_c = _int_cents(batch.column("l_extendedprice"))
        disc_pct = np.rint(
            batch.column("l_discount").to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        rev = price_c * (100 - disc_pct)
        is_promo = lookup[batch.column("l_partkey").to_numpy()]
        ship = batch.column("l_shipdate").to_numpy(zero_copy_only=False)
        month = np.datetime_as_string(ship.astype("datetime64[M]"))
        df = pd.DataFrame(
            {
                "ship_month": month,
                "promo_revenue_micros": rev * is_promo,
                "total_revenue_micros": rev,
            }
        )
        return df.groupby("ship_month", as_index=False).sum()

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("ship_month")
        .aggregate(
            Sum("promo_revenue_micros", alias_name="promo_revenue_micros"),
            Sum("total_revenue_micros", alias_name="total_revenue_micros"),
        )
    )


Q14_SQL = """
SELECT strftime(l_shipdate, '%Y-%m') AS ship_month,
       CAST(sum(CASE WHEN p_type LIKE 'PROMO%' THEN
             CAST(round(l_extendedprice * 100) AS BIGINT)
             * (100 - CAST(round(l_discount * 100) AS BIGINT)) ELSE 0 END) AS BIGINT)
         AS promo_revenue_micros,
       CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
           * (100 - CAST(round(l_discount * 100) AS BIGINT))) AS BIGINT)
         AS total_revenue_micros
FROM lineitem JOIN part ON l_partkey = p_partkey
GROUP BY 1
"""


SLIDE_US = 3 * 3600 * 1_000_000  # windows advance every 3h; each spans 2 * SLIDE_US (6h)


def events_sliding_window(sf_dir):
    """Sliding 6h window every 3h: events + value per (window_start, type).

    Each event lands in exactly window//slide = 2 windows; the per-batch
    stage emits both assignments vectorized (the streaming-window analog:
    windows close as the aggregate consumes them — no per-event state).
    """
    ds = _read(sf_dir, "events", columns=["ts", "event_type", "value"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        ts = batch.column("ts").to_numpy(zero_copy_only=False).astype("datetime64[us]").astype(np.int64)
        cents = _int_cents(batch.column("value"))
        etype = batch.column("event_type").to_pandas().to_numpy()
        w1 = (ts // SLIDE_US) * SLIDE_US  # latest window containing ts
        rows = {
            "window_start": np.concatenate([w1, w1 - SLIDE_US]),
            "event_type": np.concatenate([etype, etype]),
            "n_events": np.ones(2 * len(cents), dtype=np.int64),
            "value_cents": np.concatenate([cents, cents]),
        }
        df = pd.DataFrame(rows)
        out = df.groupby(["window_start", "event_type"], as_index=False).sum()
        out["window_start"] = out["window_start"].astype("datetime64[us]")
        return out

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["window_start", "event_type"])
        .aggregate(
            Sum("n_events", alias_name="n_events"),
            Sum("value_cents", alias_name="value_cents"),
        )
        .map_batches(_cast_ts_us("window_start"), batch_format="pyarrow")
    )


SLIDING_SQL = """
WITH assigned AS (
  SELECT to_timestamp((epoch_us(ts) // 10800000000) * 10800000000 / 1000000)
           AS window_start, event_type, value FROM events
  UNION ALL
  SELECT to_timestamp(((epoch_us(ts) // 10800000000) * 10800000000 - 10800000000) / 1000000)
           AS window_start, event_type, value FROM events
)
SELECT CAST(window_start AS TIMESTAMP) AS window_start, event_type,
       count(*) AS n_events,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS value_cents
FROM assigned GROUP BY 1, 2
"""

SESSION_GAP_US = 30 * 60 * 1_000_000  # 30 min inactivity closes a session


def sessionize(sf_dir):
    """Gap-based session windows per user (classic streaming op).

    Shuffle key = hash bucket of user_id (stages/agg.py); inside each
    bucket ONE vectorized pass over all users: sort by (user, ts),
    session breaks at user boundaries or >30min gaps, session ids via a
    cumsum rebased per user segment (cumsum decomposes), then one pandas
    groupby((user, sid)).agg — no per-user Python. Output: one row per
    session with start/end/n_events/value_cents.
    """
    ds = _read(sf_dir, "events", columns=["user_id", "ts", "value"])

    def sessions(bucket: pd.DataFrame) -> pd.DataFrame:
        g = bucket.sort_values(["user_id", "ts"], kind="mergesort")
        u = g["user_id"].to_numpy()
        ts = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        cents = np.rint(g["value"].to_numpy() * 100).astype(np.int64)
        new_user = np.ones(len(g), dtype=bool)
        new_user[1:] = u[1:] != u[:-1]
        new_session = new_user.copy()
        new_session[1:] |= (ts[1:] - ts[:-1]) > SESSION_GAP_US
        cum = np.cumsum(new_session)
        starts = np.flatnonzero(new_user)
        seg_len = np.diff(np.append(starts, len(g)))
        base = np.where(starts > 0, cum[starts - 1], 0)
        sid = cum - np.repeat(base, seg_len)  # 1-based per user
        df = pd.DataFrame({"user_id": u, "sid": sid, "ts": ts, "cents": cents})
        agg = df.groupby(["user_id", "sid"], as_index=False).agg(
            session_start=("ts", "min"),
            session_end=("ts", "max"),
            n_events=("ts", "size"),
            value_cents=("cents", "sum"),
        )
        out = pd.DataFrame(
            {
                "user_id": agg["user_id"],
                "session_id": agg["sid"].astype(np.int64),
                "session_start": agg["session_start"].astype("datetime64[us]"),
                "session_end": agg["session_end"].astype("datetime64[us]"),
                "n_events": agg["n_events"],
                "value_cents": agg["value_cents"],
            }
        )
        return out

    return hash_bucket_agg(ds, "user_id", sessions)


SESSIONIZE_SQL = """
WITH marked AS (
  SELECT user_id, ts, value,
         CASE WHEN epoch_us(ts) - epoch_us(lag(ts) OVER w) > 1800000000
              OR lag(ts) OVER w IS NULL THEN 1 ELSE 0 END AS new_session
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
), numbered AS (
  SELECT user_id, ts, value,
         sum(new_session) OVER (PARTITION BY user_id ORDER BY ts
           ROWS UNBOUNDED PRECEDING) AS session_id
  FROM marked
)
SELECT user_id, CAST(session_id AS BIGINT) AS session_id,
       min(ts) AS session_start, max(ts) AS session_end,
       count(*) AS n_events,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS value_cents
FROM numbered GROUP BY user_id, session_id
"""


Q6_YEAR = "1996"  # inside the synthetic shipdate range (1995-2001)


def q6_forecast_revenue(sf_dir):
    """TPC-H Q6 analog: discounted-revenue filter-sum, exact micros.

    Pure read -> filter -> partial-sum map_batches -> one-row reduce; the
    only exchange moves one partial row per block. Float filter literals
    compare against the same stored doubles DuckDB sees, so row
    selection is bit-identical.
    """
    ds = _read(
        sf_dir,
        "lineitem",
        columns=["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"],
    )
    lo = np.datetime64(f"{Q6_YEAR}-01-01", "us")
    hi = np.datetime64(f"{int(Q6_YEAR) + 1}-01-01", "us")

    def partial(batch: pa.Table) -> pa.Table:
        ship = batch.column("l_shipdate").to_numpy(zero_copy_only=False)
        disc = batch.column("l_discount").to_numpy(zero_copy_only=False)
        qty = batch.column("l_quantity").to_numpy(zero_copy_only=False)
        mask = (
            (ship >= lo) & (ship < hi)
            & (disc >= 0.05) & (disc <= 0.07) & (qty < 24)
        )
        price_c = _int_cents(batch.column("l_extendedprice"))[mask]
        disc_bp = np.rint(disc[mask] * 100).astype(np.int64)
        return pa.table(
            {
                "__k": pa.array([0], pa.int64()),
                "revenue_micros": pa.array([int((price_c * disc_bp).sum())], pa.int64()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("__k")
        .aggregate(Sum("revenue_micros", alias_name="revenue_micros"))
        .drop_columns(["__k"])
    )


Q6_SQL = f"""
SELECT CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
         * CAST(round(l_discount * 100) AS BIGINT)) AS BIGINT) AS revenue_micros
FROM lineitem
WHERE l_shipdate >= TIMESTAMP '{Q6_YEAR}-01-01 00:00:00'
  AND l_shipdate < TIMESTAMP '{int(Q6_YEAR) + 1}-01-01 00:00:00'
  AND l_discount BETWEEN 0.05 AND 0.07
  AND l_quantity < 24
"""


# ---------------------------------------------------------------------------
# As-of join (event-time point join), the classic operator Ray Data lacks.
# ---------------------------------------------------------------------------

def asof_join_clicks(sf_dir):
    """For every purchase, the latest click by the same user at-or-before
    the purchase (ordered by (ts, event_id) — fully deterministic ties).

    Ray-Data-first shape: ONE shuffle on hash buckets of user_id
    (stages/agg.py), then a vectorized whole-bucket as-of: sort the
    merged click+purchase stream by (user, ts) once, forward-fill the
    last-click row index with a pandas Cython groupby.cummax over user
    segments, gather. No pandas merge_asof per pair of frames, no
    per-user Python, no driver collection. At 10^12 rows the user
    exchange is the same one sessionize pays.
    """
    ds = _read(sf_dir, "events", columns=["event_id", "user_id", "ts", "event_type"])
    ds = ds.map_batches(
        lambda b: b.filter(
            pc.is_in(b.column("event_type"), value_set=pa.array(["click", "purchase"]))
        ),
        batch_format="pyarrow",
    )

    def asof(bucket: pd.DataFrame) -> pd.DataFrame:
        g = bucket.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        u = g["user_id"].to_numpy()
        ts = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        eid = g["event_id"].to_numpy()
        is_click = (g["event_type"] == "click").to_numpy()
        # index of the most recent same-user click at-or-before each row
        idx = np.where(is_click, np.arange(len(g)), -1)
        last_click = pd.Series(idx).groupby(u).cummax().to_numpy()
        take = ~is_click & (last_click >= 0)
        src = last_click[take]
        return pd.DataFrame(
            {
                "event_id": eid[take],
                "user_id": u[take],
                "purchase_ts": ts[take].astype("datetime64[us]"),
                "click_event_id": eid[src],
                "click_ts": ts[src].astype("datetime64[us]"),
                "gap_us": ts[take] - ts[src],
            }
        )

    return hash_bucket_agg(ds, "user_id", asof)


ASOF_SQL = """
WITH ev AS (
  SELECT event_id, user_id, ts, event_type FROM events
  WHERE event_type IN ('click', 'purchase')
), filled AS (
  SELECT *,
    last_value(CASE WHEN event_type = 'click' THEN ts END IGNORE NULLS)
      OVER w AS click_ts,
    last_value(CASE WHEN event_type = 'click' THEN event_id END IGNORE NULLS)
      OVER w AS click_event_id
  FROM ev
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
               ROWS UNBOUNDED PRECEDING)
)
SELECT event_id, user_id, ts AS purchase_ts, click_event_id, click_ts,
       epoch_us(ts) - epoch_us(click_ts) AS gap_us
FROM filled WHERE event_type = 'purchase' AND click_ts IS NOT NULL
"""


# ---------------------------------------------------------------------------
# Top-k per group (window-rank analog) — partial top-k per batch, then the
# same top-k over each exchange block; the shuffle moves at most k rows
# per (batch, group), never the full table.
# ---------------------------------------------------------------------------

def topk_orders_per_priority(sf_dir, k=3):
    """Top-k orders by (o_totalprice, o_orderkey) within each priority."""
    ds = _read(
        sf_dir, "orders", columns=["o_orderpriority", "o_orderkey", "o_totalprice"]
    )

    def head(b: pd.DataFrame) -> pd.DataFrame:
        b = b.sort_values(
            ["o_orderpriority", "price_cents", "o_orderkey"],
            ascending=[True, False, True],
            kind="mergesort",
        )
        return b.groupby("o_orderpriority", as_index=False).head(k)

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch.copy()
        b["price_cents"] = np.rint(b.pop("o_totalprice").to_numpy() * 100).astype(
            np.int64
        )
        return head(b)

    def final(block: pd.DataFrame) -> pd.DataFrame:
        g = head(block)
        g = g.assign(rank=g.groupby("o_orderpriority").cumcount().to_numpy(np.int64) + 1)
        return g[["o_orderpriority", "rank", "o_orderkey", "price_cents"]]

    return hash_bucket_agg(
        ds.map_batches(partial, batch_format="pandas"), "o_orderpriority", final
    )


TOPK_PRIORITY_SQL = """
SELECT o_orderpriority, rank, o_orderkey, price_cents FROM (
  SELECT o_orderpriority, o_orderkey,
         CAST(round(o_totalprice * 100) AS BIGINT) AS price_cents,
         row_number() OVER (PARTITION BY o_orderpriority
             ORDER BY round(o_totalprice * 100) DESC, o_orderkey) AS rank
  FROM orders
) WHERE rank <= 3
"""


# ---------------------------------------------------------------------------
# TPC-H Q18 analog: groupby-having + semi-join back to the fact table.
# ---------------------------------------------------------------------------

Q18_MIN_QTY = 200


def q18_large_orders(sf_dir, min_qty=Q18_MIN_QTY):
    """Orders whose total lineitem quantity exceeds ``min_qty``.

    Two-level aggregate (per-batch partial sums -> small groupby), the
    HAVING filter applied post-aggregate, and the survivors joined back
    to orders INSIDE the dataset with the bucketed hash join — no
    driver-side keyset materialization (the HAVING tail is "tiny" only
    probabilistically; at 10^12 rows a driver dict is a bet, a bucketed
    exchange is not). The customer-name dimension ships once via
    ray.put, per the engine's dimension-broadcast convention.
    """
    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_quantity"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch.copy()
        b["sum_qty"] = np.rint(b.pop("l_quantity").to_numpy()).astype(np.int64)
        return b.groupby("l_orderkey", as_index=False)["sum_qty"].sum()

    def sum_and_filter(df: pd.DataFrame) -> pd.DataFrame:
        # per-order keys are high-cardinality -> hash-bucket reduce
        # (stages/agg.py); groups are complete within a bucket, so the
        # HAVING filter and the key rename apply right here
        out = df.groupby("l_orderkey", as_index=False)["sum_qty"].sum()
        out = out[out["sum_qty"] > min_qty]
        return out.rename(columns={"l_orderkey": "o_orderkey"})

    per_order = hash_bucket_agg(
        li.map_batches(partial, batch_format="pandas"), "l_orderkey", sum_and_filter
    )

    orders = _read(
        sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"]
    )
    joined = bucketed_hash_join(
        orders,
        per_order,
        key="o_orderkey",
        left_schema={
            "o_orderkey": pa.int64(),
            "o_custkey": pa.int64(),
            "o_orderdate": pa.timestamp("us"),
            "o_totalprice": pa.float64(),
        },
        right_schema={"o_orderkey": pa.int64(), "sum_qty": pa.int64()},
    )

    import pyarrow.parquet as pq

    from ..stages.join import BroadcastJoinStage
    from ..stages.statecache import make_stage_fn

    cust = (
        pq.read_table(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"])
        .to_pandas()
        .rename(columns={"c_custkey": "o_custkey"})
    )

    with_name = joined.map_batches(
        make_stage_fn(BroadcastJoinStage, ray.put(cust), "o_custkey"),
        batch_format="pandas",
    )

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "c_name": batch["c_name"],
                "o_orderkey": batch["o_orderkey"],
                "o_orderdate": batch["o_orderdate"].astype("datetime64[us]"),
                "price_cents": np.rint(
                    batch["o_totalprice"].to_numpy() * 100
                ).astype(np.int64),
                "sum_qty": batch["sum_qty"].astype(np.int64),
            }
        )

    return with_name.map_batches(finish, batch_format="pandas")


Q18_SQL = f"""
SELECT c.c_name, o.o_orderkey, o.o_orderdate,
       CAST(round(o.o_totalprice * 100) AS BIGINT) AS price_cents,
       lq.sum_qty
FROM (
  SELECT l_orderkey, CAST(sum(CAST(round(l_quantity) AS BIGINT)) AS BIGINT) AS sum_qty
  FROM lineitem GROUP BY l_orderkey HAVING sum_qty > {Q18_MIN_QTY}
) lq
JOIN orders o ON o.o_orderkey = lq.l_orderkey
JOIN customer c ON c.c_custkey = o.o_custkey
"""


# ---------------------------------------------------------------------------
# TPC-H Q10 analog: returned-item revenue per customer, top 20.
# ---------------------------------------------------------------------------

Q10_QTR = ("1996-01-01", "1996-04-01")


def q10_returned_revenue(sf_dir, k=20):
    """Revenue lost to returns per customer for one order quarter.

    orders (quarter filter pushed to the scan) |><| lineitem(R) through
    the engine's bucketed hash join; per-customer partial sums before the
    final small groupby; customer names broadcast-merged at the end.
    """
    lo = np.datetime64(Q10_QTR[0], "us")
    hi = np.datetime64(Q10_QTR[1], "us")
    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_orderdate"])
    orders = orders.map_batches(
        lambda b: b.filter(
            pc.and_(
                pc.greater_equal(b.column("o_orderdate"), pa.scalar(lo)),
                pc.less(b.column("o_orderdate"), pa.scalar(hi)),
            )
        ),
        batch_format="pyarrow",
    ).drop_columns(["o_orderdate"])

    li = _read(
        sf_dir,
        "lineitem",
        columns=["l_orderkey", "l_returnflag", "l_extendedprice", "l_discount"],
    )

    def returned_revenue(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.equal(batch.column("l_returnflag"), "R"))
        price_c = _int_cents(batch.column("l_extendedprice"))
        disc = np.rint(
            batch.column("l_discount").to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        return pa.table(
            {
                "o_orderkey": batch.column("l_orderkey"),
                "revenue_micros": pa.array(price_c * (100 - disc), pa.int64()),
            }
        )

    li = li.map_batches(returned_revenue, batch_format="pyarrow")
    joined = bucketed_hash_join(orders, li, "o_orderkey")

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.groupby("o_custkey", as_index=False)["revenue_micros"].sum()

    from ..stages.topk import topk_rows

    per_cust = topk_rows(
        hash_bucket_agg(
            joined.map_batches(partial, batch_format="pandas"),
            "o_custkey",
            lambda df: df.groupby("o_custkey", as_index=False)[
                "revenue_micros"
            ].sum(),
        ),
        ["revenue_micros", "o_custkey"],
        [True, False],
        k,
    )

    # the result is k rows by construction — collect it, then read ONLY
    # those k customers' names (predicate pushed into the Parquet scan:
    # k keys, not the 150k x sf dimension, leave storage)
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    top = per_cust.to_pandas()
    keys = top["o_custkey"].tolist()
    cust = (
        pq.read_table(
            f"{sf_dir}/customer.parquet",
            columns=["c_custkey", "c_name"],
            filters=pads.field("c_custkey").isin(keys),
        )
        .to_pandas()
        .rename(columns={"c_custkey": "o_custkey"})
    )
    out = top.merge(cust, on="o_custkey", how="left")
    # hand back a Dataset like every other queries() entry (uniform
    # consumer contract); 20 rows, so from_pandas is free
    return ray.data.from_pandas(out[["o_custkey", "c_name", "revenue_micros"]])


Q10_SQL = f"""
SELECT o_custkey, c_name, revenue_micros FROM (
  SELECT o.o_custkey, any_value(c.c_name) AS c_name,
         CAST(sum(CAST(round(l.l_extendedprice * 100) AS BIGINT)
             * (100 - CAST(round(l.l_discount * 100) AS BIGINT))) AS BIGINT)
           AS revenue_micros
  FROM orders o
  JOIN lineitem l ON l.l_orderkey = o.o_orderkey AND l.l_returnflag = 'R'
  JOIN customer c ON c.c_custkey = o.o_custkey
  WHERE o.o_orderdate >= TIMESTAMP '{Q10_QTR[0]} 00:00:00'
    AND o.o_orderdate < TIMESTAMP '{Q10_QTR[1]} 00:00:00'
  GROUP BY o.o_custkey
) ORDER BY revenue_micros DESC, o_custkey LIMIT 20
"""


# ---------------------------------------------------------------------------
# Exact distributed quantiles (discrete) — two-level value-count reduce.
# ---------------------------------------------------------------------------

QUANTILES = (0.25, 0.5, 0.75, 0.9)


def value_quantiles_per_type(sf_dir):
    """Exact discrete quantiles of event value (cents) per event_type.

    Scale shape: per-batch (type, cents) partial counts, a groupby on the
    composite key (distinct cents per type is bounded by the price grid,
    ~50k values, NOT by row count), then an exchange on the type whose
    reduce sorts each type's distinct values in its block and indexes
    their cumulative counts. No full
    sort of the data, no per-row shuffle — the exchange moves counts.
    """
    ds = _read(sf_dir, "events", columns=["event_type", "value"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        b = pd.DataFrame(
            {
                "event_type": batch["event_type"],
                "cents": np.rint(batch["value"].to_numpy() * 100).astype(np.int64),
            }
        )
        out = b.groupby(["event_type", "cents"], as_index=False).size()
        return out.rename(columns={"size": "n"})

    counts = hash_bucket_agg(
        ds.map_batches(partial, batch_format="pandas"),
        "cents",
        lambda df: df.groupby(["event_type", "cents"], as_index=False)["n"].sum(),
    )

    def quantiles(block: pd.DataFrame) -> pd.DataFrame:
        g = block.sort_values(["event_type", "cents"], kind="mergesort")
        per = g.groupby("event_type")["n"]
        cum, total = per.cumsum(), per.transform("sum")
        cols = {}
        for q in QUANTILES:
            # quantile_disc: smallest value with cum >= ceil(q * total)
            hit = g[(cum >= np.ceil(q * total)).to_numpy()]
            cols[f"p{int(q * 100)}_cents"] = hit.groupby("event_type")["cents"].first()
        return pd.DataFrame(cols).rename_axis("event_type").reset_index()

    return hash_bucket_agg(counts, "event_type", quantiles)


QUANTILES_SQL = """
SELECT event_type,
       quantile_disc(cents, 0.25) AS p25_cents,
       quantile_disc(cents, 0.50) AS p50_cents,
       quantile_disc(cents, 0.75) AS p75_cents,
       quantile_disc(cents, 0.90) AS p90_cents
FROM (SELECT event_type, CAST(round(value * 100) AS BIGINT) AS cents FROM events)
GROUP BY event_type
"""


# ---------------------------------------------------------------------------
# Range join (interval join): per purchase, clicks in the preceding hour.
# ---------------------------------------------------------------------------

RANGE_JOIN_WINDOW_US = 3_600_000_000  # 1 hour


def range_join_clicks(sf_dir, window_us=RANGE_JOIN_WINDOW_US):
    """For every purchase, how many clicks the same user made in
    ``[ts - window, ts)``.

    Ray Data has no interval join; the scale-sane composition is ONE
    shuffle on hash buckets of user_id (the natural partitioning key —
    intervals never cross users; stages/agg.py) and an in-bucket range
    count: per user segment, the sorted click array + two np.searchsorted
    calls give every purchase's [lo, hi) click window (numpy slicing per
    segment costs ~us, vs the ~0.6 ms/group of one Ray group per user).
    The exchange moves only (user_id, ts, event_id, type) — no pairwise
    expansion ever materializes, unlike the naive theta-join which is
    O(clicks x purchases) per user.
    """
    ds = _read(sf_dir, "events", columns=["event_id", "user_id", "ts", "event_type"])
    ds = ds.map_batches(
        lambda b: b.filter(
            pc.is_in(b.column("event_type"), value_set=pa.array(["click", "purchase"]))
        ),
        batch_format="pyarrow",
    )

    def count_range(bucket: pd.DataFrame) -> pd.DataFrame:
        g = bucket.sort_values(["user_id", "ts"], kind="mergesort")
        u = g["user_id"].to_numpy()
        ts = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        eid = g["event_id"].to_numpy()
        is_click = (g["event_type"] == "click").to_numpy()
        new = np.ones(len(g), dtype=bool)
        if len(g):
            new[1:] = u[1:] != u[:-1]
        starts = np.flatnonzero(new)
        ends = np.append(starts[1:], len(g))
        frames = []
        for s, e in zip(starts, ends):
            seg_click = is_click[s:e]
            click_ts = ts[s:e][seg_click]  # already ts-sorted
            pmask = ~seg_click
            pts = ts[s:e][pmask]
            lo = np.searchsorted(click_ts, pts - window_us, side="left")
            hi = np.searchsorted(click_ts, pts, side="left")
            frames.append(
                pd.DataFrame(
                    {
                        "event_id": eid[s:e][pmask],
                        "user_id": u[s:e][pmask],
                        "ts": pts.astype("datetime64[us]"),
                        "n_clicks_1h": (hi - lo).astype(np.int64),
                    }
                )
            )
        if not frames:
            return pd.DataFrame(
                {
                    "event_id": pd.Series([], dtype=np.int64),
                    "user_id": pd.Series([], dtype=np.int64),
                    "ts": pd.Series([], dtype="datetime64[us]"),
                    "n_clicks_1h": pd.Series([], dtype=np.int64),
                }
            )
        return pd.concat(frames, ignore_index=True)

    return hash_bucket_agg(ds, "user_id", count_range)


RANGE_JOIN_SQL = f"""
SELECT p.event_id, p.user_id, p.ts, CAST(count(c.event_id) AS BIGINT) AS n_clicks_1h
FROM events p
LEFT JOIN events c
  ON c.user_id = p.user_id AND c.event_type = 'click'
  AND epoch_us(c.ts) >= epoch_us(p.ts) - {RANGE_JOIN_WINDOW_US}
  AND c.ts < p.ts
WHERE p.event_type = 'purchase'
GROUP BY p.event_id, p.user_id, p.ts
"""


# ---------------------------------------------------------------------------
# LEFT outer join: every customer with order count + spend (0 if none).
# ---------------------------------------------------------------------------


def customer_order_counts(sf_dir):
    """All customers with their order count and total spend in cents.

    The orders side collapses to per-customer partials BEFORE the join
    (the aggregate is at most |customers| rows), then the engine's
    bucketed hash join runs with ``how='left'`` so customers without
    orders survive with zeros. Both sides shuffle once on the customer
    key; no driver-side materialization.
    """
    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_name"])
    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        b = pd.DataFrame(
            {
                "c_custkey": batch["o_custkey"],
                "n_orders": np.ones(len(batch), dtype=np.int64),
                "spend_cents": np.rint(
                    batch["o_totalprice"].to_numpy() * 100
                ).astype(np.int64),
            }
        )
        return b.groupby("c_custkey", as_index=False).sum()

    per_cust = hash_bucket_agg(
        orders.map_batches(partial, batch_format="pandas"),
        "c_custkey",
        lambda df: df.groupby("c_custkey", as_index=False).sum(),
    )
    joined = bucketed_hash_join(
        cust,
        per_cust,
        key="c_custkey",
        how="left",
        left_schema={"c_custkey": pa.int64(), "c_name": pa.string()},
        right_schema={
            "c_custkey": pa.int64(),
            "n_orders": pa.int64(),
            "spend_cents": pa.int64(),
        },
    )

    def fill_zero(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        for c in ("n_orders", "spend_cents"):
            batch[c] = batch[c].fillna(0).astype(np.int64)
        return batch

    return joined.map_batches(fill_zero, batch_format="pandas")


CUSTOMER_ORDER_COUNTS_SQL = """
SELECT c.c_custkey, c.c_name,
       CAST(count(o.o_custkey) AS BIGINT) AS n_orders,
       CAST(coalesce(sum(CAST(round(o.o_totalprice * 100) AS BIGINT)), 0) AS BIGINT)
         AS spend_cents
FROM customer c LEFT JOIN orders o ON o.o_custkey = c.c_custkey
GROUP BY c.c_custkey, c.c_name
"""


# ---------------------------------------------------------------------------
# Lag window: gap to the previous event of the same user.
# ---------------------------------------------------------------------------


def event_gaps(sf_dir):
    """(event_id, user_id, gap_us) for every event with a predecessor.

    The lag window over (user_id ORDER BY ts, event_id) as one
    user-bucketed shuffle (stages/agg.py — user cardinality grows with
    the data, so the reduce must not be one Ray group per user) + a
    vectorized whole-bucket diff with boundary masking; no per-row or
    per-user Python.
    """
    ds = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"])

    def gaps(bucket: pd.DataFrame) -> pd.DataFrame:
        g = bucket.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        u = g["user_id"].to_numpy()
        ts = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        same = np.zeros(len(g), dtype=bool)
        same[1:] = u[1:] == u[:-1]
        gap = np.empty(len(g), dtype=np.int64)
        if len(g) > 1:
            gap[1:] = ts[1:] - ts[:-1]
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy()[same],
                "user_id": u[same],
                "gap_us": gap[same],
            }
        )

    return hash_bucket_agg(ds, "user_id", gaps)


EVENT_GAPS_SQL = """
SELECT event_id, user_id, gap_us FROM (
  SELECT event_id, user_id,
         epoch_us(ts) - lag(epoch_us(ts)) OVER (
             PARTITION BY user_id ORDER BY ts, event_id) AS gap_us
  FROM events
) WHERE gap_us IS NOT NULL
"""


# ---------------------------------------------------------------------------
# Set operation (INTERSECT): users who both clicked and purchased.
# ---------------------------------------------------------------------------


def users_click_and_purchase(sf_dir):
    """user_ids present in BOTH the click and the purchase event sets.

    Distributed INTERSECT: distinct (user, type) pairs collapse in ONE
    user-bucketed exchange (per-batch drop_duplicates first; a user's
    rows are complete within their bucket, so the count==2 filter runs
    right there, vectorized) — no side ever materializes as a driver
    set, and the exchange moves at most one row per (batch, user, type).
    """
    ds = _read(sf_dir, "events", columns=["user_id", "event_type"])
    ds = ds.map_batches(
        lambda b: b.filter(
            pc.is_in(b.column("event_type"), value_set=pa.array(["click", "purchase"]))
        ),
        batch_format="pyarrow",
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.drop_duplicates()

    def both_types(df: pd.DataFrame) -> pd.DataFrame:
        d = df.drop_duplicates()
        g = d.groupby("user_id", as_index=False).size()
        return g.loc[g["size"] == 2, ["user_id"]]

    return hash_bucket_agg(
        ds.map_batches(partial, batch_format="pandas"), "user_id", both_types
    )


INTERSECT_SQL = """
SELECT user_id FROM events WHERE event_type = 'click'
INTERSECT
SELECT user_id FROM events WHERE event_type = 'purchase'
"""


# ---------------------------------------------------------------------------
# Pivot: day x event_type counts, wide.
# ---------------------------------------------------------------------------

PIVOT_TYPES = ("click", "purchase", "signup", "view", "error")


def events_pivot(sf_dir):
    """One row per day with a count column per event type.

    Per-batch (day, type) partial counts, then ONE exchange on the day:
    each block sums its partials per (day, type) and reshapes them wide.
    The exchange moves at most one row per (batch, day, type). Fixed
    column set (schema is static), unknown types counted into none.
    """
    ds = _read(sf_dir, "events", columns=["ts", "event_type"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        b = pd.DataFrame(
            {
                "day": batch["ts"].to_numpy().astype("datetime64[D]").astype("datetime64[us]"),
                "event_type": batch["event_type"],
            }
        )
        out = b.groupby(["day", "event_type"], as_index=False).size()
        return out.rename(columns={"size": "n"})

    def widen(block: pd.DataFrame) -> pd.DataFrame:
        # unknown types fall out of the reindex: counted into no column
        wide = block.groupby(["day", "event_type"])["n"].sum().unstack(fill_value=0)
        wide = wide.reindex(columns=list(PIVOT_TYPES), fill_value=0).add_prefix("n_")
        return wide.rename_axis(columns=None).reset_index()

    out = hash_bucket_agg(ds.map_batches(partial, batch_format="pandas"), "day", widen)
    return out.map_batches(_cast_ts_us("day"), batch_format="pyarrow")


PIVOT_SQL = (
    "SELECT CAST(date_trunc('day', ts) AS TIMESTAMP) AS day, "
    + ", ".join(
        f"CAST(sum(CASE WHEN event_type = '{t}' THEN 1 ELSE 0 END) AS BIGINT) AS n_{t}"
        for t in PIVOT_TYPES
    )
    + " FROM events GROUP BY 1"
)


# ---------------------------------------------------------------------------
# Late-event detection (the watermark primitive for streaming ingestion).
# ---------------------------------------------------------------------------


# Deterministic simulated network reorder: the synthetic events table is
# perfectly event-time-ordered by event_id, so a watermark over true
# ingestion order finds nothing. Both the engine and the SQL twin derive
# arrival_pos = event_id + (event_id * KNUTH) % JITTER — a bounded, fully
# deterministic shuffle of arrival order (Knuth multiplicative hash).
_ARRIVAL_KNUTH = 2654435761
_ARRIVAL_JITTER = 4096


def late_events(sf_dir):
    """Events that arrived AFTER later event-time had already been seen
    for the same user — the set a watermarking ingester would quarantine.

    An event is late by ``lateness_us`` if its event time precedes the
    running max event time of the user's earlier-arriving events, where
    arrival order is the deterministic jittered sequence above (real
    deployments pass an ingestion-sequence column instead). One
    user-bucketed shuffle (stages/agg.py) + a whole-bucket running max
    (pandas Cython groupby.cummax over user segments) — no per-user
    Python.
    """
    ds = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"])

    def late(bucket: pd.DataFrame) -> pd.DataFrame:
        eid = bucket["event_id"].to_numpy()
        u = bucket["user_id"].to_numpy()
        # (eid % J) * (K % J) % J == (eid * K) % J — the reduced form
        # keeps every intermediate < J^2, so the BIGINT SQL twin cannot
        # overflow at any event_id (int64 numpy wrap gave the same value
        # here because J divides 2^64, but DuckDB raises instead of
        # wrapping)
        arrival = eid + ((eid % _ARRIVAL_JITTER) * (_ARRIVAL_KNUTH % _ARRIVAL_JITTER)) % _ARRIVAL_JITTER
        order = np.lexsort((eid, arrival, u))
        eid, u = eid[order], u[order]
        ts = bucket["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)[order]
        cummax = pd.Series(ts).groupby(u).cummax().to_numpy()
        run_max_prev = np.empty(len(ts), dtype=np.int64)
        if len(ts):
            run_max_prev[0] = np.iinfo(np.int64).min
            same = u[1:] == u[:-1]
            run_max_prev[1:] = np.where(same, cummax[:-1], np.iinfo(np.int64).min)
        is_late = ts < run_max_prev
        return pd.DataFrame(
            {
                "event_id": eid[is_late],
                "user_id": u[is_late],
                "lateness_us": (run_max_prev - ts)[is_late],
            }
        )

    return hash_bucket_agg(ds, "user_id", late)


LATE_EVENTS_SQL = f"""
SELECT event_id, user_id, max_prev - epoch_us(ts) AS lateness_us FROM (
  SELECT event_id, user_id, ts,
         max(epoch_us(ts)) OVER (
             PARTITION BY user_id
             ORDER BY event_id + ((event_id % {_ARRIVAL_JITTER})
                      * {_ARRIVAL_KNUTH % _ARRIVAL_JITTER}) % {_ARRIVAL_JITTER},
                      event_id
             ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS max_prev
  FROM events
) WHERE max_prev > epoch_us(ts)
"""


# ---------------------------------------------------------------------------
# Q4 analog: orders with any late shipment, counted per priority.
# (The real TPC-H Q4 keys on l_commitdate/l_receiptdate, which this
# schema lacks; "shipped > 30 days after the order date" is the same
# EXISTS-semi-join shape over the columns present.)
# ---------------------------------------------------------------------------

Q4_LATE_DAYS = 30


def q4_late_shipments(sf_dir):
    """Per-priority count of orders with any lineitem shipped more than
    ``Q4_LATE_DAYS`` days after the order date.

    EXISTS collapses to max(l_shipdate) per order: lineitem pre-reduces
    to per-orderkey partials inside map_batches (at most |orders| rows
    leave each task), a hash-bucket max (per-order keys are
    high-cardinality — stages/agg.py), one bucketed hash join against
    orders, then a 5-row priority count. No semi-join pair blowup at
    any scale.
    """
    orders = _read(
        sf_dir, "orders", columns=["o_orderkey", "o_orderdate", "o_orderpriority"]
    )
    line = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_shipdate"])

    def partial_max(batch: pd.DataFrame) -> pd.DataFrame:
        b = pd.DataFrame(
            {
                "o_orderkey": batch["l_orderkey"],
                "ship_us": batch["l_shipdate"]
                .to_numpy()
                .astype("datetime64[us]")
                .astype(np.int64),
            }
        )
        return b.groupby("o_orderkey", as_index=False).max()

    per_order = hash_bucket_agg(
        line.map_batches(partial_max, batch_format="pandas"),
        "o_orderkey",
        lambda df: df.groupby("o_orderkey", as_index=False).max(),
    )
    joined = bucketed_hash_join(
        orders,
        per_order,
        key="o_orderkey",
        left_schema={
            "o_orderkey": pa.int64(),
            "o_orderdate": pa.timestamp("us"),
            "o_orderpriority": pa.string(),
        },
        right_schema={"o_orderkey": pa.int64(), "ship_us": pa.int64()},
    )
    late_us = Q4_LATE_DAYS * 86_400_000_000

    def late_partial(batch: pd.DataFrame) -> pd.DataFrame:
        od_us = batch["o_orderdate"].to_numpy().astype("datetime64[us]").astype(np.int64)
        is_late = batch["ship_us"].to_numpy() > od_us + late_us
        b = pd.DataFrame(
            {
                "o_orderpriority": batch["o_orderpriority"].to_numpy()[is_late],
                "n_late": np.ones(int(is_late.sum()), dtype=np.int64),
            }
        )
        return b.groupby("o_orderpriority", as_index=False).sum()

    return (
        joined.map_batches(late_partial, batch_format="pandas")
        .groupby("o_orderpriority")
        .aggregate(Sum("n_late", alias_name="n_late"))
    )


Q4_SQL = f"""
SELECT o_orderpriority, CAST(count(*) AS BIGINT) AS n_late
FROM orders o
WHERE EXISTS (SELECT 1 FROM lineitem l
              WHERE l.l_orderkey = o.o_orderkey
                AND l.l_shipdate > o.o_orderdate + INTERVAL {Q4_LATE_DAYS} DAY)
GROUP BY o_orderpriority
"""


# ---------------------------------------------------------------------------
# Cumulative window: running spend per user over the event stream.
# ---------------------------------------------------------------------------


def user_running_value(sf_dir):
    """(event_id, user_id, cum_value_cents): each user's running total of
    event value in exact integer cents, ordered by (ts, event_id).

    One user-bucketed exchange (stages/agg.py) + a whole-bucket cumsum
    rebased per user segment (cumsum decomposes: global running sum
    minus the segment-start base) — no per-user Python. Integer cents
    keep the running sum order-independent and bit-exact vs the SQL
    window twin.
    """
    ds = _read(sf_dir, "events", columns=["event_id", "user_id", "ts", "value"])

    def running(bucket: pd.DataFrame) -> pd.DataFrame:
        g = bucket.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        u = g["user_id"].to_numpy()
        cents = np.rint(g["value"].to_numpy() * 100).astype(np.int64)
        cum = np.cumsum(cents)
        new = np.ones(len(g), dtype=bool)
        new[1:] = u[1:] != u[:-1]
        starts = np.flatnonzero(new)
        seg_len = np.diff(np.append(starts, len(g)))
        base = np.where(starts > 0, cum[starts - 1], 0)
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy(),
                "user_id": u,
                "cum_value_cents": cum - np.repeat(base, seg_len),
            }
        )

    return hash_bucket_agg(ds, "user_id", running)


USER_RUNNING_VALUE_SQL = """
SELECT event_id, user_id,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) OVER (
           PARTITION BY user_id ORDER BY ts, event_id
           ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS BIGINT)
         AS cum_value_cents
FROM events
"""


# ---------------------------------------------------------------------------
# KMV distinct-count sketch: approximate distinct users per event type.
# ---------------------------------------------------------------------------

KMV_K = 64
KMV_SALT = 0x4B4D56  # distinct hash stream ("KMV")


def approx_distinct_users_kmv(sf_dir, k=KMV_K):
    """(event_type, n_users_approx): KMV (k-minimum-values / bottom-k)
    distinct-count sketch — the mergeable theta-sketch primitive that
    replaces exact COUNT(DISTINCT) when per-key member sets no longer
    fit a reducer.

    Estimator: with h_k the k-th smallest distinct splitmix64(user_id),
    n ~= (k-1) * 2^64 / h_k (exact count when fewer than k distinct
    hashes exist). Integer-only arithmetic, so the DuckDB twin matches
    bit-for-bit — no float harmonic means (the reason KMV is chosen here
    over HyperLogLog, whose bias corrections float-diverge).

    Scale: each batch forwards at most k hashes per type (partial
    bottom-k), the exchange moves k rows per (batch, type), and the
    final per-type merge touches k*batches rows — member sets never
    concentrate anywhere, unlike distinct_users_per_type's exact
    two-level count.
    """
    from ..stages.sampling import splitmix64

    ds = _read(sf_dir, "events", columns=["event_type", "user_id"])
    salt = np.uint64(KMV_SALT)

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch.drop_duplicates()
        h = splitmix64(b["user_id"].to_numpy().astype(np.uint64) ^ salt)
        # shift into int64 order-preservingly (uint64 msb -> sign bit)
        out = pd.DataFrame(
            {
                "event_type": b["event_type"].to_numpy(),
                "h": (h - np.uint64(1 << 63)).view(np.int64),
            }
        ).drop_duplicates()
        out = out.sort_values(["event_type", "h"], kind="mergesort")
        return out.groupby("event_type", as_index=False).head(k)

    def final(block: pd.DataFrame) -> pd.DataFrame:
        # each type's distinct hashes, consecutive and in u64 order
        d = block.drop_duplicates().sort_values(["event_type", "h"], kind="mergesort")
        n = d.groupby("event_type", sort=False).size()
        hs = d["h"].to_numpy()
        est = [
            # k-th smallest hash back to its unsigned value
            c if c < k else (k - 1) * (1 << 64) // (int(hs[i + k - 1]) + (1 << 63))
            for i, c in zip((np.cumsum(n) - n).tolist(), n.tolist())
        ]
        return pd.DataFrame(
            {"event_type": n.index.to_numpy(), "n_users_approx": np.array(est, dtype=np.int64)}
        )

    return hash_bucket_agg(
        ds.map_batches(partial, batch_format="pandas"), "event_type", final
    )


def approx_distinct_users_kmv_sql(k=KMV_K):
    from ..stages.sampling import splitmix64_sql

    h = splitmix64_sql(f"xor(CAST(user_id AS HUGEINT), {KMV_SALT})")
    return f"""
WITH hashes AS (
  SELECT DISTINCT event_type, ({h}) AS h FROM events
), ranked AS (
  SELECT event_type, h,
         row_number() OVER (PARTITION BY event_type ORDER BY h) AS r,
         count(*) OVER (PARTITION BY event_type) AS c
  FROM hashes
)
SELECT event_type,
       CAST(CASE WHEN c < {int(k)} THEN c
            ELSE ({int(k)} - 1) * {1 << 64}::HUGEINT // h END AS BIGINT)
         AS n_users_approx
FROM ranked
WHERE r = CASE WHEN c < {int(k)} THEN c ELSE {int(k)} END
"""


# ---------------------------------------------------------------------------
# ROLLUP: day x event_type counts with per-day subtotals + grand total.
# ---------------------------------------------------------------------------


def events_rollup(sf_dir):
    """GROUP BY ROLLUP(day, event_type) over the event stream: detail
    rows, per-day subtotals, and the grand total, with 'ALL' sentinels
    instead of SQL's rollup NULLs (strings hash/compare cleanly).

    The detail aggregate is bounded (days x 5 types), so Ray's native
    groupby is fine; the two rollup levels are derived FROM the detail
    result (tiny) — the raw stream is read once.
    """
    ds = _read(sf_dir, "events", columns=["ts", "event_type"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        b = pd.DataFrame(
            {
                "day": batch["ts"]
                .to_numpy()
                .astype("datetime64[D]")
                .astype("datetime64[us]"),
                "event_type": batch["event_type"],
            }
        )
        out = b.groupby(["day", "event_type"], as_index=False).size()
        out["day"] = out["day"].dt.strftime("%Y-%m-%d")
        return out.rename(columns={"size": "n"})

    detail = (
        ds.map_batches(partial, batch_format="pandas")
        .groupby(["day", "event_type"])
        .aggregate(Sum("n", alias_name="n"))
        # three consumers below (detail rows, day subtotals, grand total):
        # pin the bounded detail result so the raw stream really is read
        # once, not re-executed per union branch
        .materialize()
    )
    sub = (
        detail.groupby("day")
        .aggregate(Sum("n", alias_name="n"))
        .map_batches(
            lambda df: df.assign(event_type="ALL"), batch_format="pandas"
        )
    )
    grand = (
        detail.map_batches(
            lambda df: df.assign(__g=np.int64(0)), batch_format="pandas"
        )
        .groupby("__g")
        .aggregate(Sum("n", alias_name="n"))
        .map_batches(
            lambda df: pd.DataFrame(
                {"day": ["ALL"], "event_type": ["ALL"], "n": df["n"]}
            ),
            batch_format="pandas",
        )
    )
    cols = ["day", "event_type", "n"]
    reorder = lambda df: df[cols]  # noqa: E731 - tiny projection
    return (
        detail.map_batches(reorder, batch_format="pandas")
        .union(sub.map_batches(reorder, batch_format="pandas"))
        .union(grand)
    )


ROLLUP_SQL = """
WITH base AS (
  SELECT strftime(date_trunc('day', ts), '%Y-%m-%d') AS day, event_type
  FROM events
)
SELECT COALESCE(day, 'ALL') AS day,
       COALESCE(event_type, 'ALL') AS event_type,
       CAST(count(*) AS BIGINT) AS n
FROM base GROUP BY ROLLUP (day, event_type)
"""


EXCEPT_VALUE_CUTOFF = 90


def users_click_no_purchase(sf_dir, cutoff=EXCEPT_VALUE_CUTOFF):
    """user_ids who clicked but never made a high-value purchase
    (value > cutoff) — distributed EXCEPT.

    Same single user-bucketed exchange as the INTERSECT twin
    (users_click_and_purchase): each side collapses to distinct
    (user, side) rows per batch, a user's rows are complete within
    their bucket, and the set difference runs there vectorized.
    """
    ds = _read(sf_dir, "events", columns=["user_id", "event_type", "value"])

    def sides(batch: pd.DataFrame) -> pd.DataFrame:
        is_a = (batch["event_type"] == "click").to_numpy()
        is_b = (
            (batch["event_type"] == "purchase") & (batch["value"] > cutoff)
        ).to_numpy()
        out = pd.DataFrame(
            {
                "user_id": batch["user_id"].to_numpy()[is_a | is_b],
                "side": np.where(is_a[is_a | is_b], 0, 1).astype(np.int8),
            }
        )
        return out.drop_duplicates()

    def except_filter(df: pd.DataFrame) -> pd.DataFrame:
        d = df.drop_duplicates()
        a = d.loc[d["side"] == 0, "user_id"]
        b = d.loc[d["side"] == 1, "user_id"]
        keep = a[~a.isin(b)].to_numpy()
        return pd.DataFrame({"user_id": np.sort(keep)})

    return hash_bucket_agg(
        ds.map_batches(sides, batch_format="pandas"), "user_id", except_filter
    )


EXCEPT_SQL = f"""
SELECT DISTINCT user_id FROM events WHERE event_type = 'click'
EXCEPT
SELECT DISTINCT user_id FROM events
WHERE event_type = 'purchase' AND value > {EXCEPT_VALUE_CUTOFF}
"""
