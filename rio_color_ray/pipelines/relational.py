"""Relational pipelines over the TPC-H-ish tables + the events stream.

Money/quantity columns are converted ONCE per batch to exact integers
(cents / percent, via np.rint on values that are 2-decimal by
construction), so every aggregate is an int64 sum that matches the DuckDB
oracle bit-for-bit — no float summation-order hazards.

Every table is read by ``io.read_table`` (one block per CPU). Join and
reduce strategy per query (the explicit scale decisions):
* a small dimension side (a customer subset, customer nations or names)
  -> ``broadcast_join`` (q3, q5, q18)
* two large sides on an order or customer key -> the explicit
  ``bucketed_hash_join`` (q3, q4, q5, q10, q18, customer_order_counts;
  all oracle-checked)
* aggregates -> one keyed aggregate (stages/agg.py): an Arrow group_by
  combines each map block, the same group_by reduces each bucket; top-k
  -> ``keyed_topk``; sessions, windows, as-of and range joins ->
  ``keyed_scan``
"""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..ctx import collect
from ..io import read_table
from ..stages.agg import _sorted_runs, keyed_agg, keyed_scan, keyed_topk, run_cumsum, run_position
from ..stages.join import broadcast_join, bucketed_hash_join

Q1_CUTOFF = "1998-09-02"
Q3_DATE = "1997-01-01"


# the lineitem side every orders |><| lineitem join here declares, so the
# join runs no schema probe of its own (stages/join.py)
_REVENUE_SCHEMA = {"o_orderkey": pa.int64(), "revenue_micros": pa.int64()}
_ORDER_KEYS_SCHEMA = {"o_orderkey": pa.int64(), "o_custkey": pa.int64()}


def _int_cents(col):
    return np.rint(col.to_numpy(zero_copy_only=False) * 100).astype(np.int64)


def _epoch_us(col):
    """A ``timestamp[us]`` column as int64 microseconds."""
    return col.cast(pa.int64()).to_numpy()


def _run_rank_keys(start, *values):
    """Every row's (run, dense rank of its value) as one int64
    ``run * n_distinct + rank``, for each of the equal-length ``values``
    arrays of a keyed-scan block, and the distinct values.

    Ranks are dense over all ``values``, so within a run keys compare as
    values do, and every later run's keys are larger: a block-wide
    searchsorted or running max never crosses a run, and
    ``distinct[key % n_distinct]`` reads a key's value back. The key fits
    int64 while ``n_runs * n_distinct < 2**63``; both are at most the
    rows times ``len(values)``, so any block under 2 * 10^9 rows fits.
    """
    distinct, rank = np.unique(np.concatenate(values), return_inverse=True)
    n_runs = int(start.sum())
    if n_runs * len(distinct) >= 2**63:
        raise OverflowError(f"(run, rank) key of {n_runs} runs x {len(distinct)} values overflows int64")
    run = np.cumsum(start) - 1
    return run * len(distinct) + rank.reshape(len(values), -1), distinct


def q1_pricing_summary(sf_dir):
    """TPC-H Q1 analog with exact integer aggregates."""
    ds = read_table(
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

    def rows(batch: pa.Table) -> pa.Table:
        batch = batch.filter(
            pc.less_equal(batch.column("l_shipdate"), pa.scalar(np.datetime64(Q1_CUTOFF, "us")))
        )
        qty = np.rint(batch.column("l_quantity").to_numpy(zero_copy_only=False)).astype(np.int64)
        price_c = _int_cents(batch.column("l_extendedprice"))
        disc_pct = np.rint(batch.column("l_discount").to_numpy(zero_copy_only=False) * 100).astype(np.int64)
        tax_pct = np.rint(batch.column("l_tax").to_numpy(zero_copy_only=False) * 100).astype(np.int64)
        return pa.table(
            {
                "l_returnflag": batch.column("l_returnflag"),
                "l_linestatus": batch.column("l_linestatus"),
                "sum_qty": qty,
                "sum_base_price_cents": price_c,
                "sum_disc_price_micros": price_c * (100 - disc_pct),
                "sum_charge_micros2": price_c * (100 - disc_pct) * (100 + tax_pct),
                "count_order": np.ones(batch.num_rows, np.int64),
            }
        )

    sums = ["sum_qty", "sum_base_price_cents", "sum_disc_price_micros", "sum_charge_micros2", "count_order"]
    return keyed_agg(
        ds.map_batches(rows, batch_format="pyarrow"),
        ["l_returnflag", "l_linestatus"],
        dict.fromkeys(sums, "sum"),
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

    customer -> broadcast semi-join; orders |><| lineitem -> the
    engine's bucketed hash join (task-based sort-shuffle exchange, not
    Ray's ``Dataset.join``, whose per-execution hash-aggregator actor
    pools cost ~2s of spawn and can wedge small nodes — ctx.py); exact
    integer revenue.
    """
    import pyarrow.parquet as pq

    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )
    building = cust.filter(pc.equal(cust.column("c_mktsegment"), "BUILDING"))
    building = pa.table({"o_custkey": building.column("c_custkey")})

    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_orderdate"])
    orders = broadcast_join(orders, building, "o_custkey", "right semi")
    orders = orders.map_batches(
        lambda b: b.filter(
            pc.less(b.column("o_orderdate"), pa.scalar(np.datetime64(Q3_DATE, "us")))
        ),
        batch_format="pyarrow",
    )

    li = read_table(sf_dir, "lineitem", columns=["l_orderkey", "l_extendedprice", "l_discount"])

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
    joined = bucketed_hash_join(
        orders,
        li,
        "o_orderkey",
        left_schema={**_ORDER_KEYS_SCHEMA, "o_orderdate": pa.timestamp("us")},
        right_schema=_REVENUE_SCHEMA,
    )

    per_order = keyed_agg(joined, "o_orderkey", {"revenue_micros": "sum"})
    order = [("revenue_micros", "descending"), ("o_orderkey", "ascending")]
    return keyed_topk(per_order, [], order, k).select_columns(["o_orderkey", "revenue_micros"])


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
    large-large side, a broadcast join for the dimensions."""
    import pyarrow.parquet as pq

    nation = pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"])
    cust = pq.read_table(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"])

    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    li = read_table(sf_dir, "lineitem", columns=["l_orderkey", "l_extendedprice", "l_discount"])

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
    joined = bucketed_hash_join(
        orders, li, key="o_orderkey", left_schema=_ORDER_KEYS_SCHEMA, right_schema=_REVENUE_SCHEMA
    )

    # customer |><| nation is small but NOT tiny (150k x sf rows): it
    # ships once through the object store (broadcast_join), not pickled
    # into every task
    cust_nation = cust.join(nation, "c_nationkey", "n_nationkey", join_type="inner", use_threads=False)
    cust_nation = cust_nation.select(["c_custkey", "n_name"]).rename_columns(["o_custkey", "n_name"])

    with_nation = broadcast_join(joined, cust_nation, "o_custkey")
    with_nation = with_nation.select_columns(["n_name", "revenue_micros"])

    return keyed_agg(with_nation, "n_name", {"revenue_micros": "sum"})


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
    ds = read_table(sf_dir, "events", columns=["ts", "event_type", "value"])

    def rows(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "day": pc.floor_temporal(batch.column("ts"), unit="day"),
                "event_type": batch.column("event_type"),
                "n_events": np.ones(batch.num_rows, np.int64),
                "value_cents": _int_cents(batch.column("value")),
            }
        )

    return keyed_agg(
        ds.map_batches(rows, batch_format="pyarrow"),
        ["day", "event_type"],
        {"n_events": "sum", "value_cents": "sum"},
    )


EVENTS_DAILY_SQL = """
SELECT date_trunc('day', ts) AS day, event_type,
       count(*) AS n_events,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS value_cents
FROM events GROUP BY 1, 2
"""


def top_users_by_value(sf_dir, k=10):
    ds = read_table(sf_dir, "events", columns=["user_id", "value"])

    def rows(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"user_id": batch.column("user_id"), "value_cents": _int_cents(batch.column("value"))}
        )

    out = keyed_agg(ds.map_batches(rows, batch_format="pyarrow"), "user_id", {"value_cents": "sum"})
    order = [("value_cents", "descending"), ("user_id", "ascending")]
    return keyed_topk(out, [], order, k).select_columns(["user_id", "value_cents"])


TOP_USERS_SQL = """
SELECT user_id, value_cents FROM (
  SELECT user_id, CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS value_cents
  FROM events GROUP BY user_id
) ORDER BY value_cents DESC, user_id LIMIT 10
"""


def distinct_users_per_type(sf_dir):
    """count(distinct user_id) via TWO-LEVEL exact distinct.

    Level 1 is a keyed aggregate with no aggregates on the (user_id,
    event_type) combo (stages/agg.py — the combo cardinality grows with
    the data, so the distinct collapse runs vectorized per exchange
    block, not one Ray group per combo), so no reducer ever holds one
    event_type's full user set (5 event types would otherwise mean 5
    giant groups at 100 TB). Level 2 sums one per combo row per type.
    """
    ds = read_table(sf_dir, "events", columns=["event_type", "user_id"])
    combos = keyed_agg(ds, ["user_id", "event_type"], {})

    def ones(batch: pa.Table) -> pa.Table:
        return batch.append_column("n_users", pa.array(np.ones(batch.num_rows, np.int64)))

    return keyed_agg(
        combos.map_batches(ones, batch_format="pyarrow"), "event_type", {"n_users": "sum"}
    )


DISTINCT_USERS_SQL = """
SELECT event_type, count(DISTINCT user_id) AS n_users FROM events GROUP BY event_type
"""


def q14_promo_revenue(sf_dir):
    """TPC-H Q14 analog: promo vs total revenue per ship month.

    ``part`` is the small side — read once on the driver, broadcast as a
    dense ``partkey -> is_promo`` int8 lookup array inside a stateless
    ``map_batches`` (no shuffle for the join); the monthly aggregate is a
    keyed sum. Exact integer micros.
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

    ds = read_table(
        sf_dir, "lineitem", columns=["l_partkey", "l_extendedprice", "l_discount", "l_shipdate"]
    )

    def rows(batch: pa.Table) -> pa.Table:
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
        return pa.table(
            {
                "ship_month": month,
                "promo_revenue_micros": rev * is_promo,
                "total_revenue_micros": rev,
            }
        )

    return keyed_agg(
        ds.map_batches(rows, batch_format="pyarrow"),
        "ship_month",
        {"promo_revenue_micros": "sum", "total_revenue_micros": "sum"},
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
    ds = read_table(sf_dir, "events", columns=["ts", "event_type", "value"])

    def rows(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts").to_numpy(zero_copy_only=False).astype("datetime64[us]").astype(np.int64)
        cents = _int_cents(batch.column("value"))
        etype = batch.column("event_type")
        w1 = (ts // SLIDE_US) * SLIDE_US  # latest window containing ts
        return pa.table(
            {
                "window_start": np.concatenate([w1, w1 - SLIDE_US]).astype("datetime64[us]"),
                "event_type": pa.chunked_array(etype.chunks * 2, etype.type),
                "n_events": np.ones(2 * len(cents), dtype=np.int64),
                "value_cents": np.concatenate([cents, cents]),
            }
        )

    return keyed_agg(
        ds.map_batches(rows, batch_format="pyarrow"),
        ["window_start", "event_type"],
        {"n_events": "sum", "value_cents": "sum"},
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

    One keyed scan on the user, ordered by ts (stages/agg.py): session
    breaks at user starts or >30min gaps, 1-based session ids as a
    running count of breaks restarted per user, and every session's
    bounds and sums read at its first and last row — no per-user Python.
    Output: one row per session with start/end/n_events/value_cents.
    """
    ds = read_table(sf_dir, "events", columns=["user_id", "ts", "value"])

    def sessions(g: pa.Table, start: np.ndarray) -> pa.Table:
        ts = _epoch_us(g.column("ts"))
        new = start.copy()
        new[1:] |= np.diff(ts) > SESSION_GAP_US
        first = np.flatnonzero(new)
        last = np.append(first[1:], len(new)) - 1
        return pa.table(
            {
                "user_id": g.column("user_id").take(first),
                "session_id": run_cumsum(new.astype(np.int64), start)[first],
                "session_start": ts[first].astype("datetime64[us]"),
                "session_end": ts[last].astype("datetime64[us]"),
                "n_events": last - first + 1,
                "value_cents": run_cumsum(_int_cents(g.column("value")), new)[last],
            }
        )

    return keyed_scan(ds, "user_id", [("ts", "ascending")], sessions)


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

    Pure read -> filter -> partial-sum map_batches -> a keyed sum over a
    constant key; the only exchange moves one partial row per block.
    Float filter literals compare against the same stored doubles DuckDB
    sees, so row selection is bit-identical.
    """
    ds = read_table(
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

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return keyed_agg(partials, "__k", {"revenue_micros": "sum"}).drop_columns(["__k"])


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

    Ray-Data-first shape: ONE keyed scan on the user (stages/agg.py)
    over the merged click+purchase stream, ordered by (ts, event_id):
    a block-wide running max of the click row index, discarded where it
    falls before the user's first row, gives every purchase its last
    click. No pandas merge_asof per pair of frames, no per-user Python,
    no driver collection. At 10^12 rows the user exchange is the same
    one sessionize pays.
    """
    ds = read_table(sf_dir, "events", columns=["event_id", "user_id", "ts", "event_type"])
    ds = ds.map_batches(
        lambda b: b.filter(
            pc.is_in(b.column("event_type"), value_set=pa.array(["click", "purchase"]))
        ),
        batch_format="pyarrow",
    )

    def asof(g: pa.Table, start: np.ndarray) -> pa.Table:
        ts = _epoch_us(g.column("ts"))
        eid = g.column("event_id").to_numpy()
        is_click = pc.equal(g.column("event_type"), "click").to_numpy(zero_copy_only=False)
        pos = np.arange(len(ts))
        # the most recent click at-or-before each row, if it is the user's
        last_click = np.maximum.accumulate(np.where(is_click, pos, -1))
        take = ~is_click & (last_click >= pos - run_position(start))
        src = last_click[take]
        return pa.table(
            {
                "event_id": eid[take],
                "user_id": g.column("user_id").to_numpy()[take],
                "purchase_ts": ts[take].astype("datetime64[us]"),
                "click_event_id": eid[src],
                "click_ts": ts[src].astype("datetime64[us]"),
                "gap_us": ts[take] - ts[src],
            }
        )

    return keyed_scan(ds, "user_id", [("ts", "ascending"), ("event_id", "ascending")], asof)


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
# Top-k per group (window-rank analog) — a keyed top-k whose combiner
# moves at most k rows per (batch, group), never the full table.
# ---------------------------------------------------------------------------

def topk_orders_per_priority(sf_dir, k=3):
    """Top-k orders by (o_totalprice, o_orderkey) within each priority."""
    ds = read_table(
        sf_dir, "orders", columns=["o_orderpriority", "o_orderkey", "o_totalprice"]
    )

    def price_cents(batch: pa.Table) -> pa.Table:
        cents = np.rint(batch.column("o_totalprice").to_numpy(zero_copy_only=False) * 100)
        return batch.drop_columns(["o_totalprice"]).append_column(
            "price_cents", pa.array(cents.astype(np.int64), pa.int64())
        )

    ranked = keyed_topk(
        ds.map_batches(price_cents, batch_format="pyarrow"),
        "o_orderpriority",
        [("price_cents", "descending"), ("o_orderkey", "ascending")],
        k,
    )
    return ranked.select_columns(["o_orderpriority", "rank", "o_orderkey", "price_cents"])


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

    A keyed sum over the high-cardinality orders (its combiner sums in
    every map block), HAVING as a filter over its complete groups, and
    the survivors joined back to orders INSIDE the dataset with the
    bucketed hash join — no driver-side keyset materialization (the
    HAVING tail is "tiny" only probabilistically; at 10^12 rows a
    driver dict is a bet, a bucketed exchange is not). The customer-name dimension ships once via
    ray.put, per the engine's dimension-broadcast convention.
    """
    li = read_table(sf_dir, "lineitem", columns=["l_orderkey", "l_quantity"])

    def qty(batch: pa.Table) -> pa.Table:
        q = np.rint(batch.column("l_quantity").to_numpy(zero_copy_only=False)).astype(np.int64)
        return pa.table({"o_orderkey": batch.column("l_orderkey"), "sum_qty": q})

    per_order = keyed_agg(
        li.map_batches(qty, batch_format="pyarrow"), "o_orderkey", {"sum_qty": "sum"}
    ).map_batches(lambda b: b.filter(pc.greater(b.column("sum_qty"), min_qty)), batch_format="pyarrow")

    orders = read_table(
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

    cust = pq.read_table(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"])
    with_name = broadcast_join(joined, cust.rename_columns(["o_custkey", "c_name"]), "o_custkey")

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "c_name": batch.column("c_name"),
                "o_orderkey": batch.column("o_orderkey"),
                "o_orderdate": pc.cast(batch.column("o_orderdate"), pa.timestamp("us")),
                "price_cents": _int_cents(batch.column("o_totalprice")),
                "sum_qty": pc.cast(batch.column("sum_qty"), pa.int64()),
            }
        )

    return with_name.map_batches(finish, batch_format="pyarrow")


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
    the engine's bucketed hash join; a keyed per-customer sum; customer
    names joined on the driver at the end.
    """
    lo = np.datetime64(Q10_QTR[0], "us")
    hi = np.datetime64(Q10_QTR[1], "us")
    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_orderdate"])
    orders = orders.map_batches(
        lambda b: b.filter(
            pc.and_(
                pc.greater_equal(b.column("o_orderdate"), pa.scalar(lo)),
                pc.less(b.column("o_orderdate"), pa.scalar(hi)),
            )
        ),
        batch_format="pyarrow",
    ).drop_columns(["o_orderdate"])

    li = read_table(
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
    joined = bucketed_hash_join(
        orders, li, "o_orderkey", left_schema=_ORDER_KEYS_SCHEMA, right_schema=_REVENUE_SCHEMA
    )

    order = [("revenue_micros", "descending"), ("o_custkey", "ascending")]
    per_cust = keyed_topk(
        keyed_agg(joined, "o_custkey", {"revenue_micros": "sum"}), [], order, k
    ).select_columns(["o_custkey", "revenue_micros"])

    # the result is k rows by construction — collect it, then read ONLY
    # those k customers' names (predicate pushed into the Parquet scan:
    # k keys, not the 150k x sf dimension, leave storage)
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    top = collect(per_cust)
    cust = pq.read_table(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_name"],
        filters=pads.field("c_custkey").isin(top.column("o_custkey")),
    ).rename_columns(["o_custkey", "c_name"])
    # Arrow's join keeps no row order; the top-k's order is the output's
    out = top.join(cust, "o_custkey", join_type="left outer", use_threads=False).sort_by(order)
    # hand back a Dataset like every other queries() entry (uniform
    # consumer contract); 20 rows, so from_arrow is free
    return ray.data.from_arrow(out.select(["o_custkey", "c_name", "revenue_micros"]))


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

    Scale shape: a keyed count on the composite (type, cents) key
    (distinct cents per type is bounded by the price grid, ~50k values,
    NOT by row count), then an exchange on the type whose
    reduce sorts each type's distinct values in its block and indexes
    their cumulative counts. No full
    sort of the data, no per-row shuffle — the exchange moves counts.
    """
    ds = read_table(sf_dir, "events", columns=["event_type", "value"])

    def rows(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "cents": _int_cents(batch.column("value")),
                "n": np.ones(batch.num_rows, np.int64),
            }
        )

    counts = keyed_agg(
        ds.map_batches(rows, batch_format="pyarrow"), ["event_type", "cents"], {"n": "sum"}
    )

    def quantiles(g: pa.Table, start: np.ndarray) -> pa.Table:
        cents = g.column("cents").to_numpy()
        cum = run_cumsum(g.column("n").to_numpy(), start)
        first = np.flatnonzero(start)
        last = np.append(first[1:], len(cum)) - 1
        total = np.repeat(cum[last], last - first + 1)
        cols = {"event_type": g.column("event_type").take(first)}
        for q in QUANTILES:
            # quantile_disc: smallest value with cum >= ceil(q * total);
            # the rows below it are a prefix of their run
            below = cum < np.ceil(q * total)
            cols[f"p{int(q * 100)}_cents"] = cents[first + run_cumsum(below, start)[last]]
        return pa.table(cols)

    return keyed_scan(counts, "event_type", [("cents", "ascending")], quantiles)


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
    keyed scan on the user (the natural partitioning key — intervals
    never cross users; stages/agg.py), ordered by ts, and an in-block
    range count: every row's (user run, ts) as one int key, so the
    clicks' keys are sorted and two np.searchsorted calls over the whole
    block give every purchase its [lo, hi) click window — no per-user
    Python. The exchange moves only (user_id, ts, event_id, type) — no
    pairwise expansion ever materializes, unlike the naive theta-join
    which is O(clicks x purchases) per user.
    """
    ds = read_table(sf_dir, "events", columns=["event_id", "user_id", "ts", "event_type"])
    ds = ds.map_batches(
        lambda b: b.filter(
            pc.is_in(b.column("event_type"), value_set=pa.array(["click", "purchase"]))
        ),
        batch_format="pyarrow",
    )

    def count_range(g: pa.Table, start: np.ndarray) -> pa.Table:
        ts = _epoch_us(g.column("ts"))
        is_click = pc.equal(g.column("event_type"), "click").to_numpy(zero_copy_only=False)
        (at, since), _ = _run_rank_keys(start, ts, ts - window_us)
        clicks, p = at[is_click], ~is_click
        n = np.searchsorted(clicks, at[p]) - np.searchsorted(clicks, since[p])
        return pa.table(
            {
                "event_id": g.column("event_id").to_numpy()[p],
                "user_id": g.column("user_id").to_numpy()[p],
                "ts": ts[p].astype("datetime64[us]"),
                "n_clicks_1h": n,
            }
        )

    return keyed_scan(ds, "user_id", [("ts", "ascending")], count_range)


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

    The orders side collapses to a keyed per-customer sum BEFORE the join
    (the aggregate is at most |customers| rows), then the engine's
    bucketed hash join runs as a ``"left outer"`` join so customers without
    orders survive with zeros. Both sides shuffle once on the customer
    key; no driver-side materialization.
    """
    cust = read_table(sf_dir, "customer", columns=["c_custkey", "c_name"])
    orders = read_table(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])

    def rows(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "c_custkey": batch.column("o_custkey"),
                "n_orders": np.ones(batch.num_rows, np.int64),
                "spend_cents": _int_cents(batch.column("o_totalprice")),
            }
        )

    per_cust = keyed_agg(
        orders.map_batches(rows, batch_format="pyarrow"),
        "c_custkey",
        {"n_orders": "sum", "spend_cents": "sum"},
    )
    joined = bucketed_hash_join(
        cust,
        per_cust,
        key="c_custkey",
        join_type="left outer",
        left_schema={"c_custkey": pa.int64(), "c_name": pa.string()},
        right_schema={
            "c_custkey": pa.int64(),
            "n_orders": pa.int64(),
            "spend_cents": pa.int64(),
        },
    )

    def fill_zero(batch: pa.Table) -> pa.Table:
        for c in ("n_orders", "spend_cents"):
            i = batch.schema.get_field_index(c)
            batch = batch.set_column(i, c, pc.fill_null(batch.column(c), 0))
        return batch

    return joined.map_batches(fill_zero, batch_format="pyarrow")


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
    ds = read_table(sf_dir, "events", columns=["event_id", "user_id", "ts"])

    def gaps(g: pa.Table, start: np.ndarray) -> pa.Table:
        ts = _epoch_us(g.column("ts"))
        same = ~start
        return pa.table(
            {
                "event_id": g.column("event_id").to_numpy()[same],
                "user_id": g.column("user_id").to_numpy()[same],
                "gap_us": np.diff(ts, prepend=0)[same],
            }
        )

    return keyed_scan(ds, "user_id", [("ts", "ascending"), ("event_id", "ascending")], gaps)


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

    Distributed INTERSECT: a keyed min and max of a click flag per user
    (stages/agg.py; the combiner sends at most one row per user per
    block), then a filter: a user has both types where they differ — no
    side ever materializes as a driver set.
    """
    ds = read_table(sf_dir, "events", columns=["user_id", "event_type"])
    ds = ds.map_batches(
        lambda b: b.filter(
            pc.is_in(b.column("event_type"), value_set=pa.array(["click", "purchase"]))
        ),
        batch_format="pyarrow",
    )

    def flags(batch: pa.Table) -> pa.Table:
        click = pc.cast(pc.equal(batch.column("event_type"), "click"), pa.int8())
        return pa.table({"user_id": batch.column("user_id"), "lo": click, "hi": click})

    per_user = keyed_agg(ds.map_batches(flags, batch_format="pyarrow"), "user_id", {"lo": "min", "hi": "max"})
    return per_user.map_batches(
        lambda b: b.filter(pc.less(b.column("lo"), b.column("hi"))).select(["user_id"]),
        batch_format="pyarrow",
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

    Every event becomes one-hot ``n_<type>`` columns on its day, and ONE
    keyed sum on the day (stages/agg.py) adds them up; the combiner
    moves at most one row per (batch, day). Fixed column set (schema is
    static), unknown types counted into none.
    """
    ds = read_table(sf_dir, "events", columns=["ts", "event_type"])

    def one_hot(batch: pa.Table) -> pa.Table:
        cols = {"day": pc.floor_temporal(batch.column("ts"), unit="day")}
        for t in PIVOT_TYPES:
            cols[f"n_{t}"] = pc.cast(pc.equal(batch.column("event_type"), t), pa.int64())
        return pa.table(cols)

    return keyed_agg(
        ds.map_batches(one_hot, batch_format="pyarrow"), "day", {f"n_{t}": "sum" for t in PIVOT_TYPES}
    )


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
    keyed scan on the user in arrival order (stages/agg.py) + a
    block-wide running max of every row's (user run, ts) key, which
    never crosses into another user's run — no per-user Python.
    """
    ds = read_table(sf_dir, "events", columns=["event_id", "user_id", "ts"])

    def with_arrival(batch: pa.Table) -> pa.Table:
        eid = batch.column("event_id").to_numpy()
        # (eid % J) * (K % J) % J == (eid * K) % J — the reduced form
        # keeps every intermediate < J^2, so the BIGINT SQL twin cannot
        # overflow at any event_id (int64 numpy wrap gave the same value
        # here because J divides 2^64, but DuckDB raises instead of
        # wrapping)
        jitter = ((eid % _ARRIVAL_JITTER) * (_ARRIVAL_KNUTH % _ARRIVAL_JITTER)) % _ARRIVAL_JITTER
        return batch.append_column("arrival", pa.array(eid + jitter))

    def late(g: pa.Table, start: np.ndarray) -> pa.Table:
        ts = _epoch_us(g.column("ts"))
        (key,), distinct = _run_rank_keys(start, ts)
        # the max over the user's earlier arrivals: the running max up
        # to the row before, except at the user's first row
        prev = np.roll(np.maximum.accumulate(key), 1)
        is_late = ~start & (key < prev)
        return pa.table(
            {
                "event_id": g.column("event_id").to_numpy()[is_late],
                "user_id": g.column("user_id").to_numpy()[is_late],
                "lateness_us": distinct[prev[is_late] % len(distinct)] - ts[is_late],
            }
        )

    order = [("arrival", "ascending"), ("event_id", "ascending")]
    return keyed_scan(ds.map_batches(with_arrival, batch_format="pyarrow"), "user_id", order, late)


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

    EXISTS collapses to max(l_shipdate) per order: a keyed max (per-order
    keys are high-cardinality; the combiner lets at most |orders| rows
    leave each task — stages/agg.py), one bucketed hash join against
    orders, then a 5-row priority count. No semi-join pair blowup at
    any scale.
    """
    orders = read_table(
        sf_dir, "orders", columns=["o_orderkey", "o_orderdate", "o_orderpriority"]
    )
    line = read_table(sf_dir, "lineitem", columns=["l_orderkey", "l_shipdate"])

    def ship_us(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderkey": batch.column("l_orderkey"),
                "ship_us": pc.cast(batch.column("l_shipdate"), pa.timestamp("us")).cast(pa.int64()),
            }
        )

    per_order = keyed_agg(
        line.map_batches(ship_us, batch_format="pyarrow"), "o_orderkey", {"ship_us": "max"}
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

    def late_rows(batch: pa.Table) -> pa.Table:
        od_us = pc.cast(batch.column("o_orderdate"), pa.timestamp("us")).cast(pa.int64())
        late = batch.filter(pc.greater(batch.column("ship_us"), pc.add(od_us, late_us)))
        return pa.table(
            {
                "o_orderpriority": late.column("o_orderpriority"),
                "n_late": np.ones(late.num_rows, dtype=np.int64),
            }
        )

    return keyed_agg(
        joined.map_batches(late_rows, batch_format="pyarrow"), "o_orderpriority", {"n_late": "sum"}
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

    One keyed scan on the user (stages/agg.py) + a block-wide cumsum
    rebased per user run (cumsum decomposes: global running sum
    minus the run-start base) — no per-user Python. Integer cents
    keep the running sum order-independent and bit-exact vs the SQL
    window twin.
    """
    ds = read_table(sf_dir, "events", columns=["event_id", "user_id", "ts", "value"])

    def running(g: pa.Table, start: np.ndarray) -> pa.Table:
        return pa.table(
            {
                "event_id": g.column("event_id"),
                "user_id": g.column("user_id"),
                "cum_value_cents": run_cumsum(_int_cents(g.column("value")), start),
            }
        )

    return keyed_scan(ds, "user_id", [("ts", "ascending"), ("event_id", "ascending")], running)


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

    ds = read_table(sf_dir, "events", columns=["event_type", "user_id"])
    salt = np.uint64(KMV_SALT)

    def partial(batch: pa.Table) -> pa.Table:
        h = splitmix64(batch.column("user_id").to_numpy().astype(np.uint64) ^ salt)
        # shift into int64 order-preservingly (uint64 msb -> sign bit)
        h = (h - np.uint64(1 << 63)).view(np.int64)
        pairs = pa.table({"event_type": batch.column("event_type"), "h": h})
        # each type's k smallest distinct hashes
        pairs = pairs.group_by(["event_type", "h"]).aggregate([])
        by = [("event_type", "ascending"), ("h", "ascending")]
        pairs, start = _sorted_runs(pairs, ["event_type"], by)
        return pairs.filter(run_position(start) < k)

    def final(g: pa.Table, start: np.ndarray) -> pa.Table:
        # each type's distinct hashes: the first row of every (type, h)
        h = g.column("h").to_numpy()
        new = start.copy()
        new[1:] |= h[1:] != h[:-1]
        first = np.flatnonzero(new)
        runs = np.flatnonzero(start[first])
        n = np.diff(np.append(runs, len(first)))
        hs = h[first]
        est = [
            # k-th smallest hash back to its unsigned value
            c if c < k else (k - 1) * (1 << 64) // (int(hs[i + k - 1]) + (1 << 63))
            for i, c in zip(runs.tolist(), n.tolist())
        ]
        return pa.table(
            {
                "event_type": g.column("event_type").take(first[runs]),
                "n_users_approx": pa.array(est, pa.int64()),
            }
        )

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return keyed_scan(partials, "event_type", [("h", "ascending")], final)


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

    Three keyed sums: the detail (bounded: days x 5 types), then the two
    rollup levels derived FROM the detail result (tiny) — the raw stream
    is read once.
    """
    ds = read_table(sf_dir, "events", columns=["ts", "event_type"])

    def rows(batch: pa.Table) -> pa.Table:
        day = pc.floor_temporal(batch.column("ts"), unit="day").cast(pa.date32())
        return pa.table(
            {
                "day": day.cast(pa.string()),  # YYYY-MM-DD
                "event_type": batch.column("event_type"),
                "n": np.ones(batch.num_rows, np.int64),
            }
        )

    # three consumers below (detail rows, day subtotals, grand total): pin
    # the bounded detail result so the raw stream really is read once,
    # not re-executed per union branch
    detail = keyed_agg(
        ds.map_batches(rows, batch_format="pyarrow"), ["day", "event_type"], {"n": "sum"}
    ).materialize()

    def all_of(*cols):
        # fill the rolled-up columns with 'ALL', in the output order
        def fn(batch: pa.Table) -> pa.Table:
            for c in cols:
                batch = batch.append_column(c, pa.array(["ALL"] * batch.num_rows, pa.string()))
            return batch.select(["day", "event_type", "n"])

        return fn

    def zero_key(batch: pa.Table) -> pa.Table:
        return batch.append_column("__g", pa.array(np.zeros(batch.num_rows, np.int64)))

    sub = keyed_agg(detail, "day", {"n": "sum"})
    grand = keyed_agg(detail.map_batches(zero_key, batch_format="pyarrow"), "__g", {"n": "sum"})
    return detail.union(
        sub.map_batches(all_of("event_type"), batch_format="pyarrow"),
        grand.map_batches(all_of("day", "event_type"), batch_format="pyarrow"),
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

    Same keyed aggregate as the INTERSECT twin
    (users_click_and_purchase): a max per user of each side's flag (the
    combiner sends at most one row per user per block), then a filter
    keeps the users with a click and no high-value purchase.
    """
    ds = read_table(sf_dir, "events", columns=["user_id", "event_type", "value"])

    def sides(batch: pa.Table) -> pa.Table:
        kind = batch.column("event_type")
        bought = pc.and_(pc.equal(kind, "purchase"), pc.greater(batch.column("value"), cutoff))
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "a": pc.cast(pc.equal(kind, "click"), pa.int8()),
                "b": pc.cast(bought, pa.int8()),
            }
        )

    per_user = keyed_agg(ds.map_batches(sides, batch_format="pyarrow"), "user_id", {"a": "max", "b": "max"})
    return per_user.map_batches(
        lambda b: b.filter(pc.greater(b.column("a"), b.column("b"))).select(["user_id"]),
        batch_format="pyarrow",
    )


EXCEPT_SQL = f"""
SELECT DISTINCT user_id FROM events WHERE event_type = 'click'
EXCEPT
SELECT DISTINCT user_id FROM events
WHERE event_type = 'purchase' AND value > {EXCEPT_VALUE_CUTOFF}
"""
