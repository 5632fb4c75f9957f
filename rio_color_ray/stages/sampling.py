"""Deterministic hash-based sampling: train/valid/test split, stratified
rate sampling, weighted source mixing.

Training-data pipelines need REPEATABLE sampling: re-running the job on
the same corpus (or resuming after a failure) must select the same rows,
independent of block boundaries, task scheduling or cluster size. Random
sampling (``Dataset.random_sample``) gives none of that. Instead every
decision here is a pure function of the row's stable id through
splitmix64 — a full-avalanche 64-bit mixer (public-domain finalizer of
the SplitMix64 generator, same constants as java.util.SplittableRandom):
no shuffle, no state, no RNG objects, embarrassingly parallel at any
scale. The mixer is reproduced term-for-term in DuckDB HUGEINT by
:func:`splitmix64_sql` (128-bit-safe split multiplication), so every
sampling operator has an exact SQL oracle.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

_C1 = np.uint64(0x9E3779B97F4A7C15)
_C2 = np.uint64(0xBF58476D1CE4E5B9)
_C3 = np.uint64(0x94D049BB133111EB)


def splitmix64(x):
    """Vectorized splitmix64 finalizer over an int/uint64 array."""
    z = np.asarray(x).astype(np.uint64) + _C1
    z = (z ^ (z >> np.uint64(30))) * _C2
    z = (z ^ (z >> np.uint64(27))) * _C3
    return z ^ (z >> np.uint64(31))


def hash64(values, hash_key="0123456789123456"):
    """The engine's 64-bit value hash: pandas' siphash of every value
    (``pd.util.hash_array``, fixed across processes), as uint64.

    ``values`` is an Arrow column or a numpy array; an Arrow column is
    hashed as its ``to_numpy`` values (strings as Python objects,
    timestamps as their ints). ``hash_key`` is siphash's 16-byte key,
    pandas' own by default; another key gives an independent hash. This is the package's one
    use of pandas, as a kernel; no block goes through it.
    """
    if not isinstance(values, np.ndarray):
        values = values.to_numpy(zero_copy_only=False)
    return pd.util.hash_array(values, hash_key=hash_key)


def combine64(hashes):
    """One uint64 per row from the per-column ``hashes``, combined as
    ``pd.util.hash_pandas_object`` combines a DataFrame's columns
    (CPython's tuple hash), so one column combines too."""
    mult, out = np.uint64(1000003), np.full(len(hashes[0]), 0x345678, np.uint64)
    for i, h in enumerate(hashes):
        inverse_i = len(hashes) - i
        out = (out ^ h) * mult
        mult += np.uint64(82520 + inverse_i + inverse_i)
    return out + np.uint64(97531)


def rate_of(values, rates, default):
    """Every value's rate in the dict ``rates`` as int64 numpy, and
    ``default`` for a value outside it or null, as SQL's ``CASE ...
    ELSE default`` gives it. ``values`` is an Arrow column."""
    idx = pc.index_in(values, value_set=pa.array(list(rates), values.type), skip_nulls=True)
    rate = pa.array(list(rates.values()), pa.int64()).take(idx)
    return pc.fill_null(rate, default).to_numpy()


_M64 = 1 << 64
_M32 = 1 << 32


def _mulmod_sql(a_expr, b):
    """(a * b) % 2^64 in HUGEINT without INT128 overflow.

    HUGEINT is signed 128-bit; a 64-bit x 64-bit product can need 128
    bits unsigned, so split a into 32-bit halves:
    a*b mod 2^64 = ((a_hi*b mod 2^32) << 32 + a_lo*b) mod 2^64 — every
    intermediate stays < 2^97.
    """
    return (
        f"((((({a_expr}) // {_M32}) * {int(b)}) % {_M32}) * {_M32} "
        f"+ (({a_expr}) % {_M32}) * {int(b)}) % {_M64}::HUGEINT"
    )


def splitmix64_sql(x_expr):
    """DuckDB HUGEINT expression computing splitmix64(x_expr) exactly.

    ``//`` is the unsigned right shift (values are kept in [0, 2^64));
    xor() is DuckDB's integer XOR, defined on HUGEINT.
    """
    z0 = f"(CAST({x_expr} AS HUGEINT) + {int(_C1)}) % {_M64}::HUGEINT"
    z1 = _mulmod_sql(f"xor(({z0}), ({z0}) // {1 << 30})", _C2)
    z2 = _mulmod_sql(f"xor(({z1}), ({z1}) // {1 << 27})", _C3)
    return f"xor(({z2}), ({z2}) // {1 << 31})"


# --- train / valid / test split --------------------------------------------

# ppm thresholds on h % 1_000_000: [0, train) -> train,
# [train, train+valid) -> valid, rest -> test
SPLIT_PPM = {"train": 980_000, "valid": 10_000}
SPLIT_SALT = np.uint64(0x5350_4C49_5400)  # distinct hash stream per decision


def split_assign_batch(id_col="doc_id"):
    """map_batches fn: (id, split) deterministic assignment."""

    def fn(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.uint64)
        u = (splitmix64(ids ^ SPLIT_SALT) % np.uint64(1_000_000)).astype(np.int64)
        t, v = SPLIT_PPM["train"], SPLIT_PPM["train"] + SPLIT_PPM["valid"]
        split = np.where(u < t, "train", np.where(u < v, "valid", "test"))
        return pa.table(
            {
                id_col: batch.column(id_col),
                "split": pa.array(split.tolist(), pa.string()),
            }
        )

    return fn


def split_sql(id_col="doc_id", table="documents"):
    h = splitmix64_sql(f"xor(CAST({id_col} AS HUGEINT), {int(SPLIT_SALT)})")
    t, v = SPLIT_PPM["train"], SPLIT_PPM["train"] + SPLIT_PPM["valid"]
    return (
        f"SELECT {id_col}, CASE WHEN ({h}) % 1000000 < {t} THEN 'train' "
        f"WHEN ({h}) % 1000000 < {v} THEN 'valid' ELSE 'test' END AS split "
        f"FROM {table}"
    )


# --- stratified / weighted sampling ----------------------------------------

STRATA_SALT = np.uint64(0x53_5452_4154_4100)


def stratified_filter_batch(rates_ppm, stratum_col, id_col="doc_id", default_ppm=0):
    """map_batches fn factory: keep row iff h(id) % 1e6 < rate[stratum].

    ``rates_ppm`` is a plain dict (tiny — ships in the task closure);
    the per-row decision depends only on (id, stratum rate), so the
    sample is stable under repartitioning and resume.
    """

    def fn(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.uint64)
        rate = rate_of(batch.column(stratum_col), rates_ppm, default_ppm)
        u = (splitmix64(ids ^ STRATA_SALT) % np.uint64(1_000_000)).astype(np.int64)
        return batch.filter(pa.array(u < rate))

    return fn


def stratified_filter_sql(rates_ppm, stratum_col, id_col="doc_id", default_ppm=0):
    """WHERE-clause twin of :func:`stratified_filter_batch`."""
    h = splitmix64_sql(f"xor(CAST({id_col} AS HUGEINT), {int(STRATA_SALT)})")
    rate = (
        "CASE "
        + " ".join(
            f"WHEN {stratum_col} = '{s}' THEN {int(p)}" for s, p in sorted(rates_ppm.items())
        )
        + f" ELSE {int(default_ppm)} END"
    )
    return f"(({h}) % 1000000) < ({rate})"
