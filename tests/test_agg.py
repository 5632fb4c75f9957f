"""hash_bucket_agg: the engine's keyed reduce.

Every input here is several blocks with every key spread across them, so
a result that matches pandas shows each key's rows met in one reduce
call: a key split over two calls comes out as two rows.
"""

import numpy as np
import pandas as pd

N_BLOCKS = 7


def _blocks(df):
    """``df`` as N_BLOCKS row ranges; every key lands in more than one."""
    import ray.data

    cut = np.linspace(0, len(df), N_BLOCKS + 1).astype(int)
    block = np.repeat(np.arange(N_BLOCKS), np.diff(cut))
    assert (df.assign(block=block).groupby("k")["block"].nunique() > 1).all()
    ds = ray.data.from_pandas([df.iloc[a:b] for a, b in zip(cut[:-1], cut[1:])])
    assert ds.num_blocks() == N_BLOCKS
    return ds


def _hashed_keys_match_pandas(keys):
    from rio_color_ray.stages.agg import hash_bucket_agg

    df = pd.DataFrame({"k": keys, "v": np.arange(len(keys), dtype=np.int64)})
    got = (
        hash_bucket_agg(
            _blocks(df),
            "k",
            lambda d: d.groupby("k", as_index=False)["v"].max(),
            n_buckets=8,
        )
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    exp = df.groupby("k", as_index=False)["v"].max()
    pd.testing.assert_frame_equal(got, exp)


def test_hash_bucket_agg_matches_pandas_int_keys(ray_session):
    from rio_color_ray.stages.agg import hash_bucket_agg

    rng = np.random.default_rng(7)
    df = pd.DataFrame(
        {
            # negative keys included: numpy % keeps Python semantics;
            # each key's 5 rows are 1000 rows apart
            "k": np.resize(rng.permutation(1000) - 500, 5000),
            "v": rng.integers(0, 100, size=5000),
        }
    )
    got = (
        hash_bucket_agg(
            _blocks(df),
            "k",
            lambda d: d.groupby("k", as_index=False)["v"].sum(),
            n_buckets=8,
        )
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    exp = df.groupby("k", as_index=False)["v"].sum()
    pd.testing.assert_frame_equal(got, exp)


def test_hash_bucket_agg_string_keys(ray_session):
    _hashed_keys_match_pandas([f"tok{i % 97}" for i in range(3000)])


def test_hash_bucket_agg_datetime_keys(ray_session):
    """events_pivot's ``day`` key: datetime64[us], hashed like a string."""
    days = np.datetime64("2024-01-01", "D") + np.arange(3000) % 31
    _hashed_keys_match_pandas(days.astype("datetime64[us]"))
