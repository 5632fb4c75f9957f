"""Checkpoint / resume / lineage (north_rule: resumable runs).

Simulated kill: a first invocation processes only half of the cell-range
partitions (``max_partitions``); the second invocation must complete
ONLY the remainder (the first half's lineage records are untouched —
byte mtimes compared) and the union of partitions must equal a fresh
one-shot flagship run tile-for-tile.
"""

import os

import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def oneshot(ray_session):
    from rio_color_ray.pipelines.flagship import flagship

    return flagship(SF).to_pandas().sort_values("tile_id").reset_index(drop=True)


def _lineage_mtimes(out_dir):
    d = os.path.join(out_dir, "_lineage")
    return {f: os.path.getmtime(os.path.join(d, f)) for f in os.listdir(d) if f.endswith(".json")}


def _kill_and_resume(oneshot, out_dir, n_parts):
    """A killed run of half the partitions, then a resume, match the
    one-shot flagship tile for tile."""
    from rio_color_ray.state import (
        completed_partitions,
        lineage_table,
        read_output,
        resumable_flagship,
    )

    killed = n_parts // 2
    # "killed" run: only half of the partitions get checkpointed
    s1 = resumable_flagship(SF, out_dir, n_parts=n_parts, max_partitions=killed)
    assert s1["written_now"] == killed and s1["completed_before"] == 0
    assert len(completed_partitions(out_dir)) == killed
    mt_before = _lineage_mtimes(out_dir)

    # resume: completes the rest, does not rewrite the first half
    s2 = resumable_flagship(SF, out_dir, n_parts=n_parts)
    assert s2["completed_before"] == killed and s2["written_now"] == n_parts - killed
    assert len(completed_partitions(out_dir)) == n_parts
    mt_after = _lineage_mtimes(out_dir)
    for name, mt in mt_before.items():
        assert mt_after[name] == mt, f"completed partition {name} was rewritten on resume"

    # a third run is a no-op
    s3 = resumable_flagship(SF, out_dir, n_parts=n_parts)
    assert s3["written_now"] == 0

    # resumed output == fresh one-shot flagship, tile-for-tile
    got = (
        read_output(out_dir)
        .to_pandas()
        .sort_values("tile_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, oneshot[got.columns])
    assert s1["rows_out"] + s2["rows_out"] == len(got)

    # lineage metrics: full coverage of the tile-x keyspace, counts add up
    lin = lineage_table(out_dir).to_pandas()
    assert len(lin) == n_parts
    assert int(lin["rows_out"].sum()) == len(got)
    assert set(lin["stage"]) <= {"flagship", "flagship-empty"}
    spans = lin.sort_values("cell_lo")[["cell_lo", "cell_hi"]].to_numpy()
    assert spans[0][0] == 0
    for (lo, hi), (lo2, _) in zip(spans, spans[1:]):
        assert lo2 == hi + 1, "cell ranges must tile the keyspace exactly"


# at 4 CPUs, 16 parts over 4 reduce tasks put four partitions in one
# reduce call; 3 parts leave a reduce range empty
@pytest.mark.parametrize("n_parts", [3, 8, 16])
def test_kill_and_resume_matches_oneshot(ray_session, oneshot, tmp_path, n_parts):
    _kill_and_resume(oneshot, str(tmp_path / f"ckpt{n_parts}"), n_parts)


def test_one_task_layout_matches_oneshot(ray_session, oneshot, tmp_path, monkeypatch):
    """The layout a 1-CPU session runs: one read block and one exchange
    bucket. The flagship, and a kill and resume whose every partition
    meets in one reduce call, give the tiles of the session's layout."""
    from rio_color_ray import ctx
    from rio_color_ray.pipelines.flagship import flagship

    monkeypatch.setattr(ctx, "shuffle_partitions", lambda: 1)
    got = flagship(SF).to_pandas().sort_values("tile_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, oneshot)
    _kill_and_resume(oneshot, str(tmp_path / "ckpt16"), 16)


def test_resumable_flagship_is_one_exchange(ray_session, tmp_path, monkeypatch):
    """Rendering and writing the checkpoint share one keyed exchange: the
    exchange on the partition id already co-locates every tile's partials."""
    from rio_color_ray import ctx
    from rio_color_ray.pipelines import tiles
    from rio_color_ray.state import checkpoint

    built = []

    def counting(*args, **kwargs):
        built.append(args[1])
        return ctx.bucket_exchange(*args, **kwargs)

    monkeypatch.setattr(tiles, "bucket_exchange", counting)
    monkeypatch.setattr(checkpoint, "bucket_exchange", counting)
    s = checkpoint.resumable_flagship(SF, str(tmp_path / "ckpt"), n_parts=8)
    assert s["written_now"] == 8 and s["rows_out"] > 0
    assert built == ["part"]


def test_lineage_record_atomic_and_validated(tmp_path):
    from rio_color_ray.state import completed_partitions, write_lineage_record

    out = str(tmp_path)
    with pytest.raises(ValueError):
        write_lineage_record(out, {"partition_id": "0"})
    rec = {
        "partition_id": "7",
        "cell_lo": 112,
        "cell_hi": 127,
        "rows_in": 5,
        "rows_out": 5,
        "stage": "flagship",
        "wall_s": 0.01,
        "checkpoint_ts": "2026-01-01T00:00:00.000000Z",
    }
    write_lineage_record(out, rec)
    assert completed_partitions(out) == {"7": rec}


def test_curate_kill_and_resume_matches_oneshot(ray_session, tmp_path):
    """Killed curation run (3 of 8 hash buckets) + resume == the oracle
    curate_corpus output row-for-row; completed buckets untouched."""
    from rio_color_ray.pipelines.curate import curate_corpus
    from rio_color_ray.state import completed_partitions, read_output, resumable_curate

    out_dir = str(tmp_path / "curate_ckpt")
    s1 = resumable_curate(SF, out_dir, n_parts=8, max_partitions=3)
    assert s1["written_now"] == 3 and s1["completed_before"] == 0
    mt_before = _lineage_mtimes(out_dir)

    s2 = resumable_curate(SF, out_dir, n_parts=8)
    assert s2["completed_before"] == 3 and s2["written_now"] == 5
    assert len(completed_partitions(out_dir)) == 8
    for name, mt in _lineage_mtimes(out_dir).items():
        if name in mt_before:
            assert mt == mt_before[name]

    s3 = resumable_curate(SF, out_dir, n_parts=8)
    assert s3["written_now"] == 0

    got = (
        read_output(out_dir)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    want = (
        curate_corpus(SF)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)[got.columns]
    )
    pd.testing.assert_frame_equal(got, want)
