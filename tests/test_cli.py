"""CLI tests — the engine analog of the reference's tests/test_cli.py.

The reference asserts: parallel == serial pixel-identical output
(test_cli.py:19-81), bad op -> exit 2 + no output (84-92), RGBA alpha
untouched end-to-end (172-196), metadata (colorinterp analog) preserved
(199-219), empty ops rejected (222-230), --as-color golden string
(233-242), -j 0 usage error (114-118).
"""

import os

import numpy as np
import pyarrow.parquet as pq
import pytest
from click.testing import CliRunner

from rio_color_ray.cli import engine
from rio_color_ray.sources.tiles import decode_tile, make_tiles_table


@pytest.fixture(scope="module")
def tiles_paths(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli_tiles")
    paths = {}
    for variant in ("rgb8", "rgba8", "rgb16"):
        p = str(d / f"{variant}.parquet")
        pq.write_table(make_tiles_table(variant, n_tiles=60), p)
        paths[variant] = p
    return paths


def _read_tiles(path):
    t = pq.read_table(path)
    rows = {}
    for i in range(t.num_rows):
        r = {c: t.column(c)[i].as_py() for c in t.column_names}
        rows[r["tile_id"]] = r
    return rows


OPS = ["gamma rgb 1.1", "sigmoidal rgb 8 0.2", "saturation 1.2"]


def test_color_parallel_equals_serial(ray_session, tiles_paths, tmp_path):
    """-j1 (one color task at a time), -j2 (at most two) and -j -1 (at
    most one per core) outputs are pixel-identical (reference
    test_cli.py:19-81's j1-vs-j2 np.array_equal)."""
    runner = CliRunner()
    outs = {}
    for jobs in ("1", "2", "-1"):
        outs[jobs] = str(tmp_path / f"o{jobs}")
        r = runner.invoke(engine, ["color", "-j", jobs, tiles_paths["rgb8"], outs[jobs]] + OPS)
        assert r.exit_code == 0, r.output
    a = _read_tiles(outs["1"])
    assert len(a) == 60
    for jobs in ("2", "-1"):
        b = _read_tiles(outs[jobs])
        assert a.keys() == b.keys()
        for k in a:
            assert a[k]["pixels"] == b[k]["pixels"], (jobs, k)
            assert b[k]["dtype"] == "uint8"


def test_color_bad_op_exits_2_no_output(ray_session, tiles_paths, tmp_path):
    runner = CliRunner()
    out = str(tmp_path / "bad")
    r = runner.invoke(engine, ["color", tiles_paths["rgb8"], out, "notanop rgb 1"])
    assert r.exit_code == 2 and "not a valid operation" in r.output
    assert not os.path.exists(out)
    r = runner.invoke(engine, ["color", tiles_paths["rgb8"], out, "gamma 7 1.1"])
    assert r.exit_code == 2 and "BAND must be" in r.output.replace("band", "BAND")
    assert not os.path.exists(out)


def test_color_empty_ops_rejected(ray_session, tiles_paths, tmp_path):
    runner = CliRunner()
    r = runner.invoke(engine, ["color", tiles_paths["rgb8"], str(tmp_path / "e")])
    assert r.exit_code == 2  # nargs=-1 required, like reference test_cli.py:222-230


def test_jobs_zero_usage_error(ray_session, tiles_paths, tmp_path):
    runner = CliRunner()
    r = runner.invoke(
        engine, ["color", "-j", "0", tiles_paths["rgb8"], str(tmp_path / "j0"), "gamma rgb 1.1"]
    )
    assert r.exit_code == 2 and "Jobs must be" in r.output


def test_color_rgba_alpha_untouched(ray_session, tiles_paths, tmp_path):
    """Alpha band rides through unmodified (reference test_cli.py:172-196)."""
    runner = CliRunner()
    out = str(tmp_path / "rgba_out")
    r = runner.invoke(engine, ["color", tiles_paths["rgba8"], out, "gamma rgb 1.3", "saturation 1.4"])
    assert r.exit_code == 0, r.output
    src, dst = _read_tiles(tiles_paths["rgba8"]), _read_tiles(out)
    changed = 0
    for k in src:
        s = decode_tile(src[k]["pixels"], 4, "uint8", 32, 32)
        d = decode_tile(dst[k]["pixels"], 4, "uint8", 32, 32)
        assert np.array_equal(s[3], d[3]), "alpha band modified"
        changed += int(not np.array_equal(s[:3], d[:3]))
    assert changed == len(src)


def test_color_out_dtype_uint16_and_metadata(ray_session, tiles_paths, tmp_path):
    """-d uint16 rescales output; band metadata preserved (colorinterp
    analog, reference test_cli.py:199-219 + test_workers.py:41-72)."""
    runner = CliRunner()
    out = str(tmp_path / "u16")
    r = runner.invoke(engine, ["color", "-d", "uint16", tiles_paths["rgb8"], out, "gamma rgb 1.1"])
    assert r.exit_code == 0, r.output
    dst = _read_tiles(out)
    for k, row in dst.items():
        assert row["dtype"] == "uint16" and row["band_count"] == 3
        arr = decode_tile(row["pixels"], 3, "uint16", 32, 32)
        assert arr.max() > 255  # scaled into the uint16 range


def test_atmos_as_color_golden(ray_session, tiles_paths, tmp_path):
    """--as-color prints the equivalent command and runs nothing
    (reference test_cli.py:233-242)."""
    runner = CliRunner()
    out = str(tmp_path / "never")
    r = runner.invoke(
        engine,
        ["atmos", "-a", "0.03", "-c", "15", "-b", "0.4", "--as-color", tiles_paths["rgb8"], out],
    )
    assert r.exit_code == 0
    assert r.output.strip() == (
        f"engine color {tiles_paths['rgb8']} {out} "
        "gamma g 0.99, gamma b 0.97, sigmoidal rgb 15.0 0.4"
    )
    assert not os.path.exists(out)


def test_atmos_equals_color_with_opstring(ray_session, tiles_paths, tmp_path):
    """engine atmos == engine color of its --as-color lowering
    (reference tests/test_operations.py:200-205 at the CLI level)."""
    from rio_color_ray.color import simple_atmo_opstring

    runner = CliRunner()
    o1, o2 = str(tmp_path / "a1"), str(tmp_path / "a2")
    r = runner.invoke(engine, ["atmos", "-a", "0.05", "-c", "12", "-b", "0.2", tiles_paths["rgb16"], o1])
    assert r.exit_code == 0, r.output
    ops = simple_atmo_opstring(0.05, 12, 0.2)
    r = runner.invoke(engine, ["color", tiles_paths["rgb16"], o2, ops])
    assert r.exit_code == 0, r.output
    a, b = _read_tiles(o1), _read_tiles(o2)
    for k in a:
        assert a[k]["pixels"] == b[k]["pixels"]


def test_resume_cli_roundtrip(ray_session, tmp_path):
    runner = CliRunner()
    out = str(tmp_path / "ckpt")
    r = runner.invoke(
        engine, ["resume", "/root/testdata/sf0.001", out, "--n-parts", "4", "--max-partitions", "2"]
    )
    assert r.exit_code == 0, r.output
    import json

    assert json.loads(r.output.strip().splitlines()[-1])["written_now"] == 2
    r = runner.invoke(engine, ["resume", "/root/testdata/sf0.001", out, "--n-parts", "4"])
    assert json.loads(r.output.strip().splitlines()[-1])["completed_before"] == 2


def test_creation_opts(ray_session, tiles_paths, tmp_path):
    """--co NAME=VALUE passthrough (reference tests/test_cli.py:121-169,
    compress=jpeg analog): the requested codec must land in the written
    Parquet file metadata, for both color and atmos."""
    import glob

    runner = CliRunner()
    out = str(tmp_path / "co_color")
    r = runner.invoke(
        engine,
        ["color", "--co", "compression=zstd", tiles_paths["rgb8"], out, "gamma rgb 1.1"],
    )
    assert r.exit_code == 0, r.output
    files = glob.glob(os.path.join(out, "*.parquet"))
    assert files
    md = pq.ParquetFile(files[0]).metadata
    assert md.row_group(0).column(0).compression == "ZSTD"

    out2 = str(tmp_path / "co_atmos")
    r = runner.invoke(
        engine,
        ["atmos", "--co", "compression=gzip", "-a", "0.03", "-b", "0.5", "-c", "15",
         "-j", "1", tiles_paths["rgb8"], out2],
    )
    assert r.exit_code == 0, r.output
    files2 = glob.glob(os.path.join(out2, "*.parquet"))
    md2 = pq.ParquetFile(files2[0]).metadata
    assert md2.row_group(0).column(0).compression == "GZIP"

    # malformed pair -> usage error, nothing written
    out3 = str(tmp_path / "co_bad")
    r = runner.invoke(
        engine, ["color", "--co", "compressionzstd", tiles_paths["rgb8"], out3, "gamma rgb 1.1"]
    )
    assert r.exit_code == 2
    assert not os.path.exists(out3)


def test_curate_cli_run_and_resume(ray_session, tmp_path):
    """engine curate writes hash-bucket partitions + lineage; a second
    invocation is a no-op resume."""
    import json

    from rio_color_ray.cli import engine

    out = str(tmp_path / "curated")
    runner = CliRunner()
    r1 = runner.invoke(
        engine, ["curate", "/root/testdata/sf0.001", out, "--n-parts", "4"]
    )
    assert r1.exit_code == 0, r1.output

    def last_json(output):  # Ray log lines interleave in captured stdout
        return json.loads(
            [ln for ln in output.strip().splitlines() if ln.startswith("{")][-1]
        )

    s1 = last_json(r1.output)
    assert s1["written_now"] == 4 and s1["rows_out"] > 0
    r2 = runner.invoke(
        engine, ["curate", "/root/testdata/sf0.001", out, "--n-parts", "4"]
    )
    s2 = last_json(r2.output)
    assert s2["completed_before"] == 4 and s2["written_now"] == 0


def test_query_cli_runs_registry_entry(ray_session, tmp_path):
    """engine query NAME SF_DIR DST writes the same rows the library
    API returns; --list covers the whole registry; unknown names fail."""
    import duckdb
    import pyarrow.parquet as pq

    from rio_color_ray.cli import engine
    from rio_color_ray.registry import queries

    runner = CliRunner()
    res = runner.invoke(engine, ["query", "--list"])
    assert res.exit_code == 0
    # CliRunner captures process stdout, and a prior test's Ray progress
    # bar can flush ANSI control sequences into the window — strip them,
    # then require the listed names to EQUAL the registry per line (a
    # duplicate or stray query name printed by the CLI must fail; lines
    # that are pure progress-bar residue are dropped before comparing)
    import re

    clean = re.sub(r"\x1b\[[0-9;?]*[A-Za-z]", "", res.output)
    # keep only query-name-shaped lines (Ray worker/progress residue has
    # spaces, parens or colons and never matches); equality as a MULTISET
    # so a duplicate or stray name printed by the CLI fails
    listed = [
        ln.strip()
        for ln in clean.splitlines()
        if re.fullmatch(r"[a-z0-9_]+", ln.strip())
    ]
    assert sorted(listed) == sorted(queries())

    out = tmp_path / "q6"
    res = runner.invoke(
        engine, ["query", "q6_forecast_revenue", "/root/testdata/sf0.001", str(out)]
    )
    assert res.exit_code == 0, res.output
    got = pq.read_table(str(out)).to_pandas()
    from rio_color_ray.pipelines.relational import Q6_SQL

    con = duckdb.connect()
    con.execute(
        "CREATE VIEW lineitem AS SELECT * FROM "
        "read_parquet('/root/testdata/sf0.001/lineitem.parquet')"
    )
    exp = con.sql(Q6_SQL).df()
    assert len(got) == 1 and got.columns.tolist() == ["revenue_micros"]
    assert int(got["revenue_micros"].iloc[0]) == int(exp["revenue_micros"].iloc[0])

    res = runner.invoke(engine, ["query", "no_such_query", "/root/testdata/sf0.001"])
    assert res.exit_code != 0
