"""Engine CLI — the Ray-Data analog of the reference's rio plugin commands.

Subcommands mirror `/root/reference/rio_color/scripts/cli.py`:

* ``engine color SRC DST OPERATIONS...`` (cli.py:33-121) — SRC/DST are
  Parquet tile tables (the engine's GeoTIFF analog). The ops program is
  validated BEFORE any work launches (cli.py:95-98); bad programs exit 2
  with no output written (tests/test_cli.py:84-92); empty ops rejected
  (test_cli.py:222-230). ``-j 0`` is a UsageError, ``-j -1`` means all
  cores (cli.py:22-30). band_count/dtype metadata columns ride through
  the stage — the colorinterp-preservation analog (cli.py:121).
* ``engine atmos -a -c -b SRC DST`` (cli.py:124-219) with ``--as-color``
  printing the equivalent `engine color` command and exiting without
  running (cli.py:180-186).
* ``engine flagship`` / ``engine resume`` — the end-to-end corpus
  pipeline and its checkpoint-resume form (no reference counterpart;
  north_rule capabilities).

The CLI owns the Ray session (library code never calls ray.init).
"""

import json
import os

import click


def _ensure_ray():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    return ray


jobs_opt = click.option(
    "--jobs",
    "-j",
    type=int,
    default=1,
    help="Most color tasks run at once; -1 for all cores, "
    "1 (default) colors one batch at a time.",
)

# the reference's GDAL creation-options passthrough (--co compress=jpeg,
# scripts/cli.py:85) in Parquet form: NAME=VALUE pairs forwarded to the
# Parquet writer (compression=zstd, compression_level=9, ...); the file-
# sizing keys min/max_rows_per_file go to the Ray write operator itself.
co_opt = click.option(
    "--co",
    "creation_options",
    multiple=True,
    metavar="NAME=VALUE",
    help="Parquet creation option, repeatable: e.g. --co compression=zstd "
    "--co max_rows_per_file=100000",
)

def parse_creation_options(pairs):
    """NAME=VALUE pairs -> write_parquet kwargs (named operator params like
    max_rows_per_file bind to Ray's write_parquet signature; everything
    else reaches the pyarrow writer). Bad pairs -> UsageError."""
    out = {}
    for p in pairs:
        if "=" not in p:
            raise click.UsageError(f"--co expects NAME=VALUE, got {p!r}")
        k, v = p.split("=", 1)
        if v.lstrip("-").isdigit():
            v = int(v)
        elif v.lower() in ("true", "false"):
            v = v.lower() == "true"
        out[k] = v
    return out


def check_jobs(jobs):
    """Validate jobs exactly like the reference (cli.py:22-30)."""
    if jobs == 0:
        raise click.UsageError("Jobs must be >= 1 or == -1")
    elif jobs < 0:
        import multiprocessing

        jobs = multiprocessing.cpu_count()
    return jobs


@click.group("engine")
def engine():
    """Ray-Data-native spatial-join + tiling + color engine."""


@engine.command("color")
@jobs_opt
@co_opt
@click.option(
    "--out-dtype",
    "-d",
    type=click.Choice(["uint8", "uint16"]),
    help="Integer data type for output data, default: same as input",
)
@click.argument("src_path", type=click.Path(exists=True))
@click.argument("dst_path", type=click.Path(exists=False))
@click.argument("operations", nargs=-1, required=True)
def color(jobs, creation_options, out_dtype, src_path, dst_path, operations):
    """Color correction over a Parquet tiles table.

    Operations are applied to every tile in the specified order, e.g.:

        engine color tiles.parquet out/ "gamma rgb 1.2" "saturation 1.2"
    """
    from .color import parse_operations
    from .pipelines.tiles import color_stage

    ops_string = " ".join(operations)
    try:
        # validate before any work; parse errors become usage errors
        # exactly like the reference (cli.py:95-98)
        parse_operations(ops_string)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    jobs = check_jobs(jobs)
    co = parse_creation_options(creation_options)

    ray = _ensure_ray()
    tiles = ray.data.read_parquet(src_path)
    out = color_stage(tiles, ops_string, out_dtype=out_dtype, concurrency=jobs)
    out.write_parquet(dst_path, **co)
    click.echo(f"wrote {dst_path}")


@engine.command("atmos")
@click.option("--atmo", "-a", type=click.FLOAT, default=0.03, help="Haze dampening 0..1, default 0.03")
@click.option("--contrast", "-c", type=click.FLOAT, default=10, help="Contrast factor, default 10")
@click.option("--bias", "-b", type=click.FLOAT, default=0.15, help="Output skew 0..1, default 0.15")
@click.option(
    "--out-dtype",
    "-d",
    type=click.Choice(["uint8", "uint16"]),
    help="Integer data type for output data, default: same as input",
)
@click.option(
    "--as-color",
    is_flag=True,
    default=False,
    help="Prints the equivalent engine color command to stdout. "
    "Does NOT run either command.",
)
@click.argument("src_path", required=True)
@click.argument("dst_path", type=click.Path(exists=False))
@jobs_opt
@co_opt
def atmos(atmo, contrast, bias, out_dtype, as_color, src_path, dst_path, jobs, creation_options):
    """Atmospheric correction (reference cli.py:124-219)."""
    from .color import simple_atmo_opstring
    from .pipelines.tiles import color_stage

    opstring = simple_atmo_opstring(atmo, contrast, bias)
    if as_color:
        # same shape as the reference's output (cli.py:180-186)
        click.echo(f"engine color {src_path} {dst_path} {opstring}")
        return
    jobs = check_jobs(jobs)
    co = parse_creation_options(creation_options)

    ray = _ensure_ray()
    tiles = ray.data.read_parquet(src_path)
    out = color_stage(tiles, opstring, out_dtype=out_dtype, concurrency=jobs)
    out.write_parquet(dst_path, **co)
    click.echo(f"wrote {dst_path}")


@engine.command("flagship")
@click.argument("sf_dir", type=click.Path(exists=True))
@click.argument("dst_path", type=click.Path(exists=False))
@click.option("--replicate", type=int, default=1)
@click.option("--zoom", "-z", type=int, default=None)
@click.option("--ops", type=str, default=None)
@co_opt
def flagship_cmd(sf_dir, dst_path, replicate, zoom, ops, creation_options):
    """pages -> geocode -> PIP join -> tiles -> color -> Parquet."""
    from .pipelines.flagship import flagship
    from .pipelines.tiles import DEFAULT_OPS, DEFAULT_ZOOM

    co = parse_creation_options(creation_options)
    _ensure_ray()
    ds = flagship(
        sf_dir,
        replicate=replicate,
        ops=ops or DEFAULT_OPS,
        z=DEFAULT_ZOOM if zoom is None else zoom,
    )
    ds.write_parquet(dst_path, **co)
    click.echo(f"wrote {dst_path}")


@engine.command("resume")
@click.argument("sf_dir", type=click.Path(exists=True))
@click.argument("out_dir")
@click.option("--n-parts", type=int, default=16)
@click.option("--replicate", type=int, default=1)
@click.option("--max-partitions", type=int, default=None, help="Stop after this many partitions (testing).")
def resume_cmd(sf_dir, out_dir, n_parts, replicate, max_partitions):
    """Run or resume the checkpointed flagship; prints the run summary.

    Completed cell-range partitions (those with a lineage record under
    OUT_DIR/_lineage/) are skipped; only the remainder is recomputed.
    """
    from .state import resumable_flagship

    _ensure_ray()
    summary = resumable_flagship(
        sf_dir, out_dir, n_parts=n_parts, replicate=replicate, max_partitions=max_partitions
    )
    click.echo(json.dumps(summary))




@engine.command("curate")
@click.argument("sf_dir", type=click.Path(exists=True))
@click.argument("out_dir")
@click.option("--n-parts", type=int, default=16)
@click.option("--min-quality-ppm", type=int, default=None)
@click.option("--max-partitions", type=int, default=None, help="Stop after this many partitions (testing).")
def curate_cmd(sf_dir, out_dir, n_parts, min_quality_ppm, max_partitions):
    """Run or resume the checkpointed corpus-curation funnel.

    Quality filter -> exact dedup -> stratified sample -> split, written
    as one parquet partition per CONTENT-HASH bucket with lineage, so a
    killed run resumes from the completed buckets.
    """
    from .pipelines.curate import CURATE_MIN_QUALITY_PPM
    from .state import resumable_curate

    _ensure_ray()
    summary = resumable_curate(
        sf_dir,
        out_dir,
        n_parts=n_parts,
        max_partitions=max_partitions,
        min_quality_ppm=(
            CURATE_MIN_QUALITY_PPM if min_quality_ppm is None else min_quality_ppm
        ),
    )
    click.echo(json.dumps(summary))


@engine.command("query")
@click.option("--list", "list_names", is_flag=True, help="List query names and exit")
@click.argument("name", required=False)
@click.argument("sf_dir", required=False, type=click.Path(exists=True))
@click.argument("dst_path", required=False, type=click.Path(exists=False))
def query(list_names, name, sf_dir, dst_path):
    """Run any named pipeline from the registry over SF_DIR.

    Writes the result Dataset as Parquet to DST_PATH (a streaming
    write); with no DST_PATH, prints up to 20 rows. Every
    operator the engine implements is runnable from here — the CLI
    analog of the reference's `rio color` per-operator surface.
    """
    from .registry import queries

    reg = queries()
    if list_names:
        for n in sorted(reg):
            click.echo(n)
        return
    if name not in reg:
        raise click.UsageError(
            f"unknown query {name!r} (use --list to see the {len(reg)} names)"
        )
    if not sf_dir:
        raise click.UsageError("SF_DIR is required")
    _ensure_ray()
    res = reg[name](sf_dir)
    if dst_path:
        res.write_parquet(dst_path)
        click.echo(f"wrote {dst_path}")
    else:
        # preview: limit INSIDE the dataset so the driver never
        # materializes a row-per-event result just to print 20 rows
        click.echo(res.limit(20).to_pandas().to_string())


if __name__ == "__main__":
    engine()
