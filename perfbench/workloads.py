"""The three workloads: what each runs, how big, and how it is checked.

Each workload drives the engine only through public pipeline and stage
functions. ``run`` returns the verified outputs and the counts the
metrics need; the harness times it from outside.
"""

import os
import shutil
from contextlib import contextmanager
from dataclasses import dataclass, field

import pyarrow as pa

from . import oracle

N_DOCS = 1000  # documents per seed, shared by every workload; each workload
# sets its pages from them by replication, sized so that an invocation (two
# set-ups, the timed loop) fits the run budget at 1 CPU


@dataclass
class Inputs:
    seed: int
    sf_dir: str
    work_dir: str
    docs: pa.Table


@dataclass
class Outcome:
    outputs: dict  # name -> pa.Table, each checked against the oracle
    out_rows: int
    out_bytes: int  # bytes of the result: on disk where stored, else Arrow
    extra: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)  # checks the run made itself


def consume(ds, tracer, name):
    """Execute ``ds`` and bring every block to the driver as Arrow."""
    import ray

    with tracer.span(f"consume.{name}"):
        tables = ray.get(ds.to_arrow_refs())
        tracer.datasets.append((name, ds))
    if not tables:
        return pa.table({})
    return pa.concat_tables(tables, promote_options="default").combine_chunks()


@contextmanager
def capture_to_pandas(tracer, name):
    """While tracing, keep each Dataset the engine consumes with
    ``to_pandas`` internally, so its operator stats can be folded."""
    if not tracer.enabled:
        yield
        return
    from ray.data import Dataset

    original = Dataset.to_pandas

    def spy(self, *args, **kwargs):
        out = original(self, *args, **kwargs)
        tracer.datasets.append((name, self))
        return out

    Dataset.to_pandas = spy
    try:
        yield
    finally:
        Dataset.to_pandas = original


class Workload:
    name = ""
    replicate = 1

    def __init__(self):
        self.expected = {}  # output name -> (rows, digest)
        self.columns = {}  # output name -> checked columns
        self.units = {}

    def prepare(self, inp: Inputs, tracer):
        """Expected outputs for this seed, off the engine's exchanges."""
        raise NotImplementedError

    def run(self, inp: Inputs, tracer, run_no: int) -> Outcome:
        raise NotImplementedError

    def check(self, outcome: Outcome) -> list:
        """Mismatches between a run's outputs and the expected values."""
        bad = list(outcome.problems)
        for name, want in self.expected.items():
            table = outcome.outputs.get(name)
            if table is None:
                bad.append(f"{name}: missing output")
                continue
            missing = [c for c in self.columns[name] if c not in table.column_names]
            if missing:
                bad.append(f"{name}: missing columns {missing}")
                continue
            got = oracle.digest(table, self.columns[name])
            if got != want:
                bad.append(f"{name}: rows/digest {got} != expected {want}")
        return bad


class TilesWorkload(Workload):
    z = 0

    def prepare(self, inp, tracer):
        """Expected tiles: what a one-shot flagship renders at this zoom."""
        from rio_color_ray.pipelines.tiles import DEFAULT_OPS

        with tracer.span("oracle.tiles"):
            table, rendered = oracle.reference_tiles(inp.docs, self.replicate, self.z, DEFAULT_OPS)
        self.expected = {"tiles": oracle.digest(table, oracle.TILE_COLUMNS)}
        self.columns = {"tiles": oracle.TILE_COLUMNS}
        self.rendered = rendered  # pre-color pixels, the color kernels' input
        self.tile_ids = table.column("tile_id").to_pylist()
        self.units = {"pages": inp.docs.num_rows * self.replicate, "tiles": table.num_rows}


class TilesZ10(TilesWorkload):
    """Tile-heavy: ``flagship`` at zoom 10 over 20k pages (~13.6k tiles).

    Traced at 1 CPU: the fused assemble+color operator's UDF time is ~36%
    of a run, the boundary sort ~8%, the upstream map chain ~11%; the rest
    is Ray task scheduling and transfers outside any UDF.
    """

    name = "tiles_z10"
    replicate = 20
    z = 10

    def run(self, inp, tracer, run_no):
        from rio_color_ray.pipelines.flagship import flagship

        with tracer.span("pipelines.flagship.flagship"):
            ds = flagship(inp.sf_dir, replicate=self.replicate, z=self.z)
            tiles = consume(ds, tracer, "flagship")
        return Outcome({"tiles": tiles}, tiles.num_rows, tiles.nbytes)


class TilesResume(TilesWorkload):
    """Writes beside reads: a killed then resumed ``resumable_flagship`` at
    zoom 7 over 5k pages (~2.9k tiles), then ``read_output``.

    Traced at 1 CPU, over both calls: the tile sort plus assemble+color
    operators are ~41% of a run, the ``groupby().map_groups`` checkpoint
    writer ~28%, the upstream map chain ~12%, the read-back ~6%.
    """

    name = "tiles_resume"
    replicate = 5
    z = 7
    n_parts = 16

    def run(self, inp, tracer, run_no):
        from rio_color_ray import state

        out = os.path.join(inp.work_dir, f"resume-{run_no}")
        shutil.rmtree(out, ignore_errors=True)
        try:
            with tracer.span("state.checkpoint.resumable_flagship.killed"), capture_to_pandas(
                tracer, "checkpointed_write.killed"
            ):
                first = state.resumable_flagship(
                    inp.sf_dir, out, n_parts=self.n_parts, replicate=self.replicate,
                    z=self.z, max_partitions=self.n_parts // 2,
                )
            with tracer.span("state.checkpoint.resumable_flagship.resumed"), capture_to_pandas(
                tracer, "checkpointed_write.resumed"
            ):
                second = state.resumable_flagship(
                    inp.sf_dir, out, n_parts=self.n_parts, replicate=self.replicate, z=self.z
                )
            with tracer.span("state.checkpoint.read_output"):
                tiles = consume(state.read_output(out), tracer, "read_output")
            stored = stored_bytes(out)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        bad_summary = (
            first["written_now"] != self.n_parts // 2
            or second["completed_before"] != self.n_parts // 2
            or second["written_now"] != self.n_parts - self.n_parts // 2
        )
        extra = {"stored_bytes": stored, "resume_skip_ratio": second["completed_before"] / self.n_parts}
        problems = [f"resume summaries {first} / {second} do not split the partitions"] if bad_summary else []
        return Outcome({"tiles": tiles}, tiles.num_rows, stored, extra, problems)


def stored_bytes(out_dir: str) -> int:
    """Parquet and lineage bytes under a checkpointed output directory."""
    from rio_color_ray.state.lineage import TMP_DIR

    total = 0
    for root, dirs, files in os.walk(out_dir):
        dirs[:] = [d for d in dirs if d != TMP_DIR]
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total


class CorpusDedup(Workload):
    """Text side, no geo, tile or color work: curate, MinHash near-dup
    pairs and dedup clusters through the hash-bucket and ``map_groups``
    exchanges."""

    name = "corpus_dedup"
    replicate = 2  # near_dup_pairs_minhash's default pages replication

    def prepare(self, inp, tracer):
        with tracer.span("oracle.curate"):
            cur = oracle.reference_curate(inp.docs)
        with tracer.span("oracle.near_dup"):
            pairs, n_cand = oracle.reference_near_dup(inp.docs, self.replicate)
        with tracer.span("oracle.clusters"):
            clusters = oracle.reference_clusters(inp.docs)
        self.columns = {
            "curate": oracle.CURATE_COLUMNS,
            "near_dup": oracle.PAIR_COLUMNS,
            "clusters": oracle.CLUSTER_COLUMNS,
        }
        self.expected = {
            "curate": oracle.digest(cur, oracle.CURATE_COLUMNS),
            "near_dup": oracle.digest(pairs, oracle.PAIR_COLUMNS),
            "clusters": oracle.digest(clusters, oracle.CLUSTER_COLUMNS),
        }
        self.candidate_pairs = n_cand
        self.reference = {"curate": cur, "near_dup": pairs, "clusters": clusters}
        self.units = {"pages": inp.docs.num_rows * self.replicate, "tiles": 0}

    def run(self, inp, tracer, run_no):
        from rio_color_ray.pipelines import corpus, curate

        outs = {}
        with tracer.span("pipelines.curate.curate_corpus"):
            outs["curate"] = consume(curate.curate_corpus(inp.sf_dir), tracer, "curate")
        with tracer.span("pipelines.corpus.near_dup_pairs_minhash"):
            outs["near_dup"] = consume(
                corpus.near_dup_pairs_minhash(inp.sf_dir, replicate=self.replicate),
                tracer, "near_dup",
            )
        with tracer.span("pipelines.corpus.dedup_clusters"):
            outs["clusters"] = consume(corpus.dedup_clusters(inp.sf_dir), tracer, "clusters")
        rows = sum(t.num_rows for t in outs.values())
        return Outcome(outs, rows, sum(t.nbytes for t in outs.values()))


WORKLOADS = {w.name: w for w in (TilesZ10, TilesResume, CorpusDedup)}
