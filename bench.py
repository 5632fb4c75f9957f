"""Benchmark harness — prints ONE JSON line (driver contract).

Plain run: times the headline pipelines over $GRAFT_SF_DIR (default
sf0.1) in a session of $RAY_GRAFT_CPUS CPUs (default: the CPUs this
process may run on, ``os.sched_getaffinity``; a fixed larger count
oversubscribes the cores and times the scheduler), after one
untimed warm-up pass of the full flagship path at each zoom
(worker-process spawn + library import + object-store allocation are
deployment-lifetime costs, not steady-state throughput). The emitted
JSON carries an evidence block — every raw sample, the 1-min loadavg
bracketing each run, and the settle-gate outcome — so a reading taken
under ambient load is identifiable from the artifact alone.

``--scaling``: the sandbox protocol for the north_rule's N-vs-4N-node
criterion — the same flagship job (replicate=40, z=10, compute-bound) at
``num_cpus=2`` and ``num_cpus=8`` in FRESH subprocesses on the same
input. 2-vs-8 rather than 8-vs-32 because this VM caps aggregate
throughput above ~16 busy cores for ANY workload (pure-numpy
multiprocessing calibration shows the same ceiling; table in
BASELINE.md) — a machine property a real 4x-node cluster does not have.
Both pairs are recorded in BASELINE.md. Each child is pinned to that
many allowed CPUs; on a host with fewer allowed CPUs than a child asks
for, that child runs unpinned (a warning says so) and the ratio is not
a scaling measurement.
"""

import json
import os
import statistics
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", len(os.sched_getaffinity(0))))
REPLICATE = int(os.environ.get("GRAFT_REPLICATE", "20"))

# Scaling-child workload: sized so per-run fixed costs (session + read
# + sort barrier + reduce-wave quantization, ~5-6s at either width) are
# amortized the way a 100 TB steady-state run amortizes them. The
# dictionary-encoded color stage (round 5) cut the flagship's compute
# 2.4x, so the long-standing 320 stopped dominating that overhead
# (measured: eff 0.90 at the old compute level, 0.73 right after the
# speedup, recovered at 960 — BASELINE.md scaling invocations 17-18).
SCALING_REPLICATE = int(os.environ.get("GRAFT_SCALING_REPLICATE", "960"))
SCALING_ZOOM = 10


def _init_ray(num_cpus):
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    import logging

    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    return ray


def _settle(max_wait=240, threshold=1.0):
    """Wait for the machine to go quiet before timing: a preceding run's
    worker teardown contaminates results (measured 5.4s vs 3.5s flagship
    for identical code on busy vs quiet). Ambient load on this box comes
    in multi-minute waves with quiet gaps (loadavg 0.3-0.5) between them
    — 240s is long enough to usually catch a gap, and threshold 1.0
    accepts the near-quiet state the 1-minute average decays through.

    Returns ``(waited_s, timed_out)`` so the emitted JSON can say whether
    the gate was met or silently abandoned (VERDICT r04 #1: a reading
    taken after a timed-out settle must be interpretable as such)."""
    t0 = time.time()
    while time.time() - t0 < max_wait:
        if os.getloadavg()[0] < threshold:
            return round(time.time() - t0, 1), False
        time.sleep(5)
    return round(time.time() - t0, 1), True


def run_bench():
    settle_waited_s, settle_timed_out = _settle()
    loadavg_pre = os.getloadavg()
    ray = _init_ray(NUM_CPUS)
    from rio_color_ray.pipelines import geo
    from rio_color_ray.pipelines.flagship import flagship

    # untimed FULL-SIZE warm-up (worker spawn, imports, indexes, page
    # cache; a small warm pass leaves the first timed run still
    # improving). Both zooms: the z10 tile set is 6x the z7 one and its
    # first pass pays object-store allocation the z7 warm-up doesn't
    # cover (first z10 sample measured ~0.7s above its siblings).
    flagship(SF_DIR, replicate=REPLICATE).count()
    flagship(SF_DIR, replicate=REPLICATE, z=SCALING_ZOOM).count()

    queries = {}
    # self-interpreting evidence (VERDICT r04 #1): every raw sample and
    # the loadavg bracketing each query, so a noisy reading is visibly
    # noisy (spread in `samples`, elevated `loadavg`) in the artifact
    # itself rather than only in builder-side notes.
    samples: dict[str, list[float]] = {}
    loadavg: dict[str, list[float]] = {}
    n_runs = int(os.environ.get("GRAFT_BENCH_RUNS", "2"))

    def timed(name, make, consume=lambda ds: ds.count(), runs=None):
        # min over n_runs: ambient interference on this box is strictly
        # additive (identical code measured 3.1-7.8s for the flagship
        # depending on neighbor load), so min estimates true capability
        best, out = None, None
        la = [round(os.getloadavg()[0], 2)]
        runs_s = []
        for _ in range(runs or n_runs):
            t0 = time.time()
            out = consume(make())
            dt = time.time() - t0
            runs_s.append(round(dt, 3))
            la.append(round(os.getloadavg()[0], 2))
            best = dt if best is None else min(best, dt)
        queries[name] = round(best, 3)
        samples[name] = runs_s
        loadavg[name] = la
        return out

    # FLAGSHIP FIRST (round-4 fix): round 3 timed it AFTER >20s of
    # all-to-all dedup shuffles in the same session, which inflated the
    # headline 2.77->3.29s round-over-round (VERDICT r03 #1). The headline
    # must be the steady-state number right after warm-up, with the heavy
    # shuffle entries last so their session-level residue (object-store
    # fragmentation, worker churn) can't leak into it.
    # The headline gets 4 samples (vs 2 elsewhere): a ~2.6s pipeline under
    # bursty neighbor load needs more draws for the min to converge —
    # measured spread on identical code is 2.54-2.97s within one session.
    n_tiles = timed(
        "flagship", lambda: flagship(SF_DIR, replicate=REPLICATE), runs=max(n_runs, 4)
    )
    flag_sec = queries["flagship"]

    # the compute-bound variant (dense zoom): tracks the tile+color path
    n_tiles_z10 = timed(
        "flagship_z10",
        lambda: flagship(SF_DIR, replicate=REPLICATE, z=SCALING_ZOOM),
        runs=max(n_runs, 3),
    )

    n_pages = timed("geocode_cellify", lambda: geo.cellified(SF_DIR, replicate=REPLICATE))
    timed("grid_cell_agg", lambda: geo.grid_cell_agg(SF_DIR))
    timed("cell_agg_salted_h8", lambda: geo.cell_agg_salted(SF_DIR, "h3_r8"))
    timed("rect_join", lambda: geo.rect_join(SF_DIR))
    timed("pip_join", lambda: geo.pip_join(SF_DIR))

    # the corpus-curation headline: quality filter -> exact dedup ->
    # stratified sample -> split (the hash-bucket-reduce path)
    from rio_color_ray.pipelines import curate

    timed("curate_corpus", lambda: curate.curate_corpus(SF_DIR))
    timed("pack_sequences", lambda: curate.pack_sequences(SF_DIR))

    # the dedup headline: regressions in the LSH-pair and min-label-CC
    # paths must be visible round-over-round like the flagship's
    from rio_color_ray.pipelines import corpus

    timed("near_dup_minhash", lambda: corpus.near_dup_pairs_minhash(SF_DIR))
    timed("dedup_clusters", lambda: corpus.dedup_clusters(SF_DIR))

    result = {
        "metric": "flagship_sec (pages->geocode->cellify->pip_join->tiles->color)",
        "value": round(flag_sec, 3),
        "unit": "sec",
        "queries": queries,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "replicate": REPLICATE,
        "n_pages": int(n_pages),
        "n_tiles": int(n_tiles),
        "n_tiles_z10": int(n_tiles_z10),
        "rows_joined_tiled_per_sec": round(n_pages / flag_sec, 1),
        # the BASELINE.json headline names both rates: pages through the
        # join+tile path, and color-corrected tiles out of the color stage
        "color_tiles_per_sec": round(n_tiles / flag_sec, 1),
        "color_tiles_per_sec_z10": round(n_tiles_z10 / queries["flagship_z10"], 1),
        # evidence block: raw per-run seconds and the 1-min loadavg
        # observed before the first and after every run of each query
        "samples": samples,
        "loadavg": loadavg,
        "settle_waited_s": settle_waited_s,
        "settle_timed_out": settle_timed_out,
        "loadavg_pre": [round(x, 2) for x in loadavg_pre],
        "loadavg_post": [round(x, 2) for x in os.getloadavg()],
    }
    print(json.dumps(result))
    ray.shutdown()
    return result


def run_scaling_child(num_cpus, n_runs=4):
    loadavg_pre = os.getloadavg()
    ray = _init_ray(num_cpus)
    from rio_color_ray.pipelines.flagship import flagship

    # Warm with one untimed FULL-SIZE pass: a small warm-up leaves the
    # first timed runs still improving (measured 79->62->56->47s across
    # 4 runs at 8 CPUs after a replicate=2 warm — page cache, worker
    # pool and allocator reach steady state only at full block count).
    flagship(SF_DIR, replicate=SCALING_REPLICATE, z=SCALING_ZOOM).count()
    times = []
    n_tiles = 0
    for _ in range(n_runs):
        t0 = time.time()
        n_tiles = flagship(SF_DIR, replicate=SCALING_REPLICATE, z=SCALING_ZOOM).count()
        times.append(time.time() - t0)
    # ambient-noise model: interference from the box (another tenant, a
    # preceding session's teardown) is strictly ADDITIVE, so min-of-N
    # estimates true capability; runs measured 20-53s for identical code
    # depending on ambient load. Median and raw runs are reported too.
    dt = min(times)
    import pyarrow.parquet as pq

    n_docs = pq.read_metadata(f"{SF_DIR}/documents.parquet").num_rows
    n_pages = n_docs * SCALING_REPLICATE
    print(
        json.dumps(
            {
                "num_cpus": num_cpus,
                "sec": round(dt, 3),
                "sec_median": round(statistics.median(times), 3),
                "all_runs_sec": [round(t, 3) for t in times],
                "n_pages": n_pages,
                "n_tiles": int(n_tiles),
                "rows_joined_tiled_per_sec": round(n_pages / dt, 1),
                "loadavg_pre": [round(x, 2) for x in loadavg_pre],
                "loadavg_post": [round(x, 2) for x in os.getloadavg()],
            }
        )
    )
    ray.shutdown()


def run_scaling(lo=2, hi=8):
    def run(ncpu):
        # eff measured 0.45 busy vs 0.89 quiet for identical code
        waited, timed_out = _settle(max_wait=180)
        print(
            f"settle before {ncpu}-CPU child: waited {waited}s"
            f"{' (TIMED OUT, box still busy)' if timed_out else ''}",
            file=sys.stderr,
        )
        # PIN the child (and everything it forks — Ray workers, object
        # store) to exactly ncpu cores: ray.init(num_cpus=N) only bounds
        # task SLOTS, and on a quiet box a 2-slot session's auxiliary
        # threads opportunistically exceed them (measured 18.2k rows/s
        # at "2 CPUs" — ~3.3 effective cores), which deflates the
        # efficiency ratio. Affinity makes "N CPUs" physically true,
        # which is what the N-vs-4N-node criterion models. The pin set
        # is the LAST N CPUs of this process's ALLOWED set (never a
        # hardcoded 0..N-1): it survives cgroup/cpuset restrictions and
        # keeps CPU0 — the kernel's housekeeping core — out of BOTH
        # children, so the small child isn't asymmetrically taxed (this
        # box has no SMT: 1 thread/core, so N CPUs = N physical cores).
        import shutil

        cmd = [sys.executable, os.path.abspath(__file__), "--scaling-child", str(ncpu)]
        allowed = sorted(os.sched_getaffinity(0))
        if shutil.which("taskset") and len(allowed) >= ncpu:
            pin = ",".join(str(c) for c in allowed[-ncpu:])
            cmd = ["taskset", "-c", pin] + cmd
            print(f"pinning {ncpu}-CPU child to CPUs {pin}", file=sys.stderr)
        else:
            print(
                f"WARNING: running {ncpu}-CPU child UNPINNED "
                f"(taskset={'yes' if shutil.which('taskset') else 'no'}, "
                f"allowed={len(allowed)})",
                file=sys.stderr,
            )
        out = subprocess.run(
            cmd,
            env=dict(os.environ),
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    r_lo, r_hi = run(lo), run(hi)
    tp_lo = r_lo["rows_joined_tiled_per_sec"]
    tp_hi = r_hi["rows_joined_tiled_per_sec"]
    eff = (tp_hi / tp_lo) / (hi / lo)
    # median-based twin: min-of-N assumes interference is strictly
    # additive, but a small (2-CPU) child on a quiet box can EXCEED its
    # slot accounting (measured 18.7k rows/s once — ~3.4 effective
    # CPUs), deflating the min-based ratio; the per-child median is
    # robust in both directions (BASELINE.md round-3 notes)
    eff_med = (r_lo["sec_median"] / r_hi["sec_median"]) / (hi / lo)
    print(
        json.dumps(
            {
                "metric": f"scaling_efficiency_{lo}_to_{hi}",
                "value": round(eff, 3),
                "value_median_based": round(eff_med, 3),
                "unit": "efficiency",
                f"sec_{lo}": r_lo["sec"],
                f"sec_{hi}": r_hi["sec"],
                f"throughput_{lo}": tp_lo,
                f"throughput_{hi}": tp_hi,
                f"all_runs_sec_{lo}": r_lo["all_runs_sec"],
                f"all_runs_sec_{hi}": r_hi["all_runs_sec"],
                f"loadavg_{lo}": r_lo["loadavg_pre"] + r_lo["loadavg_post"],
                f"loadavg_{hi}": r_hi["loadavg_pre"] + r_hi["loadavg_post"],
                "replicate": SCALING_REPLICATE,
                "zoom": SCALING_ZOOM,
                "sf": SF_DIR,
            }
        )
    )


if __name__ == "__main__":
    if "--scaling-child" in sys.argv:
        run_scaling_child(int(sys.argv[sys.argv.index("--scaling-child") + 1]))
    elif "--scaling" in sys.argv:
        run_scaling()
        # the full-machine pair is reported too (throttled; see BASELINE.md)
        if "--all-pairs" in sys.argv:
            run_scaling(8, 32)
    else:
        run_bench()
