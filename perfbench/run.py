"""rio_color_ray benchmark: the tile, resume and dedup paths.

Usage, from the repository root::

    python3 perfbench/run.py --workload tiles_z10 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10
    python3 perfbench/run.py --kernels --seed 1

Workloads: ``tiles_z10``, ``tiles_resume``, ``corpus_dedup`` (see
workloads.py; BENCHMARK.json times the first two). Inputs come from ``--seed`` only. After two untimed
set-ups, one client runs the workload in a closed loop for ``--seconds``
and checks every run's output. The last stdout line is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``).
After every timed run a fixed reference job runs in the same session;
``setup_s``, ``wall_s`` and ``cpu_s`` are medians scaled by the reference's
median, so that the host's speed at the moment cancels (see
reference.py). Lines before it report input sizes, CPU counts, load, the host's steal
share (time withheld from this machine's CPUs, which moves wall times
whatever the program does) and every sample.

``--trace 1`` also runs one traced pass of every workload's pipelines,
times each layer's kernel outside Ray, folds each operator's
``Dataset.stats()`` and writes the spans to ``.pb/traces/``.
``--workload all`` runs each workload in its own process and keeps going
when one fails. ``--kernels`` prints only the Ray-free kernel timings.
"""

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import uuid

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench import harness, reference  # noqa: E402

WORK = os.path.join(ROOT, ".pb")


def _spec():
    """Metric names and units, as BENCHMARK.json at the checkout root lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


E2E_UNITS, LAYER_UNITS = _spec()


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--kernels", action="store_true", help="Ray-free kernel timings only")
    return p.parse_args(argv)


def engine_importable():
    try:
        import rio_color_ray  # noqa: F401
    except ImportError as e:
        print(f"perfbench: cannot import the engine from {ROOT}: {e}", file=sys.stderr)
        return False
    return True


def info(tag, payload):
    print(f"perfbench.{tag} {json.dumps(payload, sort_keys=True)}", flush=True)


def make_inputs(seed, dirs):
    from perfbench import inputs
    from perfbench.workloads import N_DOCS, Inputs

    docs = inputs.make_documents(seed, N_DOCS)
    sf_dir = os.path.join(dirs, "in")
    inputs.write_documents(docs, sf_dir)
    work = os.path.join(dirs, "out")
    os.makedirs(work, exist_ok=True)
    return Inputs(seed, sf_dir, work, docs)


def run_workload(args):
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if not engine_importable():
        return 2
    run_id = uuid.uuid4().hex[:12]
    dirs = os.path.join(WORK, str(os.getpid()))  # inputs, outputs, Ray temp
    temp = harness.ray_temp_dir(dirs)
    harness.start_watchdog(harness.DEADLINE_S, [dirs, temp])
    # a terminated run still stops Ray and removes its dirs (finally below)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    nproc, affinity = harness.cpu_counts()
    session = harness.Session(nproc, temp, os.pathsep.join([ROOT, os.environ.get("PYTHONPATH", "")]))
    quiet = harness.Tracer(False, run_id)
    ledger = harness.Ledger()
    try:
        workload = WORKLOADS[args.workload]()
        inp = make_inputs(args.seed, dirs)
        workload.prepare(inp, quiet)
        from perfbench.inputs import hotspot_share

        info("inputs", {
            "workload": workload.name, "seed": args.seed, "docs": inp.docs.num_rows,
            "pages": workload.units["pages"], "tiles": workload.units["tiles"],
            "hotspot_page_share": round(hotspot_share(inp.docs), 4),
        })
        setups = []
        for i in range(harness.N_SETUPS):
            t0 = time.perf_counter()
            session.start()
            ledger.attempt(f"warm-up {i}", workload, inp, quiet, -1 - i)
            setups.append(time.perf_counter() - t0)
            if i < harness.N_SETUPS - 1:
                session.stop()
        reference.run()  # warm-up: the first run in a session is slower
        with harness.RssSampler() as rss:
            runs, refs = [], []
            stat0 = harness.cpu_stat()
            t_loop = time.perf_counter()
            while not runs or time.perf_counter() - t_loop < args.seconds:
                gc.collect()  # outside the timed region: every run starts from the same heap
                sample = ledger.attempt(f"run {len(runs)}", workload, inp, quiet, len(runs))
                runs.append(sample)
                if sample.outcome is None and ledger.timed_out:
                    break  # the engine may still be busy
                if sample.outcome is not None:
                    sample.outcome.outputs = None  # release the blocks before the next run
                refs.append(reference.measure(ledger.cpu))
            stat1 = harness.cpu_stat()
        ok = [r for r in runs if r.outcome is not None]
        info("host", {
            "steal_share": harness.steal_share(stat0, stat1),
            "nproc": nproc, "affinity_cpus": affinity, "ray_num_cpus": nproc,
            "loadavg_1m": os.getloadavg()[0], "timed_runs": len(runs), "verified_runs": len(ok),
            "walls_s": [round(r.wall_s, 4) for r in ok],
            "cpus_s": [round(r.cpu_s, 4) for r in ok],
            "setups_s": [round(w, 4) for w in setups],
            "reference_walls_s": [round(w, 4) for w, _ in refs],
            "reference_cpus_s": [round(c, 4) for _, c in refs],
        })
        if args.trace:
            metrics = traced(args, workload, inp, ledger, [r.wall_s for r in ok], run_id)
        else:
            metrics = end_to_end(workload, inp, setups, ok or runs, refs, rss.peak, ledger)
    finally:
        session.stop()
        shutil.rmtree(dirs, ignore_errors=True)
        shutil.rmtree(temp, ignore_errors=True)
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)
    for f in ledger.failures:
        info("failure", {"run": f})
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


def end_to_end(workload, inp, setups, timed, refs, peak_rss, ledger):
    """End-to-end metrics over the verified timed runs (over all timed
    runs when none was verified; the result line then says incorrect).

    Times are scaled to a host on which the reference job takes
    ``reference.REF_WALL_S`` (``REF_CPU_S`` of CPU time): each median is
    multiplied by that over the median of the ``refs`` (wall s, CPU s)
    measured in the same loop.
    """
    walls = [r.wall_s for r in timed]
    ok = [r for r in timed if r.outcome is not None]
    refs = refs or [(reference.REF_WALL_S, reference.REF_CPU_S)]  # a first-run timeout: unscaled
    wall_scale = reference.REF_WALL_S / statistics.median([w for w, _ in refs])
    cpu_scale = reference.REF_CPU_S / statistics.median([c for _, c in refs])
    wall = statistics.median(walls) * wall_scale
    # reported, not gated: below 21 samples no percentile above the
    # median has ten samples beyond it, and the maximum moves with the
    # host's steal more than any other statistic
    tail, pct, beyond = harness.tail(walls)
    info("tail", {"wall_s.tail": tail * wall_scale, "percentile": pct, "beyond": beyond,
                  "samples": len(walls), "unscaled_median_s": statistics.median(walls),
                  "wall_scale": wall_scale, "cpu_scale": cpu_scale})
    values = {
        "setup_s": statistics.median(setups) * wall_scale,
        "wall_s": wall,
        "cpu_s": statistics.median([r.cpu_s for r in timed]) * cpu_scale,
        "docs_per_s": inp.docs.num_rows / wall,
        "pages_per_s": workload.units["pages"] / wall,
        "out_rows_per_s": statistics.median([r.outcome.out_rows for r in ok] or [0]) / wall,
        "ok_ratio": (ledger.attempted - ledger.failed) / ledger.attempted,
        "peak_rss_mb": peak_rss / 2**20,
        "out_bytes_per_row": statistics.median(
            [r.outcome.out_bytes / max(r.outcome.out_rows, 1) for r in ok] or [0]
        ),
    }
    return {k: {"value": values[k], "unit": u} for k, u in E2E_UNITS.items()}


def traced(args, workload, inp, ledger, walls, run_id):
    """One traced pass of every workload's pipelines, kernel timings and
    the per-operator stats fold."""
    from perfbench import inputs, kernels, tracefold
    from perfbench.workloads import WORKLOADS

    tracer = harness.Tracer(True, run_id)
    chains = {}  # name -> (workload, consumed datasets, outcome, wall_s)
    with tracer.span(f"trace.{workload.name}"):
        order = [workload] + [cls() for name, cls in WORKLOADS.items() if name != workload.name]
        for w in order:
            with tracer.span(f"chain.{w.name}"):
                if w is not workload:
                    w.prepare(inp, tracer)
                tracer.datasets = []
                sample = ledger.attempt(f"traced {w.name}", w, inp, tracer, 1000)
                chains[w.name] = (w, tracer.datasets, sample.outcome, sample.wall_s)
        z10 = chains["tiles_z10"][0]
        density = inputs.tiles_table(z10.tile_ids, z10.rendered)
        continuous = inputs.make_continuous_tiles(args.seed)
        km = kernels.measure(inp.docs, workload.replicate, density, continuous, tracer)

    m = dict(km)
    m.update(tracefold.io_metrics(chains[workload.name][1]))
    flag_w, flag_ds, _, _ = chains["tiles_z10"]
    m.update(tracefold.flagship_metrics(flag_ds, flag_w.units["pages"]))
    _, res_ds, res_out, _ = chains["tiles_resume"]
    m.update(tracefold.checkpoint_metrics(res_ds))
    if res_out is not None:
        m["state.checkpoint.bytes_written"] = res_out.extra["stored_bytes"]
        m["state.checkpoint.resume_skip_ratio"] = res_out.extra["resume_skip_ratio"]
    for name in ("tiles_resume", "corpus_dedup"):
        m.update(tracefold.exchange_metrics(chains[name][1]))
    cd_w, _, cd_out, _ = chains["corpus_dedup"]
    m["stages.dedup.candidate_pairs"] = cd_w.candidate_pairs
    if cd_out is not None:
        m["stages.dedup.verified_ratio"] = cd_out.outputs["near_dup"].num_rows / max(cd_w.candidate_pairs, 1)

    # kernel time against the fused operator's UDF time
    kernel_s = {
        "map_chain": kernels.map_chain_kernel_us_per_page(km) * flag_w.units["pages"] * 1e-6,
        "assemble_color": km["stages.color_stage.us_per_tile.dict"] * flag_w.units["tiles"] * 1e-6,
    }
    udf_s = {
        "map_chain": m.get("pipelines.flagship.map_chain.udf_s", 0.0),
        "assemble_color": m.get("pipelines.tiles.assemble_color.udf_s", 0.0),
    }
    for op in kernel_s:
        if udf_s[op]:
            m[f"trace.coverage.{op}"] = kernel_s[op] / udf_s[op]
    traced_wall = chains[workload.name][3]
    untraced = statistics.median(walls) if walls else None
    if untraced is not None:
        m["trace.overhead_s"] = traced_wall - untraced
    info("coverage", {"kernel_s": kernel_s, "fused_udf_s": udf_s,
                      "traced_wall_s": traced_wall, "untraced_median_wall_s": untraced})
    write_spans(tracer, workload.name, args.seed)
    missing = [k for k in LAYER_UNITS if k not in m]
    if missing:  # a failed chain, or an operator tracefold no longer recognises
        info("unmeasured", {"metrics": missing})
    return {k: {"value": m.get(k, 0), "unit": u} for k, u in LAYER_UNITS.items()}


def write_spans(tracer, workload, seed):
    """Spans to .pb/traces/, and each span name's total and self time."""
    out = os.path.join(WORK, "traces")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"{workload}-seed{seed}-{tracer.run_id}.json")
    with open(path, "w") as f:
        json.dump(tracer.spans, f)
    child = {}
    for s in tracer.spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
    agg = {}
    for s in tracer.spans:
        a = agg.setdefault(s["name"], [0, 0.0, 0.0])
        dur = s["end"] - s["start"]
        a[0] += 1
        a[1] += dur
        a[2] += dur - child.get(s["id"], 0.0)
    for name, (count, total, self_s) in sorted(agg.items(), key=lambda kv: -kv[1][1]):
        info("span", {"name": name, "count": count, "total_s": total, "self_s": self_s})
    info("trace_file", {"path": os.path.relpath(path, ROOT), "spans": len(tracer.spans)})


def run_kernels(args):
    from perfbench import inputs, kernels
    from perfbench.workloads import N_DOCS, Inputs, TilesZ10

    if not engine_importable():
        return 2
    quiet = harness.Tracer(False, "kernels")
    docs = inputs.make_documents(args.seed, N_DOCS)
    w = TilesZ10()
    w.prepare(Inputs(args.seed, "", "", docs), quiet)
    density = inputs.tiles_table(w.tile_ids, w.rendered)
    m = kernels.measure(docs, w.replicate, density, inputs.make_continuous_tiles(args.seed), quiet)
    print(json.dumps({k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in m.items()}), flush=True)
    return 0


def run_all(args):
    """Each workload in its own process; one failing does not stop the rest."""
    from perfbench.workloads import WORKLOADS

    if not engine_importable():
        return 2
    failed = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=harness.DEADLINE_S + 30)
        lines = proc.stdout.strip().splitlines()
        result = None
        if proc.returncode == 0 and lines:
            try:
                result = json.loads(lines[-1])
            except json.JSONDecodeError:
                pass
        if result is None:
            failed += 1
            err = (proc.stderr.strip().splitlines() or ["no output"])[-1]
            print(f"{name}: could not run (exit {proc.returncode}): {err}", flush=True)
            continue
        failed += result["failed"]
        print(f"{name}: {json.dumps(result)}", flush=True)
    print(f"workloads with failures or errors: {failed}", flush=True)
    return 1 if failed else 0


def main(argv=None):
    args = parse_args(argv)
    if args.kernels:
        return run_kernels(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
