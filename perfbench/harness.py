"""Ray session, run ledger, memory sampling, timeouts and the tracer.

One driver process runs a closed loop with one client: a run starts when
the previous one has finished and been checked. Each invocation owns a
fresh Ray session sized to what ``nproc`` reports, under a temp dir
inside the checkout, removed at exit together with inputs and outputs.
"""

import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from contextlib import contextmanager

N_SETUPS = 2  # set-ups per invocation; setup_s is their median
RUN_TIMEOUT_S = 60.0  # a run slower than this counts as failed
DEADLINE_S = 170.0  # the whole invocation, set-up included
RSS_PERIOD_S = 0.25
OBJECT_STORE_BYTES = 512 * 1024 * 1024
_AF_UNIX_MAX = 107
_SOCKET_TAIL = 72  # session_<date>_<pid>/sockets/plasma_store


class RunTimeout(Exception):
    pass


class Tracer:
    """Spans kept in memory; disabled, every call is a no-op."""

    def __init__(self, enabled: bool, run_id: str):
        self.enabled = enabled
        self.run_id = run_id
        self.spans = []
        self._stack = []
        self._next = 0
        self.datasets = [] if enabled else _Discard()

    @contextmanager
    def span(self, name):
        if not self.enabled:
            yield
            return
        self._next += 1
        sid = self._next
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans.append(
                {"run_id": self.run_id, "id": sid, "parent": parent, "name": name,
                 "start": start, "end": time.perf_counter()}
            )


class _Discard(list):
    def append(self, _item):
        pass


def cpu_counts():
    """(what ``nproc`` reports, CPUs in the affinity mask)."""
    affinity = len(os.sched_getaffinity(0))
    try:
        out = subprocess.run(["nproc"], capture_output=True, text=True, timeout=10, check=True)
        return int(out.stdout.strip()), affinity
    except (OSError, subprocess.SubprocessError, ValueError):
        return affinity, affinity


def cpu_stat():
    """The machine-wide CPU counters of /proc/stat (jiffies)."""
    with open("/proc/stat") as f:
        return [int(v) for v in f.readline().split()[1:]]


def steal_share(before, after):
    """Share of CPU time the host withheld (steal) between two readings:
    when it moves, wall times move with it, whatever the program does."""
    d = [b - a for a, b in zip(before, after)]
    return d[7] / max(sum(d[:8]), 1)


def ray_temp_dir(base: str) -> str:
    """A temp dir short enough for Ray's AF_UNIX socket paths.

    Inside the checkout when its path allows; otherwise a fresh dir in
    the system temp dir, removed at exit like the in-checkout one.
    """
    path = os.path.join(base, "r")
    if len(path) + _SOCKET_TAIL <= _AF_UNIX_MAX:
        return path
    print("perfbench: checkout path too long for Ray sockets, using the system temp dir",
          file=sys.stderr)
    return tempfile.mkdtemp(prefix="pb")


class Session:
    """One Ray session at a time; stop() waits for every child process."""

    def __init__(self, num_cpus: int, temp_dir: str, pythonpath: str):
        self.num_cpus = num_cpus
        self.temp_dir = temp_dir
        os.environ["PYTHONPATH"] = pythonpath  # workers import the engine
        os.environ["RAY_TMPDIR"] = temp_dir
        os.environ["RAY_USAGE_STATS_ENABLED"] = "0"

    def start(self):
        import ray

        os.makedirs(self.temp_dir, exist_ok=True)
        ray.init(
            num_cpus=self.num_cpus,
            object_store_memory=OBJECT_STORE_BYTES,
            include_dashboard=False,
            log_to_driver=False,
            logging_level="ERROR",
            _temp_dir=self.temp_dir,
        )
        from ray.data import DataContext

        DataContext.get_current().enable_progress_bars = False

    def stop(self):
        import psutil
        import ray

        me = psutil.Process()
        # listed before shutdown: workers orphaned by the raylet's exit
        # are no longer this process's descendants, but are waited for
        procs = {p.pid: p for p in me.children(recursive=True)}
        if ray.is_initialized():
            ray.shutdown()
        procs.update((p.pid, p) for p in me.children(recursive=True))
        _, alive = psutil.wait_procs(list(procs.values()), timeout=10)
        for p in alive:
            try:
                p.kill()
            except psutil.Error:
                pass
        psutil.wait_procs(alive, timeout=10)


class RssSampler:
    """Peak summed RSS of this process and its Ray worker processes,
    sampled every RSS_PERIOD_S by a thread while entered."""

    def __init__(self):
        import psutil

        self.peak = 0
        self._me = psutil.Process()
        self._workers = {}  # pid -> psutil.Process
        self._stop = threading.Event()
        self._thread = None

    def _sample(self):
        import psutil

        for p in self._me.children(recursive=True):
            if p.pid not in self._workers:
                try:
                    if "default_worker" in " ".join(p.cmdline()) or p.name().startswith("ray::"):
                        self._workers[p.pid] = p
                except psutil.Error:
                    pass
        rss = self._me.memory_info().rss
        for pid, p in list(self._workers.items()):
            try:
                rss += p.memory_info().rss
            except psutil.Error:
                del self._workers[pid]
        self.peak = max(self.peak, rss)

    def _loop(self):
        while not self._stop.wait(RSS_PERIOD_S):
            self._sample()

    def __enter__(self):
        self._sample()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self._sample()


@contextmanager
def time_limit(seconds):
    def fire(_signum, _frame):
        raise RunTimeout(f"run exceeded {seconds:.0f} s")

    old = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def start_watchdog(deadline_s, dirs):
    """Kill every child, remove ``dirs`` and exit nonzero if the
    invocation overruns."""

    def fire():
        import shutil

        import psutil

        print(f"perfbench: invocation exceeded {deadline_s:.0f} s, aborting", file=sys.stderr)
        children = psutil.Process().children(recursive=True)
        for p in children:
            try:
                p.kill()
            except psutil.Error:
                pass
        psutil.wait_procs(children, timeout=10)
        for d in dirs:
            shutil.rmtree(d, ignore_errors=True)
        sys.stderr.flush()
        os._exit(3)

    t = threading.Timer(deadline_s, fire)
    t.daemon = True
    t.start()
    return t


class CpuMeter:
    """CPU seconds (user + system) used so far by this process and every
    process it started: the Ray daemons and workers. Steal (time the host
    withholds from this machine) and time spent waiting for a core are not
    CPU time, so this moves less with the host's load than wall time."""

    def __init__(self):
        self._procs = {}  # pid -> psutil.Process
        self._last = {}  # pid -> its CPU seconds at the last reading

    def read(self):
        import psutil

        me = psutil.Process()
        for p in [me, *me.children(recursive=True)]:
            self._procs.setdefault(p.pid, p)
        for pid, p in self._procs.items():
            try:
                t = p.cpu_times()
                self._last[pid] = t.user + t.system
            except psutil.Error:
                pass  # exited: its last reading stands
        return sum(self._last.values())


class Sample:
    """One checked run: its wall time, CPU seconds and outcome (None when
    the run raised, timed out or produced a wrong result)."""

    def __init__(self, wall_s, cpu_s, outcome):
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.outcome = outcome


class Ledger:
    """Every checked run: attempted, failed, and why."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.timed_out = False  # the last failure was a timeout
        self.cpu = CpuMeter()

    def attempt(self, label, workload, inp, tracer, run_no) -> Sample:
        """Run once under the hard timeout and check the output."""
        self.attempted += 1
        cpu0 = self.cpu.read()
        t0 = time.perf_counter()
        outcome, bad = None, []
        try:
            with time_limit(RUN_TIMEOUT_S):
                outcome = workload.run(inp, tracer, run_no)
                with tracer.span("verify"):
                    bad = workload.check(outcome)
        except Exception as e:  # a failed operation is counted, not fatal
            self.timed_out = isinstance(e, RunTimeout)
            bad = [f"{type(e).__name__}: {e}"]
            traceback.print_exc(file=sys.stderr)
        wall = time.perf_counter() - t0
        cpu = self.cpu.read() - cpu0
        if bad:
            self.failures.append(f"{label}: " + "; ".join(bad))
            print(f"perfbench: {label} failed: {bad}", file=sys.stderr)
            outcome = None
        return Sample(wall, cpu, outcome)

    @property
    def failed(self):
        return len(self.failures)


def tail(walls):
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples beyond it. Below 21 samples that percentile is not
    above the median, so the maximum is reported instead (0 beyond)."""
    s = sorted(walls)
    n = len(s)
    if n >= 21:
        k = n - 11
        return s[k], 100.0 * (k + 1) / n, n - 1 - k
    return s[-1], 100.0, 0
