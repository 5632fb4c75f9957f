"""Per-worker-process state cache: the engine's one way to run a stateful stage.

A stateful stage (the PIP join's STRtree, the color program's parse,
kNN's broadcast queries) is a class whose ``__init__`` builds the state
and whose ``__call__`` maps one batch. :func:`make_stage_fn` wraps it as
a plain ``map_batches`` function: every worker process builds the state
once and caches it, and the stage's tasks fuse with the surrounding map
chain and reuse already-warm workers. The state is keyed by a SHA-256
of the stage's pickled class and arguments, not by the build, so a
stage built again with equal arguments (the flagship's admin polygons,
every run) finds its state already warm. A fresh key per build made
every flagship execution rebuild its STRtree and edge table (2.1 ms
for the 80 admin polygons, Ray-free).

Ray Data's other mechanism, an actor pool (``map_batches(Cls,
concurrency=(lo, hi))``), was measured against this one before it was
removed: a 4-CPU Ray session on a 4-core, 15 GB VM, each run consumed
with ``ray.get(ds.to_arrow_refs())``, one warm-up, 4 alternating pairs,
median seconds, identical output on both sides:

===========================  ======  =====  ============
pipeline                     actors  tasks  output
===========================  ======  =====  ============
flagship sf0.1 x1 z7          1.388  0.735  3,051 tiles
flagship sf0.1 x4 z10         1.596  0.679  14,035 tiles
knn sf0.01 k=5, 100 queries   2.969  0.932  500 rows
===========================  ======  =====  ============

Each actor-pool execution spawns fresh actor processes (library import
and state build before the first batch) outside the fused chain; the
task variant runs the same batches in warm workers.
"""

import hashlib
import pickle
from collections import OrderedDict
from functools import partial

# key -> stage instance, bounded per group (see _GROUP_CAP). A stage's
# key is its class name and the SHA-256 of its pickled class and
# arguments (:func:`make_stage_fn`), so equal arguments share one
# instance across pipeline builds and different arguments never do:
# pickled bytes determine the arguments they unpickle to, and a
# cryptographic digest of them is not a cheap hash that collides. Ray
# worker processes are long-lived and a stage's arguments change
# between builds (kNN's and ANN's query sets), so the LRU keeps
# worker memory bounded.
_PROCESS_CACHE = {}
_GROUP_LRU = {}
_GROUP_CAP = 4  # distinct live stages per class per worker; LRU beyond


def process_cached(key, builder, group=None):
    """Build-once-per-worker-process memoization.

    ``group`` (e.g. the stage class name) bounds how many entries the
    group may hold; least-recently-used extras are evicted so repeated
    pipeline constructions don't grow worker memory without bound.
    """
    if key not in _PROCESS_CACHE:
        _PROCESS_CACHE[key] = builder()
    if group is not None:
        lru = _GROUP_LRU.setdefault(group, OrderedDict())
        lru[key] = None
        lru.move_to_end(key)
        while len(lru) > _GROUP_CAP:
            old, _ = lru.popitem(last=False)
            _PROCESS_CACHE.pop(old, None)
    return _PROCESS_CACHE[key]


def make_stage_fn(cls, *args, **kwargs):
    """Wrap a stateful stage class as a ``map_batches`` function.

    The function is a :class:`StageFn`, :func:`run_stage` bound to the
    stage's key, class and arguments, so Ray pickles it by reference
    plus the arguments. The key digests the pickled class and arguments
    (stdlib ``pickle``; module-level classes and plain data): every task
    that lands in a given worker process constructs the stage once per
    distinct arguments and reuses it, across pipeline builds too.
    """
    blob = pickle.dumps((cls, args, kwargs), protocol=pickle.HIGHEST_PROTOCOL)
    key = f"{cls.__name__}-{hashlib.sha256(blob).hexdigest()}"
    return StageFn(run_stage, key, cls, args, kwargs)


class StageFn(partial):
    """A stage function: a ``functools.partial`` whose repr is its key.

    Ray Data's plan exporter takes ``str()`` of every map function on
    every execution. A plain partial's repr prints the stage's arguments,
    which for the flagship's 80 admin polygons is 160 numpy array reprs:
    34 ms of each flagship execution under cProfile (1-CPU session).
    """

    def __repr__(self):
        return f"StageFn({self.args[0]})"


def run_stage(key, cls, args, kwargs, batch):
    """Map ``batch`` by the worker's cached ``cls(*args, **kwargs)``."""
    stage = process_cached(key, lambda: cls(*args, **kwargs), group=cls.__name__)
    return stage(batch)
