"""Per-worker-process state cache: the engine's one way to run a stateful stage.

A stateful stage (the PIP join's STRtree, the color program's parse,
kNN's broadcast queries) is a class whose ``__init__`` builds the state
and whose ``__call__`` maps one batch. :func:`make_stage_fn` wraps it as
a plain ``map_batches`` function: every worker process builds the state
once and caches it, and the stage's tasks fuse with the surrounding map
chain and reuse already-warm workers.

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

import uuid
from collections import OrderedDict

# token -> stage instance, bounded per group (see _GROUP_CAP): Ray worker
# processes are long-lived, and every pipeline construction mints a fresh
# token, so an unbounded dict would leak one stage (with its STRtree /
# index) per pipeline build per worker. Keying on args instead is unsafe
# here — stage args include Arrow tables and numpy matrices whose cheap
# hashes could collide, and silently reusing the WRONG state is worse
# than a rebuild.
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

    The returned closure carries a unique token; every task that lands in
    a given worker process constructs the stage once and reuses it.
    """
    token = f"{cls.__name__}-{uuid.uuid4().hex}"

    def stage_fn(batch):
        stage = process_cached(token, lambda: cls(*args, **kwargs), group=cls.__name__)
        return stage(batch)

    stage_fn.__name__ = f"{cls.__name__}Fn"
    return stage_fn
