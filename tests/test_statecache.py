"""stages.statecache: a stage's state is keyed by its arguments.

Ray-free: each stage function runs in this process, as a worker runs
it. Equal arguments share one stage instance across builds, different
polygons or query matrices never do, and the per-class LRU still bounds
how many instances one process keeps.
"""

import copy
import pickle

import numpy as np
import pyarrow as pa
import pytest

from rio_color_ray.sources.polygons import make_admin_polygons
from rio_color_ray.stages import statecache as sc

BATCH = pa.table({"x": pa.array([1, 2], pa.int64())})


class Counted:
    """A stage that numbers its constructions."""

    built = 0

    def __init__(self, *args, **kwargs):
        Counted.built += 1
        self.serial = Counted.built

    def __call__(self, batch):
        return batch.append_column("serial", pa.array([self.serial] * batch.num_rows))


class Other(Counted):
    """A second stage class, with an LRU of its own."""


@pytest.fixture(autouse=True)
def fresh_process(monkeypatch):
    """An empty cache, as in a fresh worker process."""
    monkeypatch.setattr(sc, "_PROCESS_CACHE", {})
    monkeypatch.setattr(sc, "_GROUP_LRU", {})
    monkeypatch.setattr(Counted, "built", 0)


def _serial(fn):
    """The serial of the stage instance ``fn`` maps a batch with."""
    return fn(BATCH).column("serial")[0].as_py()


def test_equal_arguments_build_the_stage_once():
    """Two builds with equal (not identical) arguments: one construction,
    and the stage function pickles by reference, not as a closure."""
    first = sc.make_stage_fn(Counted, make_admin_polygons(), "left")
    again = sc.make_stage_fn(Counted, make_admin_polygons(), "left")
    assert [_serial(first), _serial(again), _serial(first)] == [1, 1, 1]
    assert Counted.built == 1
    assert _serial(pickle.loads(pickle.dumps(again))) == 1


def test_different_arguments_build_different_stages():
    """A polygon moved by one ulp, another mode, a query matrix with one
    changed entry or another keyword: each is a stage of its own."""
    polys = make_admin_polygons()
    moved = copy.deepcopy(polys)
    moved[7]["xs"][2] = np.nextafter(moved[7]["xs"][2], np.inf)
    qmat = np.random.default_rng(3).normal(size=(5, 8)).astype(np.float32)
    qmat2 = qmat.copy()
    qmat2[4, 7] += 1
    fns = [
        sc.make_stage_fn(Counted, polys, "left"),
        sc.make_stage_fn(Counted, moved, "left"),
        sc.make_stage_fn(Counted, polys, "inner"),
        sc.make_stage_fn(Other, ["q0", "q1"], qmat, 3),
        sc.make_stage_fn(Other, ["q0", "q1"], qmat2, 3),
        sc.make_stage_fn(Other, ["q0", "q1"], qmat, 3, query_labels=[0, 1]),
    ]
    assert [_serial(f) for f in fns] == [1, 2, 3, 4, 5, 6]


def test_group_cap_bounds_each_class():
    """Each class keeps its ``_GROUP_CAP`` most recently used stages; a
    stage evicted from one class's LRU does not evict another's."""
    other = sc.make_stage_fn(Other, "kept")
    assert _serial(other) == 1
    fns = [sc.make_stage_fn(Counted, i) for i in range(sc._GROUP_CAP + 2)]
    assert [_serial(f) for f in fns] == list(range(2, sc._GROUP_CAP + 4))
    live = [k for k in sc._PROCESS_CACHE if k.startswith("Counted-")]
    assert len(live) == sc._GROUP_CAP
    assert _serial(other) == 1  # still live
    assert _serial(fns[-1]) == sc._GROUP_CAP + 3  # recent: reused
    assert _serial(fns[0]) == sc._GROUP_CAP + 4  # evicted: rebuilt
