"""Color-formula search — the reference's scripts/optimize_color.py made
Ray-Data-native.

The reference anneals (gamma_red, gamma_green, gamma_blue, contrast)
minimizing per-band histogram SSE between a downsampled source and a
reference image (scripts/optimize_color.py:50-191: state keys l.53,
move = *0.95/1.05 l.76-93, ops template l.95-101, energy = sum of
per-band ``histogram_distance`` * 100 l.110-118, 10-bin [0,1] histogram
l.168-191). This engine keeps those exact semantics but splits the work
by scale:

* the REFERENCE histogram is computed exactly and distributed — one
  ``map_batches`` pass of per-band partial bin counts over every tile,
  reduced to a (3, 10) matrix (the corpus never moves);
* the SOURCE sample plays the reference's downsampled image: a bounded
  deterministic sample of tiles pulled once, annealed against locally —
  each energy evaluation is a vectorized ops-chain over the sample.

No ``simanneal`` dependency (absent here): a seeded exponential-cooling
Metropolis loop reproduces the reference's accept/explore behavior
deterministically.
"""

import math

import numpy as np

from ..color import parse_operations, to_math_type

DEFAULT_BINS = [x / 10 for x in range(11)]  # optimize_color.py:182
STATE_KEYS = ("gamma_red", "gamma_green", "gamma_blue", "contrast")  # l.53


def histogram_distance(arr1, arr2, bins=None):
    """Sum of squared error between normalized histograms (l.168-191)."""
    eps = 1e-6
    for a in (arr1, arr2):
        assert a.min() > 0 - eps and a.max() < 1 + eps
    bins = bins or DEFAULT_BINS
    h1 = np.histogram(arr1, bins=bins)[0] / arr1.size
    h2 = np.histogram(arr2, bins=bins)[0] / arr2.size
    return float(((h1 - h2) ** 2).sum())


def _tiles_to_band_arrays(batch):
    """Arrow tiles batch -> per-band flat float64 [0,1] pixel arrays."""
    from ..stages.color_stage import apply_ops_to_tiles  # noqa: F401 (schema twin)

    out = [[], [], []]
    for pixels, bands, dtype, w, h in zip(
        batch.column("pixels").to_pylist(),
        batch.column("band_count").to_numpy(),
        batch.column("dtype").to_pylist(),
        batch.column("width").to_numpy(),
        batch.column("height").to_numpy(),
    ):
        arr = np.frombuffer(pixels, dtype=dtype).reshape(int(bands), int(h), int(w))
        m = to_math_type(arr)
        for b in range(3):
            out[b].append(m[b].ravel())
    return [np.concatenate(x) if x else np.empty(0) for x in out]


def band_histograms(tiles_ds, bins=None):
    """Exact per-band histogram of a tiles Dataset, computed distributed.

    One map_batches pass emits partial (band, bin) counts; the reduce is
    a driver-side sum of a (3, nbins) matrix per block — O(blocks) tiny
    rows, never pixel data.
    """
    import pyarrow as pa

    bins = np.asarray(bins or DEFAULT_BINS)

    def partial(batch: pa.Table) -> pa.Table:
        arrs = _tiles_to_band_arrays(batch)
        counts = np.stack([np.histogram(a, bins=bins)[0] for a in arrs])
        return pa.table(
            {
                "band": pa.array(np.repeat(np.arange(3), len(bins) - 1), pa.int64()),
                "bin": pa.array(np.tile(np.arange(len(bins) - 1), 3), pa.int64()),
                "n": pa.array(counts.ravel(), pa.int64()),
            }
        )

    from ..stages.agg import keyed_agg

    partials = tiles_ds.map_batches(partial, batch_format="pyarrow")
    agg = keyed_agg(partials, ["band", "bin"], {"n": "sum"}).to_pandas()
    out = np.zeros((3, len(bins) - 1), dtype=np.int64)
    out[agg["band"], agg["bin"]] = agg["n"]
    return out


class ColorOptimizer:
    """Seeded Metropolis annealer over the reference's 4-key state."""

    def __init__(self, src_bands, ref_hist, bins=None, seed=0):
        self.src = src_bands  # list of 3 flat [0,1] arrays
        bins = np.asarray(bins or DEFAULT_BINS)
        self.bins = bins
        h = ref_hist.astype(np.float64)
        self.ref_hist = h / h.sum(axis=1, keepdims=True)
        self.rng = np.random.default_rng(seed)
        self.state = dict(gamma_red=1.0, gamma_green=1.0, gamma_blue=1.0, contrast=10.0)

    def cmd(self, state=None):
        """Ops-string of a state (optimize_color.py:95-101)."""
        s = state or self.state
        return (
            "gamma r {gamma_red:.2f}, gamma g {gamma_green:.2f}, "
            "gamma b {gamma_blue:.2f}, sigmoidal rgb {contrast:.2f} 0.5".format(**s)
        )

    def energy(self, state=None):
        """Per-band histogram SSE vs the reference, x100 (l.110-118)."""
        ops = parse_operations(self.cmd(state))
        total = 0.0
        for b in range(3):
            arr = self.src[b].reshape(1, -1).copy()
            # ops address bands 1-3 of a (bands, ...) array; present the
            # single band at its own index so `gamma r/g/b` hits it
            stack = np.zeros((3, 1, arr.shape[1]))
            stack[b] = arr
            for fn in ops:
                stack = fn(stack)
            h = np.histogram(stack[b], bins=self.bins)[0] / stack[b].size
            total += float(((h - self.ref_hist[b]) ** 2).sum())
        return total * 100.0

    def move(self, state):
        """Multiply one key by 0.95 or 1.05 (l.76-93)."""
        out = dict(state)
        k = STATE_KEYS[self.rng.integers(len(STATE_KEYS))]
        out[k] = out[k] * (0.95, 1.05)[self.rng.integers(2)]
        return out

    def anneal(self, n_steps=200, t0=1.0, t1=1e-3):
        """Exponential cooling; returns (best_state, best_energy)."""
        cur = dict(self.state)
        cur_e = self.energy(cur)
        best, best_e = dict(cur), cur_e
        decay = math.log(t1 / t0) / max(1, n_steps - 1)
        for step in range(n_steps):
            temp = t0 * math.exp(decay * step)
            cand = self.move(cur)
            e = self.energy(cand)
            if e <= cur_e or self.rng.random() < math.exp((cur_e - e) / temp):
                cur, cur_e = cand, e
                if e < best_e:
                    best, best_e = dict(cand), e
        self.state = best
        return best, best_e


def optimize_ops(src_tiles_ds, ref_tiles_ds, n_steps=200, sample_tiles=64, seed=0, bins=None):
    """Find an ops string making src tiles' histogram match ref tiles'.

    ref histogram: exact + distributed. src: deterministic bounded sample
    (``limit``, the reference's downsample analog) annealed locally.
    Returns (ops_string, best_energy).
    """
    ref_hist = band_histograms(ref_tiles_ds, bins=bins)
    import pyarrow as pa

    sample_df = src_tiles_ds.limit(sample_tiles).to_pandas()
    src_bands = _tiles_to_band_arrays(pa.Table.from_pandas(sample_df))
    opt = ColorOptimizer(src_bands, ref_hist, bins=bins, seed=seed)
    best, best_e = opt.anneal(n_steps=n_steps)
    return opt.cmd(best), best_e
