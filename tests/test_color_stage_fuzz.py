"""Property fuzz: apply_ops_to_tiles == direct math, byte-for-byte.

The stage picks between three internal paths (code->code LUT, dictionary
encoding over distinct band tuples, full-image math) based on the program
shape and a cardinality gate (color_stage.py). Whichever path engages,
the output bytes must equal the naive reference body (to_math_type ->
every op -> scale_dtype), and a program direct math rejects must be
rejected too. Hypothesis walks random programs x band counts x dtypes x
palette cardinalities x output dtypes; derandomized so the suite stays
deterministic.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rio_color_ray.color import parse_operations
from rio_color_ray.stages.color_stage import apply_ops_to_tiles


def _op_strategy(bands):
    # band spec valid for the tile's band count; "rgb" needs >= 3 bands,
    # and the DSL addresses bands 1-3 only (a 4th band is alpha)
    specs = ["rgb"] if bands >= 3 else []
    specs += [str(b + 1) for b in range(min(bands, 3))]
    spec = st.sampled_from(specs)
    gamma = st.builds(
        lambda s, g: f"gamma {s} {g:.2f}",
        spec,
        st.floats(0.5, 2.0),
    )
    sigmoidal = st.builds(
        lambda s, c, b: f"sigmoidal {s} {c:.1f} {b:.2f}",
        spec,
        # all three branches: inverse (< 0), identity (== 0), logistic (> 0)
        st.one_of(st.just(0.0), st.floats(-10.0, -0.5), st.floats(0.5, 10.0)),
        st.floats(0.1, 0.9),
    )
    ops = [gamma, sigmoidal]
    if bands >= 3:
        # saturation reads the first three bands as RGB
        ops.append(st.builds(lambda p: f"saturation {p:.2f}", st.floats(0.0, 1.5)))
    return st.one_of(ops)


@st.composite
def _case(draw):
    bands = draw(st.integers(1, 4))
    dtype = draw(st.sampled_from(["uint8", "uint16"]))
    out_dtype = draw(st.sampled_from(["uint8", "uint16"]))
    n_tiles = draw(st.integers(1, 3))
    w = draw(st.integers(4, 12))
    h = draw(st.integers(4, 12))
    program = ", ".join(
        draw(st.lists(_op_strategy(bands), min_size=1, max_size=3))
    )
    # palette size spans the dictionary gate's sweet spot and beyond
    n_pal = draw(st.sampled_from([1, 2, 7, 64, 4096]))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    hi = np.iinfo(dtype).max + 1
    palette = rng.integers(0, hi, size=(n_pal, bands), dtype=dtype)
    tiles = [
        np.ascontiguousarray(
            palette[rng.integers(0, n_pal, size=h * w)]
            .reshape(h, w, bands)
            .transpose(2, 0, 1)
        ).tobytes()
        for _ in range(n_tiles)
    ]
    return tiles, bands, dtype, w, h, program, out_dtype


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_case())
def test_stage_matches_direct_math_fuzz(direct_math, case):
    tiles, bands, dtype, w, h, program, out_dtype = case
    ops = parse_operations(program)

    def outcome(fn):
        # an inverse sigmoid can step just outside [0, 1], which the next
        # op's range check rejects: then both paths must reject it
        try:
            return fn(tiles, bands, dtype, w, h, ops, out_dtype)
        except ValueError as exc:
            return str(exc)

    assert outcome(apply_ops_to_tiles) == outcome(direct_math)
