"""Color operators + the ops-string DSL.

Parity targets: /root/reference/rio_color/operations.py. Semantics carried
exactly (golden values from reference tests/test_operations.py:48-106 pass
unchanged): range/bias validation with float64 epsilon, sigmoidal's
``contrast == 0`` identity (returns the SAME array object,
operations.py:64-65), gamma's reciprocal exponent ``arr ** (1/g)``
(operations.py:123), saturation via the LCH chroma multiply, and
``simple_atmo``'s per-channel gamma + sigmoidal composition with extra
bands passed through (operations.py:154-181).

Unlike the reference, which re-parses the ops string for every window
(workers.py:27), callers here parse once per worker process in ``__init__`` — see
rio_color_ray.stages.color_stage.
"""

import numpy as np

from .colorspace import saturate_rgb
from .utils import epsilon

__all__ = [
    "sigmoidal",
    "gamma",
    "saturation",
    "simple_atmo",
    "simple_atmo_opstring",
    "parse_operations",
]


def _check_unit_range(arr):
    """Inputs must be float values in [0, 1] (within float64 eps).

    Reference: operations.py:52-53 / 118-119 (same message).
    """
    if (arr.max() > 1.0 + epsilon) or (arr.min() < 0 - epsilon):
        raise ValueError("Input array must have float values between 0 and 1")


def sigmoidal(arr, contrast, bias):
    """Sigmoidal contrast (scaled logistic; inverse form for contrast < 0).

    Reference: operations.py:9-97. ``contrast == 0`` returns ``arr``
    unchanged (the same object); ``bias == 0`` is nudged to epsilon.
    """
    _check_unit_range(arr)
    if (bias > 1.0 + epsilon) or (bias < 0 - epsilon):
        raise ValueError("bias must be a scalar float between 0 and 1")

    alpha, beta = bias, contrast
    if alpha == 0:
        alpha = epsilon
    if beta == 0:
        return arr

    with np.errstate(divide="ignore", invalid="ignore"):
        if beta > 0:
            # scaled logistic, bound to [0, 1] (operations.py:69-76)
            numerator = 1 / (1 + np.exp(beta * (alpha - arr))) - 1 / (
                1 + np.exp(beta * alpha)
            )
            denominator = 1 / (1 + np.exp(beta * (alpha - 1))) - 1 / (
                1 + np.exp(beta * alpha)
            )
            output = numerator / denominator
        else:
            # inverse sigmoid closed form (operations.py:82-95)
            output = (
                (beta * alpha)
                - np.log(
                    (
                        1
                        / (
                            (arr / (1 + np.exp(beta * alpha - beta)))
                            - (arr / (1 + np.exp(beta * alpha)))
                            + (1 / (1 + np.exp(beta * alpha)))
                        )
                    )
                    - 1
                )
            ) / beta
    return output


def gamma(arr, g):
    """Power-law adjustment ``arr ** (1/g)`` — note the RECIPROCAL exponent.

    Reference: operations.py:100-123.
    """
    _check_unit_range(arr)
    if g <= 0 or np.isnan(g):
        raise ValueError("gamma must be greater than 0")
    return arr ** (1.0 / g)


def saturation(arr, proportion):
    """Chroma multiply in LCH space; requires a 3-band array.

    Reference: operations.py:126-141.
    """
    if arr.shape[0] != 3:
        raise ValueError("saturation requires a 3-band array")
    return saturate_rgb(arr, proportion)


def simple_atmo_opstring(haze, contrast, bias):
    """The DSL program equivalent to ``simple_atmo``.

    Reference: operations.py:144-151; golden string asserted in reference
    tests/test_cli.py:233-242.
    """
    gamma_b = 1 - haze
    gamma_g = 1 - (haze / 3.0)
    return "gamma g {}, gamma b {}, sigmoidal rgb {} {}".format(
        gamma_g, gamma_b, contrast, bias
    )


def simple_atmo(rgb, haze, contrast, bias):
    """Static atmospheric correction: per-channel gamma then sigmoidal.

    Red is untouched; green gets ``gamma(1 - haze/3)``; blue gets
    ``gamma(1 - haze)``; then sigmoidal over all three, written into a COPY
    so any extra (alpha) bands survive. Reference: operations.py:154-181.
    """
    gamma_b = 1 - haze
    gamma_g = 1 - (haze / 3.0)

    arr = np.empty(shape=(3, rgb.shape[1], rgb.shape[2]))
    arr[0] = rgb[0]
    arr[1] = gamma(rgb[1], gamma_g)
    arr[2] = gamma(rgb[2], gamma_b)

    output = rgb.copy()
    output[0:3] = sigmoidal(arr, contrast, bias)
    return output


# --- ops-string DSL ---------------------------------------------------------

_BAND_LOOKUP = {"r": 1, "g": 2, "b": 3}
_BAND_COUNT = 3

_OP_FUNCS = {"saturation": saturation, "sigmoidal": sigmoidal, "gamma": gamma}
_OP_KWARGS = {
    "saturation": ("proportion",),
    "sigmoidal": ("contrast", "bias"),
    "gamma": ("g",),
}
# ops that operate on the first three bands as a unit (no BANDS token)
_RGB_OPS = ("saturation",)


def _op_factory(func, kwargs, opname, bands, rgb_op):
    """Build one op closure: copy input, apply to selected bands.

    Reference: operations.py:184-204 (copy-on-apply at l.192; rgb_op applies
    to bands 0..2 only, leaving alpha untouched; per-band ops read from the
    ORIGINAL array, l.200).
    """

    def op(arr):
        newarr = arr.copy()
        if rgb_op:
            newarr[0:3] = func(newarr[0:3], **kwargs)
        else:
            for b in bands:
                newarr[b - 1] = func(arr[b - 1], **kwargs)
        return newarr

    op.__name__ = str(opname)
    return op


def _parse_bands(opname, bandstr):
    """'r'/'g'/'b' (any case) or digits 1..3; duplicates collapse via set.

    Reference: operations.py:260-269 (same ValueError message).
    """
    bands = set()
    for ch in bandstr:
        try:
            band = int(ch)
        except ValueError:
            band = _BAND_LOOKUP[ch.lower()]
        if band < 1 or band > _BAND_COUNT:
            raise ValueError(
                "{} BAND must be between 1 and {}".format(opname, _BAND_COUNT)
            )
        bands.add(band)
    return bands


def parse_operations(ops_string):
    """Compile an ops string ("OP BANDS ARG..." repeated) to closures.

    Returns a list of array->array functions applied left to right; commas
    are optional whitespace. Reference: operations.py:207-286. An empty or
    opless program yields a ValueError (first token is not a known op),
    matching the reference's behavior on inputs like ", , ,".
    """
    tokens = [t.strip().lower() for t in ops_string.replace(",", "").split(" ")]

    groups = []
    current = []
    for token in tokens:
        if token in _OP_FUNCS and current:
            groups.append(current)
            current = []
        current.append(token)
    if current:
        groups.append(current)

    result = []
    for parts in groups:
        opname = parts[0]
        if opname not in _OP_FUNCS:
            raise ValueError("{} is not a valid operation".format(opname))
        rgb_op = opname in _RGB_OPS
        if rgb_op:
            # no BANDS token: the second token is already the first argument
            args = parts[1:]
            bands = (1, 2, 3)
        else:
            args = parts[2:]
            bands = _parse_bands(opname, parts[1])
        kwargs = dict(zip(_OP_KWARGS[opname], (float(a) for a in args)))
        result.append(_op_factory(_OP_FUNCS[opname], kwargs, opname, bands, rgb_op))
    return result
