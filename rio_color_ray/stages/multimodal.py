"""Multimodal column stages — real Ray plumbing, fake codecs.

Image/audio/video payloads are opaque ``binary`` columns with typed
metadata columns beside them (the same layout as the tiles table). The
stateful stage shape — schema in/out, batch sizing for large binary
rows, model/codec initialisation once per worker process — is real and
tested; the codec is a DETERMINISTIC FAKE decode (no imaging, audio or
video library exists in this environment) that exercises the pipeline
end to end and has an exact DuckDB twin. Payload bytes are read straight
off the Arrow buffers (``color_stage.binary_view``).

Batch-size guidance (ray_guide "Memory-aware"): with payloads of
``P`` bytes, pick ``batch_size`` so ``batch_size * P`` times the
concurrent tasks per node fits the worker heap — callers pass small
batch sizes (e.g. 16-64) for megabyte-scale media.
"""

import hashlib

import numpy as np
import pyarrow as pa

from .color_stage import binary_view

# DecodeImageStage's output (height, width), the twin's h and w
DECODE_SIZE = (16, 16)


def binary_col_byte_sums(col) -> np.ndarray:
    """Per-row sum of a binary column's bytes, Arrow-buffer vectorized.

    One int64 cumsum over the values + a diff at the row offsets — no
    per-row ``np.frombuffer(...).sum()`` Python loop. Null rows sum to 0.
    """
    offsets, data = binary_view(col)
    cs = np.zeros(len(data) + 1, dtype=np.int64)
    np.cumsum(data, dtype=np.int64, out=cs[1:])
    return cs[offsets[1:]] - cs[offsets[:-1]]


class DecodeImageStage:
    """Decode image bytes -> (h, w, 3) uint8 + feature columns.

    A deterministic pseudo-decode: pixels derived from a SHA-256
    keystream of the payload, so tests exercise the full
    stage/schema/batch path with stable outputs. The chain iterates over
    lowercase HEX DIGESTS (block_{i+1} = sha256 of the ASCII hex of
    block_i), not raw digests, so the keystream has an exact DuckDB twin
    (sha256() there is VARCHAR-only) — see
    pipelines/corpus.py:media_features_sql.
    """

    @staticmethod
    def _decode(payload: bytes) -> np.ndarray:
        h, w = DECODE_SIZE
        n = h * w * 3
        stream = bytearray()
        hx = hashlib.sha256(payload).hexdigest()
        while len(stream) < n:
            hx = hashlib.sha256(hx.encode()).hexdigest()
            stream.extend(bytes.fromhex(hx))
        return np.frombuffer(bytes(stream[:n]), dtype=np.uint8).reshape(h, w, 3)

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch.column("payload").to_pylist()
        h, w = DECODE_SIZE
        decoded = np.stack([self._decode(p) for p in payloads]) if payloads else np.zeros((0, h, w, 3), np.uint8)
        # floor integer mean (sum // n): tie-free on both engines, unlike
        # float mean + round (a mean of uint8s lands exactly on .5 where
        # numpy half-even and SQL half-away disagree)
        mean_rgb = (
            decoded.reshape(len(payloads), -1, 3).sum(axis=1, dtype=np.int64) // (h * w)
            if payloads
            else np.zeros((0, 3), np.int64)
        )
        return pa.table(
            {
                "media_id": batch.column("media_id"),
                "height": pa.array([h] * len(payloads), pa.int32()),
                "width": pa.array([w] * len(payloads), pa.int32()),
                "pixels": pa.array([d.tobytes() for d in decoded], pa.binary()),
                "mean_r": pa.array(mean_rgb[:, 0], pa.int64()),
                "mean_g": pa.array(mean_rgb[:, 1], pa.int64()),
                "mean_b": pa.array(mean_rgb[:, 2], pa.int64()),
            }
        )


class AudioFrameStage:
    """Frame-sample an audio binary column -> fixed-rate feature rows.

    A fake decode: the payload bytes are int8 PCM.
    """

    def __init__(self, frame_len=256):
        self.frame_len = frame_len

    def __call__(self, batch: pa.Table) -> pa.Table:
        L = self.frame_len
        if batch.num_rows == 0:
            return pa.table(
                {
                    "media_id": pa.array([], pa.int64()),
                    "frame": pa.array([], pa.int64()),
                    "energy": pa.array([], pa.int64()),
                }
            )
        # the batch's PCM bytes back to back + a cumulative sum of
        # squares: each frame's energy is cs[end] - cs[start] — no
        # per-frame Python.
        offsets, data = binary_view(batch.column("payload"))
        lens = np.diff(offsets)
        pcm = data.view(np.int8).astype(np.int64)
        cs = np.concatenate(([0], np.cumsum(pcm * pcm)))
        n_frames = np.maximum(1, lens // L)
        fidx = np.arange(int(n_frames.sum())) - np.repeat(
            np.cumsum(n_frames) - n_frames, n_frames
        )
        starts = np.repeat(offsets[:-1], n_frames) + fidx * L
        ends = np.minimum(starts + L, np.repeat(offsets[1:], n_frames))
        return pa.table(
            {
                "media_id": pa.array(np.repeat(batch.column("media_id").to_numpy(), n_frames)),
                "frame": pa.array(fidx, pa.int64()),
                "energy": pa.array(cs[ends] - cs[starts], pa.int64()),
            }
        )


class ResizeImageStage:
    """Nearest-neighbor resize of decoded (h, w, 3) uint8 pixel buffers.

    REAL math (no codec involved): rows arrive as the DecodeImageStage
    layout (media_id, height, width, pixels); each distinct input size in
    the batch is resampled in one vectorized gather. The 100 TB shape:
    stateless, fuses with the decode stage, output rows are
    out_h*out_w*3 bytes regardless of input size.
    """

    def __init__(self, out_size=(8, 8)):
        self.out_size = out_size

    def __call__(self, batch: pa.Table) -> pa.Table:
        oh, ow = self.out_size
        n = batch.num_rows
        hs = batch.column("height").to_numpy().astype(np.int64)
        ws = batch.column("width").to_numpy().astype(np.int64)
        offsets, data = binary_view(batch.column("pixels"))
        if not np.array_equal(np.diff(offsets), hs * ws * 3):
            raise ValueError("ResizeImageStage: a pixels buffer is not height * width * 3 bytes")
        out = np.empty((n, oh, ow, 3), dtype=np.uint8)
        for h, w in set(zip(hs.tolist(), ws.tolist())):
            sel = np.flatnonzero((hs == h) & (ws == w))
            block = data[offsets[sel, None] + np.arange(h * w * 3)].reshape(len(sel), h, w, 3)
            ri = (np.arange(oh) * h) // oh
            ci = (np.arange(ow) * w) // ow
            out[sel] = block[:, ri][:, :, ci]
        return pa.table(
            {
                "media_id": batch.column("media_id"),
                "height": pa.array(np.full(n, oh, dtype=np.int32)),
                "width": pa.array(np.full(n, ow, dtype=np.int32)),
                "pixels": pa.array([o.tobytes() for o in out], pa.binary()),
            }
        )


class VideoFrameSampleStage:
    """Sample every ``stride``-th frame from an opaque video column.

    A fake container: the payload is a plain concatenation of
    ``frame_bytes``-byte frames; only FULL frames exist (a tail shorter
    than frame_bytes is container padding and ignored — docs shorter than
    one frame yield zero rows). Emits the sampled frame bytes plus an
    exact integer luma sum — the metric the SQL twin verifies.
    """

    def __init__(self, frame_bytes=64, stride=4):
        self.frame_bytes = frame_bytes
        self.stride = stride

    def __call__(self, batch: pa.Table) -> pa.Table:
        F, S = self.frame_bytes, self.stride
        offsets, data = binary_view(batch.column("payload"))
        n_frames = np.diff(offsets) // F
        n_sampled = (n_frames + S - 1) // S  # frames 0, S, 2S, ...
        total = int(n_sampled.sum())
        if total == 0:
            return pa.table(
                {
                    "media_id": pa.array([], pa.int64()),
                    "frame": pa.array([], pa.int64()),
                    "sum_luma": pa.array([], pa.int64()),
                    "frame_payload": pa.array([], pa.binary()),
                }
            )
        cs = np.concatenate(([0], np.cumsum(data, dtype=np.int64)))
        sidx = np.arange(total) - np.repeat(np.cumsum(n_sampled) - n_sampled, n_sampled)
        fidx = sidx * S
        starts = np.repeat(offsets[:-1], n_sampled) + fidx * F
        return pa.table(
            {
                "media_id": pa.array(np.repeat(batch.column("media_id").to_numpy(), n_sampled)),
                "frame": pa.array(fidx, pa.int64()),
                "sum_luma": pa.array(cs[starts + F] - cs[starts], pa.int64()),
                "frame_payload": pa.array(
                    [data[s : s + F].tobytes() for s in starts.tolist()], pa.binary()
                ),
            }
        )


def make_media_table(n=64, payload_bytes=1024, seed=42):
    """Deterministic opaque-media fixture: (media_id, kind, payload)."""
    rng = np.random.default_rng(seed)
    payloads = [rng.integers(0, 256, payload_bytes, dtype=np.uint8).tobytes() for _ in range(n)]
    return pa.table(
        {
            "media_id": pa.array(list(range(n)), pa.int64()),
            "kind": pa.array(["image" if i % 2 == 0 else "audio" for i in range(n)]),
            "payload": pa.array(payloads, pa.binary()),
        }
    )
