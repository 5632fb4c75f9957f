"""Seeded inputs: the ``documents`` table and a continuous-tone tile set.

The engine reads only what is written here, through its ``sf_dir``
argument. Every value is a function of the seed.

Text statistics follow the sf0.1 ``documents`` table of the repository's
test data, measured once and kept below as constants (the benchmark reads
nothing outside its checkout, so it cannot sample that table at run time):

* 30 words drawn uniformly; 10 to 100 words per document, uniform;
* 5% of documents are near-duplicates: an earlier document's text plus
  the word ``dup`` (Jaccard over word 3-grams about 0.98);
* 0.16% are exact copies of an earlier document's text;
* language shares en 41%, the four others about 15% each;
* ``source`` is ``src{doc_id % 20}``.

``doc_id`` values are drawn without replacement below
``sources.pages.REP_STRIDE``, so replicated pages keep distinct ids.
The pages source puts ``doc_id % 10 in {0, 1, 2}`` into three city
hotspots; ``hotspot_share`` reports that share for the drawn ids.
"""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

VOCAB = (
    "spark window merge table column vector stream value data small join "
    "filter big group hash customer sort order slow line part fast row the "
    "agg key query a scan batch"
).split()
MIN_WORDS, MAX_WORDS = 10, 100
NEAR_DUP_SHARE = 0.05
EXACT_DUP_SHARE = 0.0016
LANGS = ("en", "zh", "fr", "es", "de")
LANG_SHARES = (0.4118, 0.1506, 0.1484, 0.1488, 0.1404)
N_SOURCES = 20

TILE_SIZE = 32


def make_documents(seed: int, n_docs: int) -> pa.Table:
    """The seeded documents table (doc_id, text, lang, source, n_chars)."""
    from rio_color_ray.sources.pages import REP_STRIDE

    rng = np.random.default_rng([seed, 0x646F6373])
    doc_id = np.sort(rng.choice(REP_STRIDE, size=n_docs, replace=False)).astype(np.int64)
    n_words = rng.integers(MIN_WORDS, MAX_WORDS + 1, n_docs)
    words = np.asarray(VOCAB)[rng.integers(0, len(VOCAB), int(n_words.sum()))]
    ends = np.cumsum(n_words)
    texts = [" ".join(words[e - n : e]) for e, n in zip(ends, n_words)]
    # copies point at an earlier document, so a chain never loops
    kind = rng.random(n_docs)
    src = (rng.random(n_docs) * np.arange(n_docs)).astype(np.int64)
    for i in range(1, n_docs):
        if kind[i] < EXACT_DUP_SHARE:
            texts[i] = texts[src[i]]
        elif kind[i] < EXACT_DUP_SHARE + NEAR_DUP_SHARE:
            texts[i] = texts[src[i]] + " dup"
    lang = np.asarray(LANGS)[rng.choice(len(LANGS), n_docs, p=LANG_SHARES)]
    return pa.table(
        {
            "doc_id": pa.array(doc_id, pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(lang.tolist(), pa.string()),
            "source": pa.array([f"src{d % N_SOURCES}" for d in doc_id], pa.string()),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }
    )


def hotspot_share(docs: pa.Table) -> float:
    """Share of pages the pages source places in a city hotspot."""
    d = docs.column("doc_id").to_numpy()
    return float(np.isin(d % 10, (0, 1, 2)).mean())


def write_documents(docs: pa.Table, sf_dir: str) -> str:
    os.makedirs(sf_dir, exist_ok=True)
    path = os.path.join(sf_dir, "documents.parquet")
    pq.write_table(docs, path)
    return path


def tiles_table(tile_ids, pixels: np.ndarray) -> pa.Table:
    """A tiles table in the engine's schema from (n, 3, 32, 32) uint8."""
    n = len(tile_ids)
    zxy = np.asarray([[int(v) for v in t.split("/")] for t in tile_ids], np.int32).reshape(n, 3)
    nbytes = 3 * TILE_SIZE * TILE_SIZE
    flat = np.ascontiguousarray(pixels, dtype=np.uint8).reshape(n, nbytes)
    return pa.table(
        {
            "tile_id": pa.array(list(tile_ids), pa.string()),
            "z": pa.array(zxy[:, 0]),
            "x": pa.array(zxy[:, 1]),
            "y": pa.array(zxy[:, 2]),
            "band_count": pa.array(np.full(n, 3, np.uint8)),
            "dtype": pa.array(["uint8"] * n, pa.string()),
            "width": pa.array(np.full(n, TILE_SIZE, np.int32)),
            "height": pa.array(np.full(n, TILE_SIZE, np.int32)),
            "pixels": pa.array([row.tobytes() for row in flat], pa.binary()),
        }
    )


def make_continuous_tiles(seed: int, n_tiles: int = 256) -> pa.Table:
    """Continuous-tone 3-band tiles: a random gradient per band plus noise.

    Nearly every pixel carries its own band tuple, so the color stage's
    dictionary gate declines and the full-image path runs.
    """
    rng = np.random.default_rng([seed, 0x74696C65])
    yy, xx = np.mgrid[0:TILE_SIZE, 0:TILE_SIZE] / (TILE_SIZE - 1)
    base = rng.uniform(20, 140, (n_tiles, 3, 1, 1))
    gx = rng.uniform(-80, 80, (n_tiles, 3, 1, 1))
    gy = rng.uniform(-80, 80, (n_tiles, 3, 1, 1))
    noise = rng.normal(0, 18, (n_tiles, 3, TILE_SIZE, TILE_SIZE))
    px = np.clip(np.rint(base + gx * xx + gy * yy + noise + 60), 0, 255).astype(np.uint8)
    ids = [f"18/{i}/{seed % 100000}" for i in range(n_tiles)]
    return tiles_table(ids, px)
