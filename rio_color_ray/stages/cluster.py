"""Distributed connected components over a node–key bipartite graph.

The input is an exploded membership table ``(node, key)`` — e.g. each
document paired with each of its fingerprint keys — and the output
labels every node with the MINIMUM node id reachable through shared
keys (transitive closure). This is the canonical-document picker of a
dedup pipeline: docs sharing any fingerprint land in one cluster, and
the cluster id is stable (the smallest doc id in it).

Algorithm: alternating min-label propagation ("hash-to-min" on the
bipartite graph, Rastogi et al., ICDE 2013 — public literature). The
working set is the membership table itself with one extra int64 label
column; each half-iteration broadcasts the group minimum within either
the key grouping or the node grouping. A label can only decrease, so
the fixed point is exact and convergence is detected by a zero
changed-row count.

Scale notes (100 TB):
* No pair materialization — a hot key with 10^6 members contributes
  10^6 rows, not 10^12 pairs (the LSH pair-blowup problem does not
  exist here).
* Each half-iteration is ONE keyed exchange (``ctx.bucket_exchange``)
  of the (node, key, label) triple table on the grouping column, with
  a vectorized group minimum (``np.minimum.at``) over each exchange block
  (one bucket of keys) — no per-group Python call, no skew sensitivity
  beyond the bucket.
* Iteration count is O(log diameter), not one hop per round: the
  key-grouped pass PATH-COMPRESSES the graph (key := the group's
  converged label, plus a witness self-row — see ``_spread_min``
  ``rewrite=True``), so each round propagates along contracted stars.
  Measured on the sf0.1 corpus: 11 global rounds -> 5 (22 exchanges ->
  10), wall 18-23 s -> ~9 s warm. ``MAX_ITERS`` guards pathological
  chains and raising — rather than returning a partially-converged
  labeling — keeps wrong answers impossible.
* The first rewrite also CONTRACTS the working set: the exploded
  (node, key) membership collapses to the distinct (node, witness)
  edges, so every later exchange moves O(nodes) rows even when
  documents carry many keys.
* The per-iteration ``materialize()`` pins only the membership table
  (a few int64 columns), not the corpus.
"""

import numpy as np
import pyarrow as pa
import ray.data

from ..ctx import bucket_exchange
from .agg import keyed_agg

# global rounds before min_label_components gives up and raises
MAX_ITERS = 30


def min_label_components(
    keys_ds: "ray.data.Dataset",
    node_col: str = "doc_id",
    key_col: str = "key",
    local_finish_rows: int = 2_000_000,
) -> "ray.data.Dataset":
    """Label each node with min(node id) of its connected component.

    ``keys_ds`` must have columns ``(node_col, key_col)``, both int64.
    Returns a Dataset ``(node_col, cluster_id)`` with one row per
    distinct node.

    ``local_finish_rows``: once the path-compressed working set has
    contracted to at most this many rows (int64 triples — the default
    2M is ~50 MB in one task), the remaining propagation runs in
    ONE task (a keyless exchange) instead of more global rounds. Alternating
    the two group-min transforms over the FULL edge set until stable IS
    global convergence, so this replaces every remaining all-to-all with
    one ``repartition(1)`` — the measured row count, not an assumption about
    input size, opens the gate, so the distributed rounds still do the
    contraction work at any scale. ``0`` disables (pure distributed
    rounds, used by the convergence tests).
    """

    def _spread_min(group_col, other_col, rewrite=False):
        """Within each exchange block (one bucket of keys), propagate
        min labels to LOCAL convergence: alternate per-group min over
        ``group_col`` and ``other_col`` until the block's sub-graph is
        stable. Labels only ever decrease and are bounded below by the
        component min, so propagating over the partial sub-graph present
        in the block is always safe — it just collapses any chain
        resident in one block in a single GLOBAL iteration instead of one
        hop per iteration. ``__changed`` counts rows whose label decreased
        vs block entry (the global convergence signal).

        ``rewrite=True`` (key-grouped pass only) is the PATH-COMPRESSION
        step that collapses components in O(log diameter) global rounds
        instead of one hop per round: after local convergence every key
        group is label-uniform (the loop exits when the key-min transform
        is a no-op), so replacing the key value by that label contracts
        the key's star onto its best-known component witness — a node id
        — and every later round propagates along compressed paths. One
        (label, label) self row per distinct label keeps the witness
        node's own rows reachable from its star (labels are node ids, so
        the rewritten key column and the node column share one universe);
        the (node, key) dedupe shrinks the working set to the distinct
        contracted edges. Component-preserving: a row's label is always a
        node of its own component (it starts as the row's node id and
        only ever takes group minima), so every rewritten edge stays
        inside the component, and the uniform-label star keeps all of the
        key's former members connected.
        """

        def fn(block: pa.Table) -> pa.Table:
            group = block.column(group_col).to_numpy()
            other = block.column(other_col).to_numpy()
            before = block.column("label").to_numpy()
            lab = before
            while True:
                lab = _group_min(group, lab)
                lab2 = _group_min(other, lab)
                stable = (lab2 == lab).all()
                lab = lab2
                if stable:
                    break
            changed = (lab != before).astype(np.int64)
            if rewrite:
                labs = np.unique(lab)
                zeros = np.zeros(len(labs), np.int64)
                group, other = np.concatenate([lab, labs]), np.concatenate([other, labs])
                lab, changed = group, np.concatenate([changed, zeros])
            out = pa.table({other_col: other, group_col: group, "label": lab, "__changed": changed})
            if not rewrite:
                return out
            return (
                out.group_by([other_col, group_col], use_threads=False)
                .aggregate([("label", "min"), ("__changed", "max")])
                .select([other_col, group_col, "label_min", "__changed_max"])
                .rename_columns([other_col, group_col, "label", "__changed"])
            )

        return fn

    ds = keys_ds.map_batches(
        lambda b: b.append_column("label", b.column(node_col)), batch_format="pyarrow"
    )
    for it in range(MAX_ITERS):
        ds = bucket_exchange(ds, key_col, _spread_min(key_col, node_col, rewrite=True))
        ds = bucket_exchange(ds, node_col, _spread_min(node_col, key_col))
        ds = ds.materialize()
        if ds.sum("__changed") == 0:
            import logging

            logging.getLogger(__name__).info(
                "min_label_components: converged after %d iterations", it + 1
            )
            break
        if local_finish_rows and ds.count() <= local_finish_rows:
            # contracted small enough: one task sees the whole edge set,
            # so its local alternating convergence is the global fixed
            # point — no further exchanges needed
            ds = bucket_exchange(ds, [], _spread_min(key_col, node_col))
            import logging

            logging.getLogger(__name__).info(
                "min_label_components: local finish after %d rounds", it + 1
            )
            break
    else:
        raise RuntimeError(
            f"min_label_components: not converged after {MAX_ITERS} iterations"
        )

    # the operator is keyed_agg's, which perfbench's trace folds into op.stages.agg
    return keyed_agg(ds, node_col, {"label": "min"}).rename_columns({"label": "cluster_id"})


def _group_min(keys, values):
    """Every row's minimum of the int64 ``values`` over its key's rows."""
    uniq, codes = np.unique(keys, return_inverse=True)
    out = np.full(len(uniq), np.iinfo(np.int64).max)
    np.minimum.at(out, codes, values)
    return out[codes]
