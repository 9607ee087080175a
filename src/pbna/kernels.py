"""Hot numeric kernels: exact mod-q row reduction and DAG transfer propagation.

Both kernels are plain numpy with vectorized row updates; the row reduction
works on a stack of matrices, so one call serves many small systems.

All arrays are int64 with entries in [0, q) for a prime q < 2**31 (enforced
by ``gf.check_modulus``), so any product of two entries fits in int64 and
Python modulo semantics keep intermediate values in range.
"""

from __future__ import annotations

import numpy as np


def row_reduce(a, q, pivots):
    """In-place reduced row echelon form of every matrix in the stack ``a`` modulo q.

    ``a`` is (B, rows, cols); each column step finds every matrix's pivot row,
    then swaps, normalizes and eliminates in all of them at once.
    ``pivots[b, r]`` receives the pivot column of pivot row r of matrix b
    (entries beyond its rank are left untouched, callers should pre-fill with
    -1).  Returns the (B,) ranks.
    """
    n_items, rows, cols = a.shape
    rank = np.zeros(n_items, dtype=np.int64)
    row_ids = np.arange(rows)
    for c in range(cols):
        # a row at or below the item's rank with a nonzero entry in column c
        cand = (a[:, :, c] != 0) & (row_ids[None, :] >= rank[:, None])
        items = np.flatnonzero(cand.any(axis=1))
        if items.size == 0:
            continue
        r = rank[items]
        piv = cand[items].argmax(axis=1)
        pivot_rows = a[items, piv]
        a[items, piv] = a[items, r]
        inv = np.array([pow(x, -1, q) for x in pivot_rows[:, c].tolist()], dtype=np.int64)
        pivot_rows = pivot_rows * inv[:, None] % q
        factors = a[items, :, c]
        factors[np.arange(items.size), r] = 0
        # (x - 0) % q == x for entries in [0, q), so rows with a zero factor come out unchanged
        a[items] = (a[items] - factors[:, :, None] * pivot_rows[:, None, :]) % q
        a[items, r] = pivot_rows
        pivots[items, r] = c
        rank[items] += 1
        if rank.min() == rows:
            break
    return rank


def propagate(coeffs, inj_edge, inj_col, inj_cidx, pair_in, pair_out, pair_cidx, dest_ptr, dest_edges, n_edges, n_cols, q,
              inputs):
    """Forward-propagate per-slot coding coefficients and source inputs through a DAG.

    ``coeffs`` is (n_slots, n_coeffs), one independent assignment per slot.
    ``inputs`` is (n_sources, n_cols, n_slots): at slot k, source j injects
    ``inputs[j, :, k]`` into each of its out-edges, scaled by that edge's
    injection coefficient.  Edge values are (n_cols, n_slots) arrays, so one
    pass serves every slot.  ``pair_*`` arrays must be ordered so every write
    to an edge precedes all reads of it.  Returns (n_dest, n_cols, n_slots).
    """
    n_slots = coeffs.shape[0]
    by_coeff = coeffs.T  # (n_coeffs, n_slots)
    val = np.zeros((n_edges, n_cols, n_slots), dtype=np.int64)
    # an edge has one tail, so at most one injection
    val[inj_edge] = by_coeff[inj_cidx][:, None, :] * inputs[inj_col] % q

    # A pair runs in round depth[its in-edge]: every write to that edge lies in an earlier round.
    depth = [0] * n_edges
    rounds = []
    for e_in, e_out in zip(pair_in.tolist(), pair_out.tolist()):
        r = depth[e_in]
        rounds.append(r)
        depth[e_out] = max(depth[e_out], r + 1)
    rounds = np.asarray(rounds, dtype=np.int64)
    for r in range(int(rounds.max(initial=-1)) + 1):
        sel = np.flatnonzero(rounds == r)
        outs = pair_out[sel]
        # each term is below q, so no sum of an edge's terms overflows int64
        np.add.at(val, outs, val[pair_in[sel]] * by_coeff[pair_cidx[sel]][:, None, :] % q)
        val[outs] %= q

    n_dest = dest_ptr.shape[0] - 1
    out = np.zeros((n_dest, n_cols, n_slots), dtype=np.int64)
    np.add.at(out, np.repeat(np.arange(n_dest), np.diff(dest_ptr)), val[dest_edges])
    return out % q


def warmup() -> None:
    """Run both kernels once on tiny inputs, so first-call costs stay out of timed work.

    The row reduction gets a stack of two, the second a one-column matrix
    zero-padded on the right, so its multi-item path and row swap run too.
    """
    a = np.array([[[1, 2], [3, 4]], [[0, 0], [5, 0]]], dtype=np.int64)
    row_reduce(a, 7, np.full((2, 2), -1, dtype=np.int64))
    coeffs = np.ones((1, 2), dtype=np.int64)
    idx0 = np.zeros(1, dtype=np.int64)
    empty = np.zeros(0, dtype=np.int64)
    propagate(
        coeffs,
        idx0, idx0, idx0,
        empty, empty, empty,
        np.array([0, 1], dtype=np.int64), idx0,
        1, 1, 7,
        np.ones((1, 1, 1), dtype=np.int64),
    )
