"""Hot numeric kernels: exact mod-q row reduction, batched inverses and DAG transfer propagation.

All are plain numpy with vectorized updates.  The row reduction works on a
stack of matrices, so one call serves many small systems; it divides by
nothing and normalizes no pivot row, so a rank costs no inverse.  ``inverse``
inverts a whole array through a product tree with a single ``pow``; it is
the package's one modular inverse.
Propagation follows an index schedule that ``network.CodingLayout`` builds
once per network: one value per edge when sources inject session symbols,
one per (edge, source) entry when ``realize`` evaluates transfers.

All arrays are int64 with entries in [0, q) for a prime q < 2**31 (enforced
by ``gf.check_modulus``), so a product of two entries, and the sum of two
such products, fits in int64, and Python modulo semantics keep
intermediate values in range.
"""

from __future__ import annotations

import numpy as np


def inverse(x, q):
    """Elementwise inverses modulo q of the residues ``x``, by one product tree and a single ``pow``.

    The entries, padded with 1s to a power of two, are multiplied in pairs,
    level by level, until one product is left.  Going down, each entry of a
    pair has the pair's inverse times the other entry as its inverse.  A
    zero entry makes the root zero, and ``pow`` raises ValueError for it.
    """
    x = np.asarray(x, dtype=np.int64)
    v = np.ones(1 << (x.size - 1).bit_length(), dtype=np.int64)
    v[:x.size] = x.ravel()
    pairs = []
    while v.size > 1:
        pairs.append(v.reshape(-1, 2))
        v = pairs[-1][:, 0] * pairs[-1][:, 1] % q
    inv = np.array([pow(int(v[0]), -1, q)], dtype=np.int64)
    for pair in reversed(pairs):
        inv = (inv[:, None] * pair[:, ::-1] % q).ravel()
    return inv[:x.size].reshape(x.shape)


def row_reduce(a, q, pivots, pivot_cols=None):
    """In-place reduced row echelon form, up to row scaling, of every matrix in the stack ``a`` modulo q.

    ``a`` is (B, rows, cols); each column step finds every matrix's pivot row,
    then swaps and eliminates in all of them at once.  Only the first
    ``pivot_cols`` columns (default: all) may hold pivots; row operations
    still span every column, so the rest are carried along as right-hand
    sides.  ``pivots[b, r]`` receives the pivot column of pivot row r of
    matrix b (entries beyond its rank are left untouched, callers should
    pre-fill with -1).  Returns the (B,) ranks.

    A step divides by nothing: with pivot p, every other row becomes
    ``p * row - f * pivot_row`` for its entry f in the pivot column, which
    scales it by the nonzero p, so zero patterns, pivots and ranks are those
    of dividing by p.  Each row comes out a nonzero multiple of its exact
    RREF row: pivot row r's leading entry ``a[b, r, pivots[b, r]]`` is the
    one nonzero of its pivot column, and a row below the rank is zero on
    the pivot columns.  Only ``gf.solve`` divides by the leading entries.
    """
    n_items, rows, cols = a.shape
    rank = np.zeros(n_items, dtype=np.int64)
    row_ids = np.arange(rows)
    for c in range(cols if pivot_cols is None else pivot_cols):
        # a row at or below the item's rank with a nonzero entry in column c
        cand = (a[:, :, c] != 0) & (row_ids[None, :] >= rank[:, None])
        items = np.flatnonzero(cand.any(axis=1))
        if items.size == 0:
            continue
        r = rank[items]
        piv = cand[items].argmax(axis=1)
        pivot_rows = a[items, piv]
        a[items, piv] = a[items, r]
        # p * row - f * pivot_row as p * row + (q - f) * pivot_row: each product is below q**2 < 2**62,
        # so the sum is exact in int64, and never negative, which keeps numpy's remainder fast
        cofactors = q - a[items, :, c]
        a[items] = (a[items] * pivot_rows[:, c, None, None] + cofactors[:, :, None] * pivot_rows[:, None, :]) % q
        a[items, r] = pivot_rows  # row r's own update above is discarded
        pivots[items, r] = c
        rank[items] += 1
        if rank.min() == rows:
            break
    return rank


def propagate(coeffs, inj_edge, inj_col, inj_cidx, pair_in, pair_out, pair_cidx, dest_ptr, dest_edges, n_edges, n_cols, q,
              inputs, round_ptr):
    """Forward-propagate per-slot coding coefficients and source inputs through a DAG.

    The index arrays are a schedule over ``n_edges`` propagated values: one
    per network edge, or one per (edge, source) entry where the source
    reaches the edge.  ``coeffs`` is (n_slots, n_coeffs), one independent
    assignment per slot.  ``inputs`` is (n_sources, n_cols, n_slots): at slot
    k, value ``inj_edge[t]`` starts as ``inputs[inj_col[t], :, k]`` scaled by
    coefficient ``inj_cidx[t]``.  Values are (n_cols, n_slots) arrays, so one
    pass serves every slot.  Pair round r is ``round_ptr[r]:round_ptr[r + 1]``
    of the ``pair_*`` arrays, sorted by ``pair_out``; a round reads only
    values that earlier rounds finished and writes each of its out-values
    once.  Destination d sums ``dest_edges[dest_ptr[d]:dest_ptr[d + 1]]``.
    Returns (n_dest, n_cols, n_slots).
    """
    n_slots = coeffs.shape[0]
    by_coeff = coeffs.T  # (n_coeffs, n_slots)
    val = np.zeros((n_edges, n_cols, n_slots), dtype=np.int64)
    # a value's edge has one tail, so at most one injection
    val[inj_edge] = by_coeff[inj_cidx][:, None, :] * inputs[inj_col] % q

    for lo, hi in zip(round_ptr[:-1].tolist(), round_ptr[1:].tolist()):
        outs = pair_out[lo:hi]
        starts = np.flatnonzero(np.diff(outs, prepend=-1))  # one run of pairs per out-value
        terms = val[pair_in[lo:hi]] * by_coeff[pair_cidx[lo:hi]][:, None, :] % q
        heads = outs[starts]
        # each term is below q, so no run's sum overflows int64
        val[heads] = (val[heads] + np.add.reduceat(terms, starts)) % q

    n_dest = dest_ptr.shape[0] - 1
    out = np.zeros((n_dest, n_cols, n_slots), dtype=np.int64)
    filled = np.flatnonzero(np.diff(dest_ptr))
    if filled.size:
        # reduceat gives an empty segment its first element, so only nonempty segments are summed
        out[filled] = np.add.reduceat(val[dest_edges], dest_ptr[filled]) % q
    return out


def warmup() -> None:
    """Does nothing: the kernels are plain numpy, so no first call compiles anything; pipebench/run.py calls it."""
