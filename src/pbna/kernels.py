"""Hot numeric kernels: exact mod-q row reduction and DAG transfer propagation.

Both kernels are plain numpy with vectorized row updates.

All arrays are int64 with entries in [0, q) for a prime q < 2**31 (enforced
by ``gf.check_modulus``), so any product of two entries fits in int64 and
Python modulo semantics keep intermediate values in range.
"""

from __future__ import annotations

import numpy as np


def row_reduce(a, q, pivots):
    """In-place reduced row echelon form of ``a`` modulo q; returns the rank.

    ``pivots[r]`` receives the pivot column of pivot row r (rows beyond the
    rank are left untouched, callers should pre-fill with -1).
    """
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        inv = pow(int(a[r, c]), q - 2, q)
        a[r] = a[r] * inv % q
        factors = a[:, c].copy()
        factors[r] = 0
        hit = np.nonzero(factors)[0]
        if hit.size:
            a[hit] = (a[hit] - factors[hit, None] * a[r][None, :]) % q
        pivots[r] = c
        r += 1
    return r


def propagate(coeffs, inj_edge, inj_col, inj_cidx, pair_in, pair_out, pair_cidx, dest_ptr, dest_edges, n_edges, n_cols, q):
    """Forward-propagate per-slot coding coefficients through a DAG.

    ``coeffs`` is (n_slots, n_coeffs), one independent assignment per slot.
    Edge values are length-``n_cols`` vectors (one column per injected
    source).  ``pair_*`` arrays must be ordered so every write to an edge
    precedes all reads of it.  Returns (n_dest, n_cols, n_slots).
    """
    n_slots = coeffs.shape[0]
    n_dest = dest_ptr.shape[0] - 1
    out = np.zeros((n_dest, n_cols, n_slots), dtype=np.int64)
    for k in range(n_slots):
        val = np.zeros((n_edges, n_cols), dtype=np.int64)
        row = coeffs[k]
        for p in range(inj_edge.shape[0]):
            val[inj_edge[p], inj_col[p]] = (val[inj_edge[p], inj_col[p]] + row[inj_cidx[p]]) % q
        for p in range(pair_in.shape[0]):
            val[pair_out[p]] = (val[pair_out[p]] + row[pair_cidx[p]] * val[pair_in[p]]) % q
        for i in range(n_dest):
            sel = dest_edges[dest_ptr[i]:dest_ptr[i + 1]]
            if sel.size:
                out[i, :, k] = val[sel].sum(axis=0) % q
    return out


def warmup() -> None:
    """Run both kernels once on tiny inputs, so first-call costs stay out of timed work."""
    a = np.array([[1, 2], [3, 4]], dtype=np.int64)
    piv = np.full(2, -1, dtype=np.int64)
    row_reduce(a, 7, piv)
    coeffs = np.ones((1, 2), dtype=np.int64)
    idx0 = np.zeros(1, dtype=np.int64)
    empty = np.zeros(0, dtype=np.int64)
    propagate(
        coeffs,
        idx0, idx0, idx0,
        empty, empty, empty,
        np.array([0, 1], dtype=np.int64), idx0,
        1, 1, 7,
    )
