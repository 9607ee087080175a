"""Exact arithmetic over the prime field F_q and dense linear algebra on it.

Scalars are plain Python ints in [0, q).  The linear algebra takes one
shape only: a (B, rows, cols) numpy int64 stack of B matrices, all handled
by one inverse-free ``kernels.row_reduce`` pass (``solve`` then makes one
batched inverse); a single matrix is a stack of one.  Callers build their
stacks with one gather each, zero-padded on the right.  ``solve`` raises
for malformed shapes only: it marks each right-hand side that has no
unique solution, and the caller judges.  Everything is exact -- no
floating point anywhere -- so rank and dimension checks are decisions, not
estimates.

Only prime moduli below 2**31 are supported (``check_modulus``).  The
default modulus is the Mersenne prime 2**31 - 1, large enough that
randomized nonzero-certificates succeed with overwhelming probability while
products of two residues still fit in int64.
"""

from __future__ import annotations

import functools

import numpy as np

from . import kernels

DEFAULT_Q = 2147483647  # 2**31 - 1, prime


class InvalidModulus(ValueError):
    """Raised for a field modulus that is composite or not below 2**31."""


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@functools.cache
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all n < 3.3e24; each n is tested once per process."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_modulus(q: int) -> None:
    """Reject moduli the int64 kernels cannot handle exactly.

    q must be prime, and below 2**31 so that a product of two residues fits
    in int64.  The bound is tested first, so a huge q is rejected without a
    primality test.
    """
    if q >= 2**31:
        raise InvalidModulus(f"field modulus must be below 2**31, got {q}")
    if not is_prime(q):
        raise InvalidModulus(f"field modulus must be prime, got {q}")


def _as_stack(m, q: int) -> np.ndarray:
    """``m`` mod q as a fresh (B, rows, cols) stack."""
    a = np.asarray(m, dtype=np.int64)
    if a.ndim != 3:
        raise ValueError(f"expected a (B, rows, cols) stack of matrices, got shape {a.shape}")
    return a % q


def rank(m, q: int = DEFAULT_Q) -> np.ndarray:
    """The (B,) ranks over F_q of the (B, rows, cols) stack ``m``, by exact Gaussian elimination."""
    return kernels.row_reduce(_as_stack(m, q), q)[0]


def solve(a, y, q: int, widths) -> tuple[np.ndarray, np.ndarray]:
    """Solve A_b X_b = Y_b for every system b, and say which columns of X_b are unique.

    ``a`` is a (B, rows, cols) stack, each system zero-padded on the right
    (a zero column never becomes a pivot), and ``widths`` gives each
    system's real column count.  ``y`` is (B, rows, s): the s right-hand
    sides of each system, as columns.  All of them are reduced with A in one
    pass.  Returns (x, unique): x is the (B, cols, s) solution with the
    padded rows zero, and the (B, s) mask ``unique`` is True where A_b has
    full column rank and column s of Y_b lies in its span.  Where it is
    False, x holds what the pivot rows give, with the free unknowns 0.
    """
    mat = _as_stack(a, q)
    rhs = np.asarray(y, dtype=np.int64) % q
    n_items, rows, cols = mat.shape
    if rhs.ndim != 3 or rhs.shape[:2] != mat.shape[:2]:
        raise ValueError("right-hand sides must be a (B, rows, s) stack with one row per row of A")
    aug = np.concatenate([mat, rhs], axis=2)
    # Pivots on A's columns only: the right-hand sides are carried along, and a column of
    # them is solvable iff it is zero in the rows below rank(A), which are zero on A.
    rank_a, pivots = kernels.row_reduce(aug, q, cols)
    below = np.arange(rows)[None, :, None] >= rank_a[:, None, None]
    unique = ~(aug[:, :, cols:].astype(bool) & below).any(axis=1) & (rank_a == np.asarray(widths))[:, None]
    x = np.zeros((n_items, cols, aug.shape[2] - cols), dtype=np.int64)
    items, pivot_rows = np.nonzero(pivots >= 0)
    piv = pivots[items, pivot_rows]  # x's row piv: pivot row r's right-hand sides over its leading entry
    x[items, piv] = aug[items, pivot_rows, cols:] * kernels.inverse(aug[items, pivot_rows, piv], q)[:, None] % q
    return x, unique
