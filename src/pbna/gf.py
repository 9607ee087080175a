"""Exact arithmetic over the prime field F_q and dense linear algebra on it.

Scalars are plain Python ints in [0, q).  The linear algebra takes one
shape only: a (B, rows, cols) numpy int64 stack of B matrices, all handled
by one inverse-free ``kernels.row_reduce`` pass, whose pivot rows share one
batched inverse; a single matrix is a stack of one.  Callers build their
stacks with one gather each, zero-padded on the right.  Everything is exact
-- no floating point anywhere -- so rank and dimension checks are
decisions, not estimates.

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


class SolveError(ArithmeticError):
    """A system without a unique solution; ``column`` is the first right-hand side that has none.

    ``item`` is the failing system's index in the stack of systems.
    """

    def __init__(self, message: str, column: int = 0, item: int = 0):
        super().__init__(message)
        self.column = column
        self.item = item


class NoSolution(SolveError):
    """Raised by solve() when a right-hand side is outside the column span."""


class RankDeficient(SolveError):
    """Raised when a full-column-rank matrix was required but not supplied."""


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


def _reduce(a: np.ndarray, q: int, pivot_cols=None) -> tuple[np.ndarray, np.ndarray]:
    """Reduce the stack ``a`` in place, pivoting on its first ``pivot_cols`` columns (default: all).

    Returns its (B, rows) pivot table and (B,) ranks.
    """
    pivots = np.full(a.shape[:2], -1, dtype=np.int64)
    return pivots, kernels.row_reduce(a, q, pivots, pivot_cols)


def rank(m, q: int = DEFAULT_Q) -> np.ndarray:
    """The (B,) ranks over F_q of the (B, rows, cols) stack ``m``, by exact Gaussian elimination."""
    return _reduce(_as_stack(m, q), q)[1]


def solve(a, y, q: int, widths) -> np.ndarray:
    """Solve A_b X_b = Y_b for the unique X_b of every system b, requiring full column rank.

    ``a`` is a (B, rows, cols) stack, each system zero-padded on the right
    (a zero column never becomes a pivot), and ``widths`` gives each
    system's real column count.  ``y`` is (B, rows, s): the s right-hand
    sides of each system, as columns.  All of them are reduced with A in one
    pass, and the (B, cols, s) solution comes back with the padded rows
    zero.  The error is the one of solving the (column, system) pairs one
    at a time, column-major: the first pair without a unique solution
    raises NoSolution if its column lies outside the column span of A_b,
    else RankDeficient if A_b's columns are linearly dependent; ``column``
    and ``item`` name the pair.
    """
    mat = _as_stack(a, q)
    rhs = np.asarray(y, dtype=np.int64) % q
    n_items, rows, cols = mat.shape
    if rhs.ndim != 3 or rhs.shape[:2] != mat.shape[:2]:
        raise ValueError("right-hand sides must be a (B, rows, s) stack with one row per row of A")
    widths = np.asarray(widths, dtype=np.int64)
    aug = np.concatenate([mat, rhs], axis=2)
    # Pivots on A's columns only: the right-hand sides are carried along, and a column of
    # them is solvable iff it is zero in the rows below rank(A), which are zero on A.
    pivots, rank_a = _reduce(aug, q, cols)
    below = np.arange(rows)[None, :, None] >= rank_a[:, None, None]
    unsolvable = (aug[:, :, cols:].astype(bool) & below).any(axis=1)  # (B, s)
    deficient = (rank_a < widths) & (unsolvable.shape[1] > 0)
    failing = deficient | unsolvable.any(axis=1)
    if failing.any():
        # a rank-deficient system fails at column 0, any other at its first unsolvable column
        first = np.where(deficient, 0, np.argmax(unsolvable, axis=1))
        b = min(np.flatnonzero(failing).tolist(), key=lambda b: (first[b], b))
        if deficient[b] and not unsolvable[b, 0]:
            raise RankDeficient(f"matrix has column rank {rank_a[b]} < {widths[b]}", 0, b)
        raise NoSolution("right-hand side is not in the column span", int(first[b]), b)
    x = np.zeros((n_items, cols, aug.shape[2] - cols), dtype=np.int64)
    items, pivot_rows = np.nonzero(pivots >= 0)
    x[items, pivots[items, pivot_rows]] = aug[items, pivot_rows, cols:]
    return x
