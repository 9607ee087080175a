"""Exact arithmetic over the prime field F_q and dense linear algebra on it.

Scalars are plain Python ints in [0, q); matrices are 2-D numpy int64 arrays
with entries in [0, q), and a (B, rows, cols) array is a stack of B matrices
that one reduction handles together.  Everything is exact -- no floating
point anywhere -- so rank and dimension checks are decisions, not estimates.

Only prime moduli below 2**31 are supported (``check_modulus``).  The
default modulus is the Mersenne prime 2**31 - 1, large enough that
randomized nonzero-certificates succeed with overwhelming probability while
products of two residues still fit in int64.
"""

from __future__ import annotations

import numpy as np

from . import kernels

DEFAULT_Q = 2147483647  # 2**31 - 1, prime


class InvalidModulus(ValueError):
    """Raised for a field modulus that is composite or not below 2**31."""


class SolveError(ArithmeticError):
    """A system without a unique solution; ``column`` is the first right-hand side that has none.

    ``item`` is the failing system's index in a stack of systems (0 for one system).
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


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all n < 3.3e24."""
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
    in int64.
    """
    if not is_prime(q):
        raise InvalidModulus(f"field modulus must be prime, got {q}")
    if q >= 2**31:
        raise InvalidModulus(f"field modulus must be below 2**31, got {q}")


def _as_stack(m, q: int) -> tuple[np.ndarray, bool]:
    """``m`` mod q as a fresh (B, rows, cols) stack, and whether ``m`` was one already."""
    a = np.asarray(m, dtype=np.int64)
    if a.ndim not in (2, 3):
        raise ValueError(f"expected a 2-D matrix or a 3-D stack of them, got shape {a.shape}")
    return (a if a.ndim == 3 else a[None]) % q, a.ndim == 3


def stack(mats) -> np.ndarray:
    """Stack matrices with one row count into (B, rows, widest), zero-padded on the right.

    A zero column never becomes a pivot, so the padding changes no pivot,
    rank or solution (``solve`` takes the real widths for its rank check).
    """
    mats = [np.asarray(m, dtype=np.int64) for m in mats]
    out = np.zeros((len(mats), mats[0].shape[0], max(m.shape[1] for m in mats)), dtype=np.int64)
    for b, m in enumerate(mats):
        out[b, :, :m.shape[1]] = m
    return out


def _reduce(a: np.ndarray, q: int, pivot_cols=None) -> tuple[np.ndarray, np.ndarray]:
    """Reduce the stack ``a`` in place, pivoting on its first ``pivot_cols`` columns (default: all).

    Returns its (B, rows) pivot table and (B,) ranks.
    """
    pivots = np.full(a.shape[:2], -1, dtype=np.int64)
    return pivots, kernels.row_reduce(a, q, pivots, pivot_cols)


def pivot_columns(m, q: int = DEFAULT_Q):
    """Pivot columns of the reduced row echelon form over F_q, ascending.

    Column c is a pivot iff it is outside the span of the columns before it,
    so the number of pivots below c is the rank of the first c columns.  A
    (B, rows, cols) stack gives a list of B such arrays from one reduction.
    """
    a, stacked = _as_stack(m, q)
    pivots, ranks = _reduce(a, q)
    per_item = [p[:r] for p, r in zip(pivots, ranks.tolist())]
    return per_item if stacked else per_item[0]


def rank(m, q: int = DEFAULT_Q):
    """Rank over F_q by exact Gaussian elimination; a (B, rows, cols) stack gives the (B,) ranks."""
    a, stacked = _as_stack(m, q)
    ranks = _reduce(a, q)[1]
    return ranks if stacked else int(ranks[0])


def solve(a, y, q: int = DEFAULT_Q, widths=None) -> np.ndarray:
    """Solve A x = y for the unique x, requiring A to have full column rank.

    ``y`` is one right-hand side (rows,) or several, the columns of a
    (rows, s) matrix; x comes back in the same layout.  All right-hand sides
    are reduced with A in one pass.  Errors are those of solving the columns
    one at a time in order: the first column without a unique solution
    raises NoSolution if it lies outside the column span of A, else
    RankDeficient if the columns of A are linearly dependent, and the
    exception's ``column`` names it.

    A (B, rows, cols) stack of systems takes a (B, rows) or (B, rows, s)
    ``y`` and is reduced in one pass; ``widths`` gives each system's real
    column count when the stack is zero-padded (``stack``), and the padded
    rows of x come back zero.  The error is the one of the first failing
    (column, system) pair, as raised by solving that system alone, with
    ``item`` naming the system.
    """
    mat, stacked = _as_stack(a, q)
    rhs = np.asarray(y, dtype=np.int64) % q
    n_items, rows, cols = mat.shape
    lead = mat.shape[:2] if stacked else (rows,)
    if rhs.ndim not in (len(lead), len(lead) + 1) or rhs.shape[:len(lead)] != lead:
        raise ValueError("right-hand side must be a vector or matrix with one row per row of A")
    widths = np.full(n_items, cols) if widths is None else np.asarray(widths, dtype=np.int64)
    aug = np.concatenate([mat, rhs.reshape(n_items, rows, -1)], axis=2)
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
    x = x.reshape(x.shape[:2]) if rhs.ndim == len(lead) else x
    return x if stacked else x[0]
