"""Exact arithmetic over the prime field F_q and dense linear algebra on it.

Scalars are plain Python ints in [0, q); matrices are 2-D numpy int64 arrays
with entries in [0, q).  Everything is exact -- no floating point anywhere --
so rank and dimension checks are decisions, not estimates.

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
    """A system without a unique solution; ``column`` is the first right-hand side that has none."""

    def __init__(self, message: str, column: int = 0):
        super().__init__(message)
        self.column = column


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


def _as_matrix(m, q: int) -> np.ndarray:
    a = np.asarray(m, dtype=np.int64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
    return a % q


def rank(m, q: int = DEFAULT_Q) -> int:
    """Rank over F_q by exact Gaussian elimination."""
    a = _as_matrix(m, q).copy()
    if a.size == 0:
        return 0
    pivots = np.full(a.shape[0], -1, dtype=np.int64)
    return int(kernels.row_reduce(a, q, pivots))


def solve(a, y, q: int = DEFAULT_Q) -> np.ndarray:
    """Solve A x = y for the unique x, requiring A to have full column rank.

    ``y`` is one right-hand side (rows,) or several, the columns of a
    (rows, s) matrix; x comes back in the same layout.  All right-hand sides
    are reduced with A in one pass.  Errors are those of solving the columns
    one at a time in order: the first column without a unique solution
    raises NoSolution if it lies outside the column span of A, else
    RankDeficient if the columns of A are linearly dependent, and the
    exception's ``column`` names it.
    """
    mat = _as_matrix(a, q)
    rhs = np.asarray(y, dtype=np.int64) % q
    if rhs.ndim not in (1, 2) or rhs.shape[0] != mat.shape[0]:
        raise ValueError("right-hand side must be a vector or matrix with one row per row of A")
    rows, cols = mat.shape
    aug = np.concatenate([mat, rhs.reshape(rows, -1)], axis=1)
    pivots = np.full(rows, -1, dtype=np.int64)
    kernels.row_reduce(aug, q, pivots)
    rank_a = int(np.count_nonzero((pivots >= 0) & (pivots < cols)))
    # the reduced rows below rank(A) are zero on A, so a column is solvable iff zero there too
    unsolvable = aug[rank_a:, cols:].any(axis=0)
    if rank_a < cols and unsolvable.size and not unsolvable[0]:
        raise RankDeficient(f"matrix has column rank {rank_a} < {cols}")
    if unsolvable.any():
        raise NoSolution("right-hand side is not in the column span", int(np.argmax(unsolvable)))
    x = np.zeros((cols, aug.shape[1] - cols), dtype=np.int64)
    x[pivots[:rank_a]] = aug[:rank_a, cols:]
    return x[:, 0] if rhs.ndim == 1 else x
