import numpy as np
import pytest

from pbna import gf, kernels
from oracles import egcd_inverse, rank_by_minors


def test_field_new_rejects_composite():
    # a field is only built on a prime modulus
    with pytest.raises(gf.InvalidModulus):
        gf.check_modulus(6)
    with pytest.raises(gf.InvalidModulus):
        gf.check_modulus(1)
    with pytest.raises(gf.InvalidModulus):
        gf.check_modulus(2147483647 * 3)


def _scalar_inverse(a: int, q: int) -> int:
    # a x = 1 over F_q, solved by the row-reduction kernel
    return int(gf.solve([[a]], [1], q)[0])


def test_inverse_small_field():
    assert _scalar_inverse(3, 7) == 5
    assert 3 * _scalar_inverse(3, 7) % 7 == 1


def test_inverse_default_modulus_matches_euclid():
    q = gf.DEFAULT_Q
    assert _scalar_inverse(2, q) == 1073741824
    assert _scalar_inverse(2, q) == egcd_inverse(2, q)
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = int(rng.integers(1, q))
        assert _scalar_inverse(a, q) == egcd_inverse(a, q)


def test_inverse_of_zero_raises():
    with pytest.raises(gf.NoSolution):
        _scalar_inverse(0, 7)


def test_mul_inv_identity_random():
    for q in (5, 97, gf.DEFAULT_Q):
        rng = np.random.default_rng(q)
        for _ in range(40):
            a = int(rng.integers(1, q))
            assert a * _scalar_inverse(a, q) % q == 1


def test_rank_identity_zero_dependent():
    assert gf.rank(np.eye(3, dtype=np.int64), 7) == 3
    assert gf.rank(np.zeros((2, 5), dtype=np.int64), 7) == 0
    assert gf.rank([[1, 2], [2, 4]], 7) == 1


def test_rank_matches_transpose():
    rng = np.random.default_rng(5)
    for q in (5, 7, gf.DEFAULT_Q):
        for _ in range(20):
            rows = int(rng.integers(1, 9))
            cols = int(rng.integers(1, 9))
            a = rng.integers(0, q, size=(rows, cols))
            assert gf.rank(a, q) == gf.rank(a.T, q)


def test_rank_matches_minor_enumeration():
    rng = np.random.default_rng(17)
    q = 5
    for _ in range(60):
        rows = int(rng.integers(1, 5))
        cols = int(rng.integers(1, 5))
        a = rng.integers(0, q, size=(rows, cols))
        assert gf.rank(a, q) == rank_by_minors(a.tolist(), q)


def test_solve_identity():
    x = gf.solve(np.eye(2, dtype=np.int64), [3, 4], 7)
    assert x.tolist() == [3, 4]


def test_solve_inconsistent_raises():
    with pytest.raises(gf.NoSolution):
        gf.solve([[1], [1]], [2, 3], 5)


def test_solve_scalar():
    assert gf.solve([[2]], [3], 7).tolist() == [5]


def test_solve_rank_deficient_raises():
    with pytest.raises(gf.RankDeficient):
        gf.solve([[1, 2], [2, 4]], [1, 2], 7)


def test_solve_roundtrip_random():
    rng = np.random.default_rng(23)
    for q in (7, gf.DEFAULT_Q):
        for _ in range(25):
            cols = int(rng.integers(1, 5))
            rows = cols + int(rng.integers(0, 3))
            a = rng.integers(0, q, size=(rows, cols))
            if gf.rank(a, q) < cols:
                continue
            x = rng.integers(0, q, size=cols)
            y = (a.astype(object) @ x) % q
            assert gf.solve(a, y, q).tolist() == (x % q).tolist()


def test_row_reduce_no_int64_overflow_near_modulus():
    # worst-case entries (q-1) with the largest supported modulus
    q = 2147483647
    a = np.full((4, 4), q - 1, dtype=np.int64)
    a[0, 0] = 1
    piv = np.full(4, -1, dtype=np.int64)
    r = kernels.row_reduce(a.copy(), q, piv)
    assert 1 <= r <= 4
    assert ((a >= 0) & (a < q)).all()
