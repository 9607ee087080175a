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


def test_pivot_columns_count_the_rank_of_every_column_prefix():
    rng = np.random.default_rng(19)
    for q in (2, 5, 7):
        for _ in range(40):
            rows = int(rng.integers(1, 5))
            cols = int(rng.integers(1, 7))
            a = rng.integers(0, q, size=(rows, cols))
            if rng.random() < 0.4:
                a[:, int(rng.integers(cols))] = a[:, int(rng.integers(cols))]
            pivots = gf.pivot_columns(a, q).tolist()
            assert pivots == sorted(set(pivots)) and all(0 <= c < cols for c in pivots)
            for c in range(1, cols + 1):
                prefix = sum(p < c for p in pivots)
                assert prefix == gf.rank(a[:, :c], q) == rank_by_minors(a[:, :c].tolist(), q)


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


def test_solve_columns_match_one_at_a_time():
    # Several right-hand sides in one reduction: same solutions as solving
    # each column alone, and the error of the first column that has none.
    rng = np.random.default_rng(29)
    seen = {"ok": 0, "NoSolution later": 0, "RankDeficient": 0}
    for _ in range(400):
        q = int(rng.choice([2, 5, 7]))
        rows, cols = (int(n) for n in rng.integers(1, 5, size=2))
        a = rng.integers(0, q, size=(rows, cols))
        x_true = rng.integers(0, q, size=(cols, int(rng.integers(0, 5))))
        y = (a.astype(object) @ x_true.astype(object) % q).astype(np.int64).reshape(rows, -1)
        y[:, rng.random(y.shape[1]) < 0.2] = rng.integers(0, q, size=rows)[:, None]  # some arbitrary columns
        one_by_one = []
        for s in range(y.shape[1]):
            try:
                one_by_one.append(gf.solve(a, y[:, s], q))
            except (gf.NoSolution, gf.RankDeficient) as exc:
                one_by_one.append(exc)
        failed = [s for s, r in enumerate(one_by_one) if isinstance(r, Exception)]
        if not failed:
            got = gf.solve(a, y, q)
            assert got.shape == (cols, y.shape[1])
            for s, col in enumerate(one_by_one):
                assert got[:, s].tolist() == col.tolist()
            assert ((a.astype(object) @ got.astype(object) - y) % q == 0).all()
            seen["ok"] += 1
            continue
        want = one_by_one[failed[0]]
        with pytest.raises(type(want)) as info:
            gf.solve(a, y, q)
        assert str(info.value) == str(want)
        assert info.value.column == failed[0]
        if isinstance(want, gf.NoSolution) and failed[0] > 0:
            seen["NoSolution later"] += 1
        seen["RankDeficient"] += isinstance(want, gf.RankDeficient)
    assert min(seen.values()) >= 10, seen


def test_row_reduce_no_int64_overflow_near_modulus():
    # worst-case entries (q-1) with the largest supported modulus
    q = 2147483647
    a = np.full((4, 4), q - 1, dtype=np.int64)
    a[0, 0] = 1
    piv = np.full(4, -1, dtype=np.int64)
    r = kernels.row_reduce(a.copy(), q, piv)
    assert 1 <= r <= 4
    assert ((a >= 0) & (a < q)).all()
