import numpy as np
import pytest

from pbna import gf, kernels
from oracles import egcd_inverse, pad_stack, rank_by_minors, row_reduce_one, solve_full_width


def test_field_new_rejects_composite():
    # a field is only built on a prime modulus
    with pytest.raises(gf.InvalidModulus):
        gf.check_modulus(6)
    with pytest.raises(gf.InvalidModulus):
        gf.check_modulus(1)
    with pytest.raises(gf.InvalidModulus):
        gf.check_modulus(2147483647 * 3)


def test_check_modulus_rejects_a_large_modulus_before_testing_primality(monkeypatch):
    # a modulus with thousands of digits must fail on the bound, not after a long Miller-Rabin
    def no_primality_test(n):
        raise AssertionError(f"is_prime({n}) called")

    monkeypatch.setattr(gf, "is_prime", no_primality_test)
    for q in (2**31, 2**31 + 11, 10**4291 + 1):
        with pytest.raises(gf.InvalidModulus, match="below 2"):
            gf.check_modulus(q)


def test_linear_algebra_takes_only_stacks():
    # one shape: a single matrix is a stack of one
    m = np.eye(2, dtype=np.int64)
    for call in (lambda: gf.rank(m, 7),
                 lambda: gf.solve(m, [[1], [2]], 7, [2]), lambda: gf.solve(m[None], [1, 2], 7, [2])):
        with pytest.raises(ValueError):
            call()


def _scalar_inverse(a: int, q: int) -> int:
    # a x = 1 over F_q, solved by the row-reduction kernel
    return int(gf.solve([[[a]]], [[[1]]], q, [1])[0, 0, 0])


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
    assert gf.rank(np.eye(3, dtype=np.int64)[None], 7).tolist() == [3]
    assert gf.rank(np.zeros((1, 2, 5), dtype=np.int64), 7).tolist() == [0]
    assert gf.rank([[[1, 2], [2, 4]]], 7).tolist() == [1]


def test_rank_matches_transpose():
    rng = np.random.default_rng(5)
    for q in (5, 7, gf.DEFAULT_Q):
        for _ in range(20):
            rows = int(rng.integers(1, 9))
            cols = int(rng.integers(1, 9))
            a = rng.integers(0, q, size=(rows, cols))
            assert gf.rank(a[None], q).tolist() == gf.rank(a.T[None], q).tolist()


def test_rank_matches_minor_enumeration():
    rng = np.random.default_rng(17)
    q = 5
    for _ in range(60):
        rows = int(rng.integers(1, 5))
        cols = int(rng.integers(1, 5))
        a = rng.integers(0, q, size=(rows, cols))
        assert gf.rank(a[None], q).tolist() == [rank_by_minors(a.tolist(), q)]


def test_pivot_columns_count_the_rank_of_every_column_prefix():
    # the pivot table of kernels.row_reduce, which verify_alignment reads its dimensions off
    rng = np.random.default_rng(19)
    for q in (2, 5, 7):
        for _ in range(40):
            rows = int(rng.integers(1, 5))
            cols = int(rng.integers(1, 7))
            a = rng.integers(0, q, size=(rows, cols))
            if rng.random() < 0.4:
                a[:, int(rng.integers(cols))] = a[:, int(rng.integers(cols))]
            table = np.full((1, rows), -1, dtype=np.int64)
            rank = int(kernels.row_reduce(a[None].copy(), q, table)[0])
            pivots = table[0, :rank].tolist()
            assert (table[0, rank:] == -1).all()
            assert pivots == sorted(set(pivots)) and all(0 <= c < cols for c in pivots)
            for c in range(1, cols + 1):
                prefix = sum(p < c for p in pivots)
                assert prefix == gf.rank(a[None, :, :c], q)[0] == rank_by_minors(a[:, :c].tolist(), q)


def test_solve_identity():
    x = gf.solve(np.eye(2, dtype=np.int64)[None], [[[3], [4]]], 7, [2])
    assert x.tolist() == [[[3], [4]]]


def test_solve_inconsistent_raises():
    with pytest.raises(gf.NoSolution):
        gf.solve([[[1], [1]]], [[[2], [3]]], 5, [1])


def test_solve_scalar():
    assert gf.solve([[[2]]], [[[3]]], 7, [1]).tolist() == [[[5]]]


def test_solve_rank_deficient_raises():
    with pytest.raises(gf.RankDeficient):
        gf.solve([[[1, 2], [2, 4]]], [[[1], [2]]], 7, [2])


def test_solve_roundtrip_random():
    rng = np.random.default_rng(23)
    for q in (7, gf.DEFAULT_Q):
        for _ in range(25):
            cols = int(rng.integers(1, 5))
            rows = cols + int(rng.integers(0, 3))
            a = rng.integers(0, q, size=(rows, cols))
            if gf.rank(a[None], q)[0] < cols:
                continue
            x = rng.integers(0, q, size=(cols, 1))
            y = (a.astype(object) @ x) % q
            assert gf.solve(a[None], y[None], q, [cols])[0].tolist() == x.tolist()


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
                one_by_one.append(gf.solve(a[None], y[None, :, s:s + 1], q, [cols])[0, :, 0])
            except (gf.NoSolution, gf.RankDeficient) as exc:
                one_by_one.append(exc)
        failed = [s for s, r in enumerate(one_by_one) if isinstance(r, Exception)]
        if not failed:
            got = gf.solve(a[None], y[None], q, [cols])[0]
            assert got.shape == (cols, y.shape[1])
            for s, col in enumerate(one_by_one):
                assert got[:, s].tolist() == col.tolist()
            assert ((a.astype(object) @ got.astype(object) - y) % q == 0).all()
            seen["ok"] += 1
            continue
        want = one_by_one[failed[0]]
        with pytest.raises(type(want)) as info:
            gf.solve(a[None], y[None], q, [cols])
        assert str(info.value) == str(want)
        assert info.value.column == failed[0]
        if isinstance(want, gf.NoSolution) and failed[0] > 0:
            seen["NoSolution later"] += 1
        seen["RankDeficient"] += isinstance(want, gf.RankDeficient)
    assert min(seen.values()) >= 10, seen


def test_euclid_inverse_matches_fermat():
    for q in (2, 3, 5, 7, 31, 251):
        for x in range(1, q):
            assert pow(x, -1, q) == pow(x, q - 2, q)
    q = gf.DEFAULT_Q
    for x in np.random.default_rng(53).integers(1, q, size=1000).tolist():
        assert pow(x, -1, q) == pow(x, q - 2, q)


def _ragged_items(rng, q):
    """Matrices with one row count and ragged widths: all-zero, rank-deficient, tall and wide ones."""
    rows = int(rng.integers(1, 7))
    items = []
    for _ in range(int(rng.integers(1, 7))):
        a = rng.integers(0, q, size=(rows, int(rng.integers(0, 9))))
        kind = rng.random()
        if kind < 0.15:
            a[:] = 0
        elif kind < 0.5 and a.shape[1] >= 2:
            # a repeated column, or a row that is a multiple of another
            if rng.random() < 0.5:
                a[:, int(rng.integers(a.shape[1]))] = a[:, int(rng.integers(a.shape[1]))]
            elif rows >= 2:
                a[int(rng.integers(rows))] = a[int(rng.integers(rows))] * int(rng.integers(0, q)) % q
        items.append(a)
    return items


def test_stacked_row_reduce_matches_one_at_a_time():
    rng = np.random.default_rng(59)
    seen = {"zero": 0, "deficient": 0, "tall": 0, "wide": 0, "padded": 0}
    for q in (2, 3, 7, gf.DEFAULT_Q):
        for _ in range(60):
            items = _ragged_items(rng, q)
            stack = pad_stack(items)
            width = stack.shape[2]
            pivots = np.full(stack.shape[:2], -1, dtype=np.int64)
            ranks = kernels.row_reduce(stack, q, pivots)
            assert ranks.shape == (len(items),)
            for b, a in enumerate(items):
                one = a.copy()
                piv = np.full(a.shape[0], -1, dtype=np.int64)
                rank = row_reduce_one(one, q, piv)
                assert ranks[b] == rank
                assert pivots[b].tolist() == piv.tolist()
                assert stack[b, :, :a.shape[1]].tolist() == one.tolist()
                assert not stack[b, :, a.shape[1]:].any()
                seen["zero"] += not a.any()
                seen["deficient"] += 0 < rank < min(a.shape)
                seen["tall"] += a.shape[0] > a.shape[1]
                seen["wide"] += a.shape[0] < a.shape[1]
                seen["padded"] += a.shape[1] < width
    assert min(seen.values()) >= 20, seen


def _solve_alone(a, y, q):
    try:
        return gf.solve(a[None], y[None], q, [a.shape[1]])[0]
    except gf.SolveError as exc:
        return exc


def test_stacked_solve_raises_like_one_system_at_a_time():
    # Each system is full rank and consistent, rank-deficient, or leaves the span from
    # some right-hand side on.  The stack raises what the first failing (column, system)
    # pair raises alone, and otherwise returns every system's solution, zero-padded.
    rng = np.random.default_rng(61)
    seen = {"ok": 0, "RankDeficient": 0, "NoSolution at 0": 0, "NoSolution later": 0, "later system": 0}
    for _ in range(300):
        q = int(rng.choice([2, 5, 7, gf.DEFAULT_Q]))
        rows = int(rng.integers(2, 6))
        n_rhs = int(rng.integers(1, 5))
        items, rhs = [], []
        for _ in range(int(rng.integers(1, 5))):
            a = rng.integers(0, q, size=(rows, int(rng.integers(1, rows + 1))))
            kind = rng.random()
            if kind < 0.25 and a.shape[1] >= 2:
                a[:, -1] = a[:, 0]
            y = (a.astype(object) @ rng.integers(0, q, size=(a.shape[1], n_rhs)).astype(object) % q).astype(np.int64)
            if kind > 0.6:
                y[:, int(rng.integers(n_rhs)):] = rng.integers(0, q, size=(rows, 1))
            items.append(a)
            rhs.append(y)
        stack, y = pad_stack(items), np.stack(rhs)
        widths = [a.shape[1] for a in items]
        alone = [_solve_alone(a, yb, q) for a, yb in zip(items, rhs)]
        failed = sorted((r.column, b) for b, r in enumerate(alone) if isinstance(r, Exception))
        if not failed:
            x = gf.solve(stack, y, q, widths=widths)
            assert x.shape == (len(items), stack.shape[2], n_rhs)
            for b, r in enumerate(alone):
                assert x[b, :widths[b]].tolist() == r.tolist()
                assert not x[b, widths[b]:].any()
            seen["ok"] += 1
            continue
        column, b = failed[0]
        want = alone[b]
        with pytest.raises(type(want)) as info:
            gf.solve(stack, y, q, widths=widths)
        assert str(info.value) == str(want)
        assert (info.value.column, info.value.item) == (column, b)
        if isinstance(want, gf.RankDeficient):
            seen["RankDeficient"] += 1
        else:
            seen["NoSolution later" if column else "NoSolution at 0"] += 1
        seen["later system"] += b > 0
    assert min(seen.values()) >= 10, seen


def _outcome(solve, *args):
    try:
        return solve(*args).tolist()
    except gf.SolveError as exc:
        return type(exc), str(exc), exc.column, exc.item


def test_solve_pivots_on_a_only_like_a_full_width_reduction():
    # gf.solve pivots only on A's columns; an oracle that reduces [A | Y] over its full
    # width must give the same x, or the same error, column and item, on consistent,
    # inconsistent and rank-deficient stacks.
    rng = np.random.default_rng(67)
    seen = {"ok": 0, "NoSolution": 0, "RankDeficient": 0}
    for _ in range(300):
        q = int(rng.choice([2, 3, 7, gf.DEFAULT_Q]))
        rows, n_rhs = int(rng.integers(1, 7)), int(rng.integers(1, 6))
        items = []
        for _ in range(int(rng.integers(1, 6))):
            a = rng.integers(0, q, size=(rows, int(rng.integers(1, rows + 1))))
            if rng.random() < 0.2 and a.shape[1] >= 2:
                a[:, -1] = a[:, 0] * int(rng.integers(0, q)) % q
            items.append(a)
        a = pad_stack(items)
        widths = [m.shape[1] for m in items]
        y = (a.astype(object) @ rng.integers(0, q, size=(a.shape[2], n_rhs)).astype(object) % q).astype(np.int64)
        if rng.random() < 0.4:
            y[int(rng.integers(len(items))), :, int(rng.integers(n_rhs)):] = rng.integers(0, q, size=(rows, 1))
        want = _outcome(solve_full_width, a, y, q, widths)
        assert _outcome(gf.solve, a, y, q, widths) == want
        seen[want[0].__name__ if isinstance(want, tuple) else "ok"] += 1
        pivots = np.full((len(items), rows), -1, dtype=np.int64)
        aug = np.concatenate([a, y], axis=2)
        ranks = kernels.row_reduce(aug, q, pivots, a.shape[2])
        assert (pivots < a.shape[2]).all()
        assert ranks.tolist() == [gf.rank(m[None], q)[0] for m in items]
    assert min(seen.values()) >= 20, seen


def test_row_reduce_no_int64_overflow_near_modulus():
    # worst-case entries (q-1) with the largest supported modulus, in a stack with a padded item
    q = 2147483647
    a = np.full((2, 4, 4), q - 1, dtype=np.int64)
    a[0, 0, 0] = 1
    a[1, :, 3] = 0
    piv = np.full((2, 4), -1, dtype=np.int64)
    r = kernels.row_reduce(a, q, piv)
    assert ((1 <= r) & (r <= 4)).all()
    assert ((a >= 0) & (a < q)).all()


def test_check_modulus_tests_primality_once_per_modulus():
    # realize checks its modulus on every call; the Miller-Rabin verdict is cached per q
    gf.is_prime.cache_clear()
    for _ in range(4):
        gf.check_modulus(gf.DEFAULT_Q)
        with pytest.raises(gf.InvalidModulus, match="must be prime"):
            gf.check_modulus(2147483645)
    info = gf.is_prime.cache_info()
    assert (info.misses, info.hits) == (2, 6)


def test_batched_inverse_matches_euclid():
    for q in (2, 3, 7, 31):
        x = np.arange(1, q, dtype=np.int64)
        assert kernels.inverse(x, q).tolist() == [egcd_inverse(v, q) for v in range(1, q)]
    q = gf.DEFAULT_Q
    rng = np.random.default_rng(71)
    for n in list(range(1, 18)) + [31, 64, 127, 240, 255, 256, 257, 600]:
        x = rng.integers(1, q, size=n, dtype=np.int64)
        assert kernels.inverse(x, q).tolist() == [egcd_inverse(v, q) for v in x.tolist()]
    x = rng.integers(1, q, size=(4, 6), dtype=np.int64)
    assert (kernels.inverse(x, q) * x % q == 1).all()
    assert kernels.inverse(np.zeros(0, dtype=np.int64), q).shape == (0,)  # a stack of rank 0 has no pivots


def test_batched_inverse_of_zero_raises_like_pow():
    for x in ([0], [3, 0], [1, 2, 0, 4, 5]):
        with pytest.raises(ValueError):
            kernels.inverse(np.array(x, dtype=np.int64), 7)


def test_row_reduce_scaled_elimination_is_exact_at_the_largest_modulus():
    # q - 1 in the factor, pivot and right-hand-side columns, and 0 and 1 beside them, put the
    # products of an elimination step at their largest; the stacked result must equal the oracle's
    q = gf.DEFAULT_Q
    rng = np.random.default_rng(73)
    rows, n_a, n_rhs = 4, 6, 5
    seen = 0
    for _ in range(40):
        aug = rng.choice(np.array([0, 1, q - 2, q - 1], dtype=np.int64), size=(3, rows, n_a + n_rhs))
        aug[:, :, 0] = q - 1  # every row has a factor q - 1 at the first pivot, itself q - 1
        aug[:, :, n_a:] = q - 1
        aug[1, :, n_a - 1] = 0  # a zero column inside A
        want = aug.copy()
        want_pivots = np.full((3, rows), -1, dtype=np.int64)
        want_ranks = [row_reduce_one(want[b], q, want_pivots[b]) for b in range(3)]
        if (want_pivots >= n_a).any():
            continue  # a pivot outside A: reducing [A | Y] differs from pivoting on A alone
        seen += 1
        pivots = np.full((3, rows), -1, dtype=np.int64)
        ranks = kernels.row_reduce(aug, q, pivots, n_a)
        assert ranks.tolist() == want_ranks
        assert pivots.tolist() == want_pivots.tolist()
        assert aug.tolist() == want.tolist()
    assert seen >= 20
    # full width, every entry q - 1 but a diagonal of ones: each step runs at the extremes
    a = np.full((2, 5, 7), q - 1, dtype=np.int64)
    a[0, np.arange(5), np.arange(5)] = 1
    want = a.copy()
    want_pivots = np.full((2, 5), -1, dtype=np.int64)
    want_ranks = [row_reduce_one(want[b], q, want_pivots[b]) for b in range(2)]
    pivots = np.full((2, 5), -1, dtype=np.int64)
    assert kernels.row_reduce(a, q, pivots).tolist() == want_ranks
    assert pivots.tolist() == want_pivots.tolist() and a.tolist() == want.tolist()
