import numpy as np
import pytest

from pbna import gf, kernels
from pbna.interference import build_igraph
from pbna.network import realize
from pbna.precoding import plan_with_resampling, verify_alignment
from pbna.sparsify import find_dstar
from gen import fourbyfour_net
from oracles import egcd_inverse, is_prime_by_trial_division, monic_rows, pad_stack, rank_by_minors, row_reduce_one, solve_full_width


def test_field_new_rejects_composite():
    # a field is only built on a prime modulus
    with pytest.raises(gf.InvalidModulus):
        gf.check_modulus(6)
    with pytest.raises(gf.InvalidModulus):
        gf.check_modulus(1)
    with pytest.raises(gf.InvalidModulus):
        gf.check_modulus(2147483647 * 3)


def test_is_prime_matches_trial_division():
    # every n below 20,000, then the strong pseudoprimes to base 2 (2047), to bases 2 and 3
    # (1373653) and to bases 2, 3 and 5 (25326001), Carmichael numbers, and the largest
    # primes below 2**31
    hard = [2047, 1373653, 25326001, 561, 41041, 825265, 321197185, 2147483587, 2147483629, 2147483647]
    for n in [*range(20_000), *hard]:
        assert gf.is_prime(n) == is_prime_by_trial_division(n), n
    assert [gf.is_prime(n) for n in hard] == [False] * 7 + [True] * 3


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
    # a x = 1 over F_q, solved by the row-reduction kernel; like pow, a ValueError when a = 0
    x, unique = gf.solve([[[a]]], [[[1]]], q, [1])
    if not unique[0, 0]:
        raise ValueError(f"{a} has no inverse mod {q}")
    return int(x[0, 0, 0])


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
    with pytest.raises(ValueError, match="no inverse"):
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
    # the pivot table of kernels.row_reduce, which only gf.solve reads, to place each unknown
    rng = np.random.default_rng(19)
    for q in (2, 5, 7):
        for _ in range(40):
            rows = int(rng.integers(1, 5))
            cols = int(rng.integers(1, 7))
            a = rng.integers(0, q, size=(rows, cols))
            if rng.random() < 0.4:
                a[:, int(rng.integers(cols))] = a[:, int(rng.integers(cols))]
            ranks, table = kernels.row_reduce(a[None].copy(), q)
            rank = int(ranks[0])
            pivots = table[0, :rank].tolist()
            assert (table[0, rank:] == -1).all()
            assert pivots == sorted(set(pivots)) and all(0 <= c < cols for c in pivots)
            for c in range(1, cols + 1):
                prefix = sum(p < c for p in pivots)
                assert prefix == gf.rank(a[None, :, :c], q)[0] == rank_by_minors(a[:, :c].tolist(), q)


def test_solve_identity():
    x, unique = gf.solve(np.eye(2, dtype=np.int64)[None], [[[3], [4]]], 7, [2])
    assert x.tolist() == [[[3], [4]]] and unique.tolist() == [[True]]


def _assert_solve_like_oracle(a, y, q, widths):
    """gf.solve's mask equals the oracle's, and its x equals the oracle's on every unique column."""
    x, unique = gf.solve(a, y, q, widths)
    want_x, want_unique = solve_full_width(np.asarray(a), np.asarray(y), q, widths)
    assert unique.tolist() == want_unique.tolist()
    assert (x.transpose(0, 2, 1)[unique] == want_x.transpose(0, 2, 1)[unique]).all()
    return x, unique


def test_solve_marks_inconsistent():
    # (2, 3) is outside the span of (1, 1); (4, 4) is inside, so one system has a unique and a failed column
    x, unique = _assert_solve_like_oracle(np.array([[[1], [1]]]), np.array([[[2, 4], [3, 4]]]), 5, [1])
    assert unique.tolist() == [[False, True]] and x[0, 0, 1] == 4


def test_solve_scalar():
    x, unique = gf.solve([[[2]]], [[[3]]], 7, [1])
    assert x.tolist() == [[[5]]] and unique.tolist() == [[True]]


def test_solve_marks_rank_deficient():
    # dependent columns fail every right-hand side, in the span or not; x is still the pivot rows' reading
    x, unique = _assert_solve_like_oracle(np.array([[[1, 2], [2, 4]]]), np.array([[[1, 1], [2, 3]]]), 7, [2])
    assert unique.tolist() == [[False, False]] and x[0, :, 0].tolist() == [1, 0]


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
            got, unique = gf.solve(a[None], y[None], q, [cols])
            assert got[0].tolist() == x.tolist() and unique.all()


def test_solve_columns_match_one_at_a_time():
    # Several right-hand sides in one reduction: the same mask and the same x as solving
    # each column alone (pivots come from A only), and the oracle's on every unique column.
    rng = np.random.default_rng(29)
    seen = {"ok": 0, "inconsistent later": 0, "rank-deficient": 0}
    for _ in range(400):
        q = int(rng.choice([2, 5, 7]))
        rows, cols = (int(n) for n in rng.integers(1, 5, size=2))
        a = rng.integers(0, q, size=(rows, cols))
        x_true = rng.integers(0, q, size=(cols, int(rng.integers(0, 5))))
        y = (a.astype(object) @ x_true.astype(object) % q).astype(np.int64).reshape(rows, -1)
        y[:, rng.random(y.shape[1]) < 0.2] = rng.integers(0, q, size=rows)[:, None]  # some arbitrary columns
        got, unique = _assert_solve_like_oracle(a[None], y[None], q, [cols])
        assert got.shape == (1, cols, y.shape[1]) and unique.shape == (1, y.shape[1])
        for s in range(y.shape[1]):
            alone, alone_unique = gf.solve(a[None], y[None, :, s:s + 1], q, [cols])
            assert got[0, :, s].tolist() == alone[0, :, 0].tolist()
            assert unique[0, s] == alone_unique[0, 0]
        ok = unique[0]
        assert ((a.astype(object) @ got[0][:, ok].astype(object) - y[:, ok]) % q == 0).all()
        failed = np.flatnonzero(~ok)
        seen["ok"] += failed.size == 0
        if gf.rank(a[None], q)[0] < cols:
            seen["rank-deficient"] += failed.size > 0
        else:
            seen["inconsistent later"] += failed.size > 0 and failed[0] > 0
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
            ranks, pivots = kernels.row_reduce(stack, q)
            assert ranks.shape == (len(items),) and pivots.shape == stack.shape[:2]
            for b, a in enumerate(items):
                one = a.copy()
                piv = np.full(a.shape[0], -1, dtype=np.int64)
                rank = row_reduce_one(one, q, piv)
                assert ranks[b] == rank
                assert pivots[b].tolist() == piv.tolist()
                # each row a nonzero multiple of the RREF's: no pivot row is normalized
                assert monic_rows(stack[b, :, :a.shape[1]], q).tolist() == one.tolist()
                assert not stack[b, :, a.shape[1]:].any()
                seen["zero"] += not a.any()
                seen["deficient"] += 0 < rank < min(a.shape)
                seen["tall"] += a.shape[0] > a.shape[1]
                seen["wide"] += a.shape[0] < a.shape[1]
                seen["padded"] += a.shape[1] < width
    assert min(seen.values()) >= 20, seen


def test_stacked_solve_marks_like_one_system_at_a_time():
    # Each system is full rank and consistent, rank-deficient, or leaves the span from
    # some right-hand side on.  The stack gives every system the mask and the x it gets
    # alone, zero-padded, and the oracle's mask and x on every unique column.
    rng = np.random.default_rng(61)
    seen = {"ok": 0, "rank-deficient": 0, "inconsistent at 0": 0, "inconsistent later": 0, "later system": 0}
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
        x, unique = _assert_solve_like_oracle(stack, y, q, widths)
        assert x.shape == (len(items), stack.shape[2], n_rhs) and unique.shape == (len(items), n_rhs)
        for b, (a, yb) in enumerate(zip(items, rhs)):
            alone, alone_unique = gf.solve(a[None], yb[None], q, [widths[b]])
            assert x[b, :widths[b]].tolist() == alone[0].tolist()
            assert unique[b].tolist() == alone_unique[0].tolist()
            assert not x[b, widths[b]:].any()
            if gf.rank(a[None], q)[0] < widths[b]:
                seen["rank-deficient"] += 1
            else:
                seen["inconsistent at 0"] += not unique[b, 0]
                seen["inconsistent later"] += bool(unique[b, 0] and not unique[b].all())
        seen["ok"] += bool(unique.all())
        seen["later system"] += bool((~unique[1:]).any())
    assert min(seen.values()) >= 10, seen


def test_solve_pivots_on_a_only_like_a_full_width_reduction():
    # gf.solve pivots only on A's columns; an oracle that reduces [A | Y] over its full
    # width must give the same mask, and the same x on every unique column, on consistent,
    # inconsistent and rank-deficient stacks.
    rng = np.random.default_rng(67)
    seen = {"ok": 0, "inconsistent": 0, "rank-deficient": 0}
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
        _, unique = _assert_solve_like_oracle(a, y, q, widths)
        ranks = [gf.rank(m[None], q)[0] for m in items]
        deficient = [r < w for r, w in zip(ranks, widths)]
        seen["ok"] += bool(unique.all())
        seen["rank-deficient"] += any(deficient)
        seen["inconsistent"] += any(not d and not u.all() for d, u in zip(deficient, unique))
        aug = np.concatenate([a, y], axis=2)
        kernel_ranks, pivots = kernels.row_reduce(aug, q, a.shape[2])
        assert (pivots < a.shape[2]).all()
        assert kernel_ranks.tolist() == ranks
    assert min(seen.values()) >= 20, seen


def test_row_reduce_no_int64_overflow_near_modulus():
    # worst-case entries (q-1) with the largest supported modulus, in a stack with a padded item
    q = 2147483647
    a = np.full((2, 4, 4), q - 1, dtype=np.int64)
    a[0, 0, 0] = 1
    a[1, :, 3] = 0
    r, _ = kernels.row_reduce(a, q)
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
    # products of an elimination step at their largest; the stacked result must equal the
    # oracle's up to row scaling
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
        ranks, pivots = kernels.row_reduce(aug, q, n_a)
        assert ranks.tolist() == want_ranks
        assert pivots.tolist() == want_pivots.tolist()
        assert ((aug >= 0) & (aug < q)).all()
        assert monic_rows(aug, q).tolist() == monic_rows(want, q).tolist()
    assert seen >= 20
    # full width, every entry q - 1 but a diagonal of ones: each step runs at the extremes
    a = np.full((2, 5, 7), q - 1, dtype=np.int64)
    a[0, np.arange(5), np.arange(5)] = 1
    want = a.copy()
    want_pivots = np.full((2, 5), -1, dtype=np.int64)
    want_ranks = [row_reduce_one(want[b], q, want_pivots[b]) for b in range(2)]
    ranks, pivots = kernels.row_reduce(a, q)
    assert ranks.tolist() == want_ranks
    assert pivots.tolist() == want_pivots.tolist() and monic_rows(a, q).tolist() == want.tolist()


def test_rank_only_reductions_invert_nothing(monkeypatch):
    # only gf.solve reads normalized pivot rows, so only it calls the batched inverse, once per stack
    net = fourbyfour_net()
    plan = plan_with_resampling(net, find_dstar(build_igraph(net, realize(net, 3, 0))))
    calls = []
    original = kernels.inverse
    monkeypatch.setattr(kernels, "inverse", lambda x, q: calls.append(np.size(x)) or original(x, q))
    q = gf.DEFAULT_Q
    a = np.random.default_rng(83).integers(0, q, size=(6, 4, 5))
    assert gf.rank(a, q).tolist() == [4] * 6
    assert verify_alignment(plan).all()
    assert calls == []
    gf.solve(a[:, :, :4], a[:, :, 4:], q, [4] * 6)
    assert calls == [24]
