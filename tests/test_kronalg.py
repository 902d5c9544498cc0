"""Exact-integer matrix identities and the prefix sum they give."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefixcircuits import (
    brent_kung,
    build,
    evaluate,
    kron,
    prefix_via_kron,
    decomposition_check,
)

from kronalg_reference import brent_kung_kron_step


def serial_fold(x):
    out = []
    acc = 0
    for v in x:
        acc += v
        out.append(acc)
    return out


class TestBuild:
    def test_L2(self):
        assert build("L", 2).tolist() == [[1, 0], [1, 1]]

    def test_Lminus2(self):
        assert build("Lminus", 2).tolist() == [[0, 0], [1, 0]]

    def test_U_is_L_transposed(self):
        for n in range(1, 17):
            assert np.array_equal(build("U", n), build("L", n).T)

    def test_entries_are_zero_one(self):
        for kind in ("L", "U", "Lminus", "Uminus", "I", "Ones"):
            for n in (1, 2, 7):
                m = build(kind, n)
                assert set(np.unique(m)) <= {0, 1}

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build("Q", 3)


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(build("I", 2), build("I", 3)), build("I", 6))

    def test_transpose_property(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.integers(-5, 6, size=(3, 2))
            b = rng.integers(-5, 6, size=(2, 4))
            assert np.array_equal(kron(a, b).T, kron(a.T, b.T))

    def test_mixed_product(self):
        # vec(A X B) = (B^T (x) A) vec(X), with vec stacking columns
        def vec(m):
            return m.T.reshape(-1)

        rng = np.random.default_rng(4)
        for _ in range(20):
            a = rng.integers(-4, 5, size=(3, 3))
            x = rng.integers(-4, 5, size=(3, 3))
            b = rng.integers(-4, 5, size=(3, 3))
            lhs = vec(a @ x @ b)
            rhs = kron(b.T, a) @ vec(x)
            assert np.array_equal(lhs, rhs)

    def test_int64_range_checked(self):
        # max|a| * max|b| at the int64 maximum is exact; one past it, or the
        # minimum's magnitude, or a uint64 that astype would wrap, is refused
        top = 2**63 - 1
        assert kron([[top]], [[1]]).tolist() == [[top]]
        assert kron([[-(2**31)]], [[2**31]]).tolist() == [[-(2**62)]]
        for a, b in (([[2**62]], [[2]]), ([[2**62]], [[-4]]), ([[-(2**63)]], [[1]])):
            with pytest.raises(ValueError, match=r"^a, b: max\|a\| \* max\|b\| = \d+ is above"):
                kron(a, b)
        with pytest.raises(ValueError, match=r"^a: value 9223372036854775808 is above"):
            kron(np.array([[2**63]], dtype=np.uint64), [[1]])
        assert kron(np.array([[top]], dtype=np.uint64), [[1]]).tolist() == [[top]]


class TestDecomposition:
    def test_2_2_explicit(self):
        # frozen 4x4 check of the first identity, computed by hand:
        # L_2 (x) L_2 + Lminus_2 (x) Uminus_2
        lhs = kron(build("L", 2), build("L", 2)) + kron(
            build("Lminus", 2), build("Uminus", 2)
        )
        assert lhs.tolist() == [
            [1, 0, 0, 0],
            [1, 1, 0, 0],
            [1, 1, 1, 0],
            [1, 1, 1, 1],
        ]
        assert decomposition_check(2, 2)

    def test_spot_grid(self):
        for n1, n2 in ((2, 3), (3, 2), (4, 5), (7, 2)):
            assert decomposition_check(n1, n2)

    def test_hypothesis_requires_greater_than_one(self):
        with pytest.raises(ValueError):
            decomposition_check(1, 4)


class TestPrefixViaKron:
    def test_prefix_of_ones(self):
        assert prefix_via_kron(np.ones(6, dtype=int), 3, 2).tolist() == [1, 2, 3, 4, 5, 6]

    def test_small_known(self):
        assert prefix_via_kron([1, 2, 3, 4], 2, 2).tolist() == [1, 3, 6, 10]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            prefix_via_kron([1, 2, 3], 2, 2)

    def test_int64_range_checked(self):
        # the sum of |x| bounds every prefix sum: at the int64 maximum it is
        # exact, one past it (either sign) is refused before anything wraps
        top = 2**63 - 1
        assert prefix_via_kron([2**62, 2**62 - 1], 1, 2).tolist() == [2**62, top]
        assert prefix_via_kron([-(2**62), 2**62 - 1], 2, 1).tolist() == [-(2**62), -1]
        for x in ([2**62, 2**62], [-(2**62), 2**62], [-(2**63)]):
            with pytest.raises(ValueError, match=r"^x: sum of \|x\| = 9223372036854775808 is"):
                prefix_via_kron(x, 1, len(x))

    def test_not_one_dimensional(self):
        for x in (5, [[1, 2], [3, 4]]):
            with pytest.raises(ValueError, match=r"^x: expected a 1-D array, got shape"):
                prefix_via_kron(x, 2, 1)

    def test_random_length_60_all_factor_pairs(self):
        rng = np.random.default_rng(5)
        x = rng.integers(-100, 100, size=60)
        want = serial_fold(x.tolist())
        for n1 in range(1, 61):
            if 60 % n1 == 0:
                assert prefix_via_kron(x, n1, 60 // n1).tolist() == want

    @given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=48))
    @settings(max_examples=60)
    def test_matches_serial_fold(self, xs):
        n = len(xs)
        want = serial_fold(xs)
        for n1 in range(1, n + 1):
            if n % n1 == 0:
                assert prefix_via_kron(xs, n1, n // n1).tolist() == want


class TestBrentKungKronStep:
    def test_ones(self):
        assert brent_kung_kron_step([1, 1, 1, 1]).tolist() == [1, 2, 3, 4]

    def test_one_to_eight(self):
        assert brent_kung_kron_step(list(range(1, 9))).tolist() == \
            [1, 3, 6, 10, 15, 21, 28, 36]

    def test_odd_length_peels(self):
        assert brent_kung_kron_step([2, 4, 6]).tolist() == [2, 6, 12]

    def test_agrees_with_circuit_evaluation(self):
        rng = np.random.default_rng(6)
        for n in (4, 7, 16, 33, 64, 128):
            x = rng.integers(-50, 50, size=n)
            via_matrix = brent_kung_kron_step(x).tolist()
            via_circuit = evaluate(brent_kung(n), x.tolist(), lambda a, b: a + b)
            assert via_matrix == via_circuit

