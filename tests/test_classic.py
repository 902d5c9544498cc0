"""Baseline generators against hand-counted and closed-form metrics, and
against the list builders they replaced (tests/classic_reference.py)."""

import math

import numpy as np
import pytest

import prefixcircuits as pc
from classic_reference import (
    brent_kung as ref_brent_kung,
    kogge_stone as ref_kogge_stone,
    ladner_fischer as ref_ladner_fischer,
    serial as ref_serial,
    sklansky as ref_sklansky,
)


class TestSerial:
    def test_n1_empty(self):
        assert pc.serial(1).size == 0

    def test_n5(self):
        m = pc.metrics(pc.serial(5))
        assert (m.size, m.depth) == (4, 4)

    def test_validate_37(self):
        assert pc.validate_prefix(pc.serial(37))


class TestSklansky:
    def test_n8(self):
        m = pc.metrics(pc.sklansky(8))
        assert (m.size, m.depth) == (12, 3)

    def test_n2(self):
        m = pc.metrics(pc.sklansky(2))
        assert (m.size, m.depth) == (1, 1)

    def test_n4_tight(self):
        m = pc.metrics(pc.sklansky(4))
        assert (m.size, m.depth) == (4, 2)
        assert m.deficiency == 0

    def test_depth_is_ceil_log2_all_n(self):
        for n in range(1, 513):
            d = pc.metrics(pc.sklansky(n)).depth
            assert d == (math.ceil(math.log2(n)) if n > 1 else 0), n

    def test_fanout_half_n_at_powers(self):
        for k in (2, 3, 4):
            n = 1 << k
            assert pc.metrics(pc.sklansky(n)).max_fanout == n // 2


class TestKoggeStone:
    def test_n8(self):
        m = pc.metrics(pc.kogge_stone(8))
        assert (m.size, m.depth) == (17, 3)

    def test_n2(self):
        m = pc.metrics(pc.kogge_stone(2))
        assert (m.size, m.depth) == (1, 1)

    def test_size_formula_powers_of_two(self):
        for k in range(1, 10):
            n = 1 << k
            m = pc.metrics(pc.kogge_stone(n))
            assert m.size == n * k - n + 1
            assert m.depth == k

    def test_validate_to_128(self):
        for n in range(1, 129):
            assert pc.validate_prefix(pc.kogge_stone(n)), n


class TestBrentKung:
    def test_n8(self):
        m = pc.metrics(pc.brent_kung(8))
        assert (m.size, m.depth) == (11, 5)

    def test_n2(self):
        m = pc.metrics(pc.brent_kung(2))
        assert (m.size, m.depth) == (1, 1)

    def test_formulas_powers_of_two(self):
        for k in range(2, 10):
            n = 1 << k
            m = pc.metrics(pc.brent_kung(n))
            assert m.size == 2 * n - k - 2
            assert m.depth == 2 * k - 1

    def test_n16_gap_measured(self):
        # size 26, depth 7: gap = 26 + 7 - 30 = 3 = log2(16) - 1.  Counted on
        # the construction; the often-quoted "log n + 1" does not match the
        # size/depth pair 2n-log n-2 / 2log n-1 it is stated alongside.
        m = pc.metrics(pc.brent_kung(16))
        assert m.deficiency == 3

    def test_validate_to_128(self):
        for n in range(1, 129):
            assert pc.validate_prefix(pc.brent_kung(n)), n


class TestLadnerFischer:
    def test_depth_8_0(self):
        assert pc.metrics(pc.ladner_fischer(8, 0)).depth == 3

    def test_depth_grid(self):
        # measured depths for n = 8: the k = 3 variant lands at 4, matching
        # the pair-and-fix shape it shares with Brent-Kung under tight levels
        assert [pc.metrics(pc.ladner_fischer(8, k)).depth for k in range(4)] \
            == [3, 4, 4, 4]

    def test_k3_size_matches_brent_kung(self):
        assert pc.metrics(pc.ladner_fischer(8, 3)).size == 11

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            pc.ladner_fischer(8, 4)
        with pytest.raises(ValueError):
            pc.ladner_fischer(8, -1)

    def test_validate_all_legal_k_to_128(self):
        for n in range(1, 129):
            kmax = math.ceil(math.log2(n)) if n > 1 else 0
            for k in range(kmax + 1):
                assert pc.validate_prefix(pc.ladner_fischer(n, k)), (n, k)


def test_all_generators_validate_to_512():
    for n in range(1, 513):
        for gen in (pc.serial, pc.sklansky, pc.kogge_stone, pc.brent_kung):
            assert pc.validate_prefix(gen(n)), (gen.__name__, n)


# -- the array builders against the list builders they replaced ----------------

DIFF_NS = list(range(1, 301)) + [511, 512, 513, 1000, 1024, 4097]
PAIRS = [
    (pc.serial, ref_serial),
    (pc.sklansky, ref_sklansky),
    (pc.kogge_stone, ref_kogge_stone),
    (pc.brent_kung, ref_brent_kung),
]


def _arrays(c):
    return c._lefts, c._rights, c._levels, c._outs


def _kmax(n):
    return math.ceil(math.log2(n)) if n > 1 else 0


class TestMatchesListBuilders:
    """Every gate sits at the id, with the operands and level, the list
    builders gave it."""

    @pytest.mark.parametrize("gen,ref", PAIRS, ids=lambda g: g.__name__)
    def test_generator(self, gen, ref):
        for n in DIFF_NS:
            assert gen(n) == ref(n), n

    def test_ladner_fischer_every_k(self):
        for n in DIFF_NS:
            for k in range(_kmax(n) + 1):
                assert pc.ladner_fischer(n, k) == ref_ladner_fischer(n, k), (n, k)


# literal arrays (lefts, rights, levels, outs) of the list builders
GOLDEN = {
    "sklansky(5)": (lambda: pc.sklansky(5), (
        [0, 5, 3, 6, 6], [1, 2, 4, 3, 7], [1, 2, 1, 3, 3], [0, 5, 6, 8, 9])),
    "kogge_stone(5)": (lambda: pc.kogge_stone(5), (
        [0, 1, 2, 3, 0, 5, 6, 0], [1, 2, 3, 4, 6, 7, 8, 11],
        [1, 1, 1, 1, 2, 2, 2, 3], [0, 5, 9, 10, 12])),
    "brent_kung(6)": (lambda: pc.brent_kung(6), (
        [0, 2, 4, 6, 9, 6, 9], [1, 3, 5, 7, 8, 2, 4], [1, 1, 1, 2, 3, 4, 4],
        [0, 6, 11, 9, 12, 10])),
    "ladner_fischer(7, 1)": (lambda: pc.ladner_fischer(7, 1), (
        [0, 2, 4, 7, 9, 10, 10, 7, 10], [1, 3, 5, 8, 6, 9, 11, 2, 4],
        [1, 1, 1, 2, 2, 3, 3, 2, 3], [0, 7, 14, 10, 15, 12, 13])),
}


@pytest.mark.parametrize("name", GOLDEN)
def test_golden_arrays(name):
    build, want = GOLDEN[name]
    assert [a.tolist() for a in _arrays(build())] == [list(w) for w in want]


# the last entry makes test_tiny_n cover ladner_fischer(1, 0)
ALL_GENERATORS = [pc.serial, pc.sklansky, pc.kogge_stone, pc.brent_kung,
                  lambda n: pc.ladner_fischer(n, 0)]


class TestEdgeCases:
    @pytest.mark.parametrize("n,sizes,outs", [
        (1, [0, 0, 0, 0, 0], [[0]] * 5),
        (2, [1, 1, 1, 1, 1], [[0, 2]] * 5),
        (3, [2, 2, 3, 2, 2], [[0, 3, 4]] * 2 + [[0, 3, 5]] + [[0, 3, 4]] * 2),
    ])
    def test_tiny_n(self, n, sizes, outs):
        for gen, size, out in zip(ALL_GENERATORS, sizes, outs):
            c = gen(n)
            assert (c.size, c._outs.tolist()) == (size, out)
            assert all(a.dtype == np.int64 for a in _arrays(c))

    @pytest.mark.parametrize("n", [0, -1])
    def test_n_below_one(self, n):
        for gen in ALL_GENERATORS + [lambda n: pc.ladner_fischer(n, 1)]:
            with pytest.raises(ValueError, match=r"^n must be >= 1$"):
                gen(n)

    @pytest.mark.parametrize("n,k,text", [
        (8, 4, "k=4 out of range for n=8 (0 <= k <= 3)"),
        (8, -1, "k=-1 out of range for n=8 (0 <= k <= 3)"),
        (1, 1, "k=1 out of range for n=1 (0 <= k <= 0)"),
        (5, 4, "k=4 out of range for n=5 (0 <= k <= 3)"),
    ])
    def test_ladner_fischer_k_range_message(self, n, k, text):
        with pytest.raises(ValueError) as e:
            pc.ladner_fischer(n, k)
        assert str(e.value) == text
