"""Core circuit representation: evaluation, validation, metrics, bounds."""

import importlib
import pkgutil
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import prefixcircuits as pc
from prefixcircuits import CircuitStructureError, PrefixCircuit
from prefixcircuits import core
from prefixcircuits.core import _CHUNK, _forest_roots

# block sizes for the validator's passes over the wire arrays: the
# library's, and small ones so that a few hundred gates span several blocks
BLOCKS = (core._BLOCK, 64, 128, 192)


def _block(size):
    """core._BLOCK set to `size` inside the with-statement, restored after."""
    return mock.patch.object(core, "_BLOCK", size)


def ref_validate(circuit):
    """Independent free-monoid oracle: real list concatenation."""
    outs = pc.evaluate(
        circuit, [[i] for i in range(circuit.n)], lambda a, b: a + b
    )
    return all(outs[i] == list(range(i + 1)) for i in range(circuit.n))


def _interval_check(n, lefts, rights, outs):
    """Reference free-monoid check: the interval loop, one gate at a time."""
    G = len(lefts)
    lo = list(range(n)) + [0] * G
    hi = [i + 1 for i in range(n)] + [0] * G
    for g in range(G):
        l, r = lefts[g], rights[g]
        a, c = lo[l], lo[r]
        if a < 0 or c < 0 or hi[l] != c:
            lo[n + g] = -1
            hi[n + g] = -1
        else:
            lo[n + g] = a
            hi[n + g] = hi[r]
    return all(lo[outs[i]] == 0 and hi[outs[i]] == i + 1 for i in range(n))


def _from_lists(n, lefts, rights, outs):
    """Circuit with tight levels, so any topologically ordered wiring builds."""
    level = [0] * n
    for l, r in zip(lefts, rights):
        level.append(max(level[l], level[r]) + 1)
    return PrefixCircuit.from_arrays(n, lefts, rights, level[n:], outs)


GENERATED = {
    "serial": lambda n, p: pc.serial(n),
    "sklansky": lambda n, p: pc.sklansky(n),
    "kogge-stone": lambda n, p: pc.kogge_stone(n),
    "brent-kung": lambda n, p: pc.brent_kung(n),
    "ladner-fischer": lambda n, p: pc.ladner_fischer(n, p % ((n - 1).bit_length() + 1)),
    "kronecker": lambda n, p: pc.kronecker_circuit(n, 2 + p % 4),
}


@st.composite
def mutated_circuits(draw):
    """A generated circuit (n <= 200) after up to three random mutations."""
    name = draw(st.sampled_from(sorted(GENERATED)))
    n = draw(st.integers(1, 200))
    c = GENERATED[name](n, draw(st.integers(0, 7)))
    lefts, rights, outs = c._lefts.tolist(), c._rights.tolist(), c._outs.tolist()
    for kind in draw(st.lists(st.sampled_from(
            ["rewire", "outputs", "swap", "splice", "dead"]), max_size=3)):
        G = len(lefts)
        if kind == "rewire" and G:
            g = draw(st.integers(0, G - 1))
            side = draw(st.sampled_from([lefts, rights]))
            side[g] = draw(st.integers(0, n + g - 1))
        elif kind == "outputs":
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            if draw(st.booleans()):
                outs[i], outs[j] = outs[j], outs[i]
            else:
                outs[i] = draw(st.integers(0, n + G - 1))
        elif kind == "swap" and G:
            g = draw(st.integers(0, G - 1))
            lefts[g], rights[g] = rights[g], lefts[g]
        elif kind == "splice" and G:
            g = draw(st.integers(0, G - 1))
            into = draw(st.sampled_from([lefts[g], rights[g]]))

            def remap(w):
                return into if w == n + g else w - (w > n + g)

            del lefts[g], rights[g]
            lefts[:] = [remap(w) for w in lefts]
            rights[:] = [remap(w) for w in rights]
            outs[:] = [remap(w) for w in outs]
        elif kind == "dead":
            prev = None
            for _ in range(draw(st.integers(1, 4))):
                w = len(lefts) + n
                a = draw(st.integers(0, w - 1)) if prev is None else prev
                b = draw(st.integers(0, w - 1))
                if draw(st.booleans()):
                    a, b = b, a
                lefts.append(a)
                rights.append(b)
                prev = w
    return _from_lists(n, lefts, rights, outs)


# (circuit, valid): a valid circuit whose one dead gate is misaligned; one
# where that gate sits two peeling rounds below the dead chain's end; and an
# invalid one whose live misaligned gate x0.x0 also feeds a dead gate that
# is both operands of another, so peeling it twice would wrongly free x0.x0
DEAD_GATE_CASES = [
    (_from_lists(4, [0, 4, 5, 3], [1, 2, 3, 0], [0, 4, 5, 6]), True),
    (_from_lists(4, [0, 4, 5, 3, 7, 8], [1, 2, 3, 0, 1, 2], [0, 4, 5, 6]), True),
    (_from_lists(3, [0, 3, 4, 3, 6], [0, 1, 2, 0, 6], [0, 4, 5]), False),
]


class TestEvaluate:
    def test_serial_running_sums(self):
        c = pc.serial(4)
        assert pc.evaluate(c, [1, 2, 3, 4], lambda a, b: a + b) == [1, 3, 6, 10]

    def test_single_input_no_gates(self):
        for gen in (pc.serial, pc.sklansky, pc.kogge_stone, pc.brent_kung):
            c = gen(1)
            assert c.size == 0
            assert pc.evaluate(c, [7], lambda a, b: a + b) == [7]

    def test_concatenation_respects_operand_order(self):
        c = pc.kronecker_circuit(7, 2)
        words = ["a", "b", "c", "d", "e", "f", "g"]
        outs = pc.evaluate(c, words, lambda a, b: a + b)
        assert outs == ["a", "ab", "abc", "abcd", "abcde", "abcdef", "abcdefg"]

    def test_wrong_input_count(self):
        with pytest.raises(ValueError):
            pc.evaluate(pc.serial(3), [1, 2], lambda a, b: a + b)

    def test_matrix_multiply_matches_fold(self):
        rng = np.random.default_rng(7)
        mats = [rng.integers(-3, 4, size=(2, 2)) for _ in range(9)]
        for gen in (pc.sklansky, pc.brent_kung, lambda n: pc.kronecker_circuit(n, 3)):
            c = gen(9)
            got = pc.evaluate(c, mats, lambda a, b: a @ b)
            acc = mats[0]
            for i in range(1, 9):
                acc = acc @ mats[i]
            assert np.array_equal(got[-1], acc)

    @given(st.lists(st.integers(-100, 100), min_size=2, max_size=33),
           st.integers(0, 3))
    @settings(max_examples=80, deadline=None)
    def test_associative_operators_match_serial_fold(self, xs, which):
        cap = 40

        def sat_min(a, b):  # min saturating at a floor; still associative
            return max(min(a, b), -cap)

        ops = [
            (lambda a, b: a + b, xs),
            (max, xs),
            (sat_min, xs),
            (lambda a, b: a @ b,
             [np.array([[v % 3, 1], [0, 1]], dtype=np.int64) for v in xs]),
        ]
        op, vals = ops[which]
        n = len(vals)
        for circuit in (pc.sklansky(n), pc.kogge_stone(n),
                        pc.kronecker_circuit(n, 2), pc.ladner_fischer(n, 1)):
            assert pc.validate_prefix(circuit)
            got = pc.evaluate(circuit, vals, op)
            acc = vals[0]
            want = [acc]
            for v in vals[1:]:
                acc = op(acc, v)
                want.append(acc)
            for g, w in zip(got, want):
                assert np.array_equal(g, w)


class TestValidatePrefix:
    def test_serial_true(self):
        assert pc.validate_prefix(pc.serial(5))

    def test_swapped_outputs_false(self):
        c = pc.serial(5)
        outs = c._outs[[0, 1, 3, 2, 4]]
        broken = PrefixCircuit.from_arrays(5, c._lefts, c._rights, c._levels, outs)
        assert not pc.validate_prefix(broken)

    def test_interval_trick_matches_real_concatenation(self):
        cases = [pc.serial(9), pc.sklansky(11), pc.kogge_stone(13),
                 pc.brent_kung(10), pc.ladner_fischer(12, 1),
                 pc.kronecker_circuit(17, 3)]
        # and a broken one
        c = pc.serial(6)
        outs = c._outs[[0, 4, 2, 3, 1, 5]]
        cases.append(PrefixCircuit.from_arrays(6, c._lefts, c._rights, c._levels, outs))
        for circuit in cases:
            assert pc.validate_prefix(circuit) == ref_validate(circuit)

    @given(mutated_circuits())
    @example(DEAD_GATE_CASES[0][0])
    @example(DEAD_GATE_CASES[1][0])
    @example(DEAD_GATE_CASES[2][0])
    @settings(max_examples=400, deadline=None)
    def test_matches_interval_loop(self, circuit):
        want = _interval_check(circuit.n, circuit._lefts.tolist(),
                               circuit._rights.tolist(), circuit._outs.tolist())
        for block in BLOCKS:
            with _block(block):
                assert pc.validate_prefix(circuit) == want

    @pytest.mark.parametrize("circuit, valid", DEAD_GATE_CASES)
    def test_dead_gates_hand_cases(self, circuit, valid):
        assert pc.validate_prefix(circuit) == ref_validate(circuit) == valid

    def test_structural_error_names_gate(self):
        with pytest.raises(CircuitStructureError, match="gate 0"):
            PrefixCircuit.from_arrays(2, [2 + 5], [0], [1], [0, 1])  # reads gate 5

    def test_level_order_enforced(self):
        with pytest.raises(CircuitStructureError, match="level"):
            # gate 1, at level 1, reads gate 0 (wire 3), at level 2
            PrefixCircuit.from_arrays(3, [0, 3], [1, 2], [2, 1], [0, 3, 4])

    @pytest.mark.parametrize("arrays, name", [
        (([0.9], [1.2], [1.7], [0, 2.5]), "lefts"),  # would truncate to serial(2)
        (([0], [1], [1], np.array([False, True])), "outs"),
        (([0], [1], [2 ** 70], [0, 2]), "levels"),  # an object array
    ], ids=["float", "bool", "object"])
    def test_non_integer_array_rejected(self, arrays, name):
        with pytest.raises(CircuitStructureError, match=rf"^{name}: expected integers"):
            PrefixCircuit.from_arrays(2, *arrays)

    @pytest.mark.parametrize("n, arrays", [
        (2.5, ([0], [1], [1], [0, 2])),  # would truncate to serial(2)
        (True, ([], [], [], [0])),  # would read as serial(1)
        (2.0, ([0], [1], [1], [0, 2])),
        ("2", ([0], [1], [1], [0, 2])),
        (np.True_, ([], [], [], [0])),
    ], ids=["float", "bool", "integral-float", "str", "numpy-bool"])
    def test_non_integer_n_rejected(self, n, arrays):
        with pytest.raises(CircuitStructureError,
                           match=f"^n: expected an integer, got {re.escape(repr(n))}$"):
            PrefixCircuit.from_arrays(n, *arrays)

    def test_numpy_integer_n_accepted(self):
        c = PrefixCircuit.from_arrays(np.int64(2), [0], [1], [1], [0, 2])
        assert c == pc.serial(2) and type(c.n) is int

    def test_empty_arrays_accepted(self):
        # numpy reads an empty list as float64; it holds no value to misread
        assert PrefixCircuit.from_arrays(1, [], [], [], [0]) == pc.serial(1)

    def test_checked_arrays_read_only(self):
        # from_arrays keeps an int64 input itself: a write after the check
        # (rights[0] = 0) would turn this valid circuit invalid without a word
        arrays = [np.array(a, dtype=np.int64) for a in ([0], [1], [1], [0, 2])]
        c = PrefixCircuit.from_arrays(2, *arrays)
        for a in arrays + [c._lefts, pc.sklansky(8)._rights]:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0
        assert pc.validate_prefix(c)
        # a rejected circuit keeps nothing, and leaves its inputs writeable
        arrays = [np.array(a, dtype=np.int64) for a in ([0], [1], [1], [0, 9])]
        with pytest.raises(CircuitStructureError):
            PrefixCircuit.from_arrays(2, *arrays)
        assert all(a.flags.writeable for a in arrays)


def _roots_loop(n, parent):
    """Reference forest roots: one gate at a time, in topological order."""
    root = list(range(n)) + [0] * len(parent)
    for g, p in enumerate(parent.tolist()):
        root[n + g] = root[p]
    return root


@st.composite
def forests(draw):
    """(n, parent) built from runs: long chains, fans off one wire, and
    single gates that point at a chunk's first gate or the wire below it."""
    n = draw(st.integers(1, 5))
    parent = []
    for kind, size in draw(st.lists(st.tuples(
            st.sampled_from(["chain", "fan", "edge", "any"]), st.integers(1, 150)),
            max_size=12)):
        w = n + len(parent)
        if kind == "chain":
            parent += range(w - 1, w - 1 + size)
        elif kind == "fan":
            parent += [w - 1] * size
        elif kind == "edge":
            first = n + _CHUNK * draw(st.integers(0, (w - n) // _CHUNK))
            parent.append(draw(st.sampled_from([first - 1, min(first, w - 1)])))
        else:
            parent.append(draw(st.integers(0, w - 1)))
    return n, np.array(parent, dtype=np.int64)


ROOT_GENERATORS = {**GENERATED, "reblocked": lambda n, p: pc.reblocked_circuit(n, 2 + p % 4)}


class TestForestRoots:
    @given(forests())
    @settings(max_examples=150, deadline=None)
    def test_matches_loop(self, forest):
        n, parent = forest
        want = _roots_loop(n, parent)
        for block in BLOCKS:
            with _block(block):
                assert _forest_roots(n, parent).tolist() == want

    @pytest.mark.parametrize("G", [0, 1, 63, 64, 65, 127, 128, 129, 5000])
    def test_chunk_sizes(self, G):
        rng = np.random.default_rng(G)
        wires = np.arange(1, G + 1)
        chain = wires - 1
        anywhere = (rng.random(G) * wires).astype(np.int64)
        for parent in (chain, anywhere):
            want = _roots_loop(1, parent)
            for block in BLOCKS:
                with _block(block):
                    assert _forest_roots(1, parent).tolist() == want

    def test_blocks_of_library_size(self):
        # a chain and a random forest over three blocks of core._BLOCK gates
        G = 2 * core._BLOCK + 1000
        rng = np.random.default_rng(21)
        wires = np.arange(3, G + 3)
        chain = np.concatenate(([1], wires[:-1]))
        anywhere = (rng.random(G) * wires).astype(np.int64)
        for parent in (chain, anywhere):
            assert _forest_roots(3, parent).tolist() == _roots_loop(3, parent)

    @pytest.mark.parametrize("name", sorted(ROOT_GENERATORS))
    def test_generators(self, name):
        for n in (1, 2, 63, 64, 65, 1000):
            c = ROOT_GENERATORS[name](n, n)
            for parent in (c._lefts, c._rights):
                assert _forest_roots(n, parent).tolist() == _roots_loop(n, parent)


# two faults at different gates of sklansky(8) (n = 8, gates 0..11 on wires
# 8..19), as (array, index, value) edits: the check reports by kind, not by
# gate (a level below 1, then per side (lefts first) a dangling wire, an
# operand that does not precede its gate, a level-order break; then a
# dangling output), so the message names the fault whose kind comes first
TWO_FAULTS = [
    ((("lefts", 1, -1), ("rights", 9, 18)), "gate 1: dangling wire -1"),
    ((("lefts", 9, 25), ("rights", 3, 12)), "gate 9: dangling wire 25"),
    ((("lefts", 9, 16), ("rights", 3, -1)), "gate 9: operand gate 8 violates level order"),
    ((("lefts", 5, 12), ("rights", 9, 25)), "gate 5: operand gate 4 violates level order"),
    ((("lefts", 5, -1), ("outs", 6, -2)), "gate 5: dangling wire -1"),
    ((("lefts", 9, 25), ("outs", 2, 20)), "gate 9: dangling wire 25"),
    ((("levels", 9, 0), ("rights", 1, -1)), "gate 9: level must be >= 1"),
    ((("levels", 3, 0), ("rights", 9, 25)), "gate 3: level must be >= 1"),
    ((("lefts", 3, 12), ("rights", 9, 16)), "gate 3: operand gate 4 does not precede it"),
    ((("lefts", 9, 18), ("rights", 5, 12)), "gate 9: operand gate 10 does not precede it"),
    ((("outs", 6, -2), ("rights", 5, 14)), "gate 5: operand gate 6 does not precede it"),
    ((("outs", 2, 20), ("rights", 9, 18)), "gate 9: operand gate 10 does not precede it"),
    ((("lefts", 1, 10), ("levels", 9, 0)), "gate 9: level must be >= 1"),
    ((("lefts", 9, 18), ("levels", 3, 0)), "gate 3: level must be >= 1"),
    ((("outs", 6, -2), ("rights", 3, 10)), "gate 3: operand gate 2 violates level order"),
    ((("outs", 2, 20), ("rights", 9, 16)), "gate 9: operand gate 8 violates level order"),
    ((("lefts", 5, 12), ("levels", 9, 0)), "gate 9: level must be >= 1"),
    ((("lefts", 9, 16), ("levels", 1, 0)), "gate 1: level must be >= 1"),
    ((("levels", 9, 0), ("outs", 2, 20)), "gate 9: level must be >= 1"),
    ((("levels", 3, 0), ("outs", 6, -2)), "gate 3: level must be >= 1"),
    ((("lefts", 9, 25), ("rights", 1, -1)), "gate 9: dangling wire 25"),
    ((("lefts", 5, -1), ("rights", 9, 25)), "gate 5: dangling wire -1"),
    ((("lefts", 9, 18), ("rights", 1, 10)), "gate 9: operand gate 10 does not precede it"),
    ((("lefts", 5, 14), ("rights", 9, 18)), "gate 5: operand gate 6 does not precede it"),
    ((("lefts", 9, 16), ("rights", 1, 8)), "gate 9: operand gate 8 violates level order"),
    ((("lefts", 5, 12), ("rights", 9, 16)), "gate 5: operand gate 4 violates level order"),
    ((("lefts", 5, -1), ("rights", 5, 14)), "gate 5: dangling wire -1"),
    ((("lefts", 5, 14), ("rights", 5, -1)), "gate 5: operand gate 6 does not precede it"),
    ((("lefts", 3, 12), ("lefts", 9, 20)), "gate 9: dangling wire 20"),
    ((("lefts", 1, 8), ("lefts", 9, 18)), "gate 9: operand gate 10 does not precede it"),
    ((("rights", 1, 8), ("rights", 9, -1)), "gate 9: dangling wire -1"),
    ((("rights", 3, 12), ("rights", 11, 20)), "gate 11: dangling wire 20"),
    ((("lefts", 11, 19), ("rights", 0, 20)), "gate 11: operand gate 11 does not precede it"),
]


class TestStructureCheck:
    @pytest.mark.parametrize("faults, message", TWO_FAULTS)
    def test_first_fault_reported(self, faults, message):
        base = pc.sklansky(8)
        arrays = {name: getattr(base, "_" + name).copy()
                  for name in ("lefts", "rights", "levels", "outs")}
        for name, i, value in faults:
            arrays[name][i] = value
        # with blocks of 4 of the 12 gates, two faults at different gates
        # fall in different blocks; the message must not depend on that
        for block in (core._BLOCK, 4):
            with _block(block), pytest.raises(CircuitStructureError) as err:
                PrefixCircuit.from_arrays(8, *arrays.values())
            assert str(err.value) == message

    @pytest.mark.parametrize("arrays, message", [
        # a one-gate circuit with a second level once read as depth 5
        (([0], [1], [1, 5], [0, 2]), "levels: expected 1 entries, got 2"),
        # a phantom right operand once counted in max_fanout
        (([0], [1, 0], [1], [0, 2]), "rights: expected 1 entries, got 2"),
        (([0, 2], [1], [1, 2], [0, 3]), "rights: expected 2 entries, got 1"),
        (([[0]], [1], [1], [0, 2]), "lefts: expected a 1-D array"),
        (([0], [1], [1], [[0, 2]]), "outs: expected a 1-D array"),
        # the shape is checked before any wire: gate 0's 9 dangles too
        (([9], [1], [1, 2], [0, 2]), "levels: expected 1 entries, got 2"),
    ], ids=["levels-long", "rights-long", "rights-short", "lefts-2d", "outs-2d",
            "shape-first"])
    def test_array_shapes_rejected(self, arrays, message):
        with pytest.raises(CircuitStructureError, match=f"^{re.escape(message)}$"):
            PrefixCircuit.from_arrays(2, *arrays)


def test_peak_memory_bounded():
    """Temporaries above the circuit's own arrays, in units of one wire array
    of 8(n + G) bytes, plus 64 bytes per gate of a block: at most 2 units
    for validate_prefix (a root array and a G-length gather) and 1.5 for the
    structure check (the wire levels).  The whole-array passes before the
    blocks took 3.4 and 2.6 units.  tracemalloc peaks repeat exactly."""
    c = pc.kronecker_circuit(500_000, 48)
    unit, per_block = 8 * (c.n + c.size), 64 * core._BLOCK
    arrays = (c._lefts, c._rights, c._levels, c._outs)
    for name, call, units in (
            ("validate_prefix", lambda: pc.validate_prefix(c), 2.0),
            ("from_arrays", lambda: PrefixCircuit.from_arrays(c.n, *arrays), 1.5)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= units * unit + per_block, (name, peak / unit)


class TestMetrics:
    def test_serial_5_by_hand(self):
        # chain of 4 gates: size 4, depth 4, every wire feeds at most one gate
        m = pc.metrics(pc.serial(5))
        assert (m.size, m.depth, m.max_fanout, m.deficiency) == (4, 4, 1, 0)
        assert m.valid

    def test_sklansky_8(self):
        m = pc.metrics(pc.sklansky(8))
        assert (m.size, m.depth) == (12, 3)

    def test_brent_kung_8(self):
        m = pc.metrics(pc.brent_kung(8))
        assert (m.size, m.depth) == (11, 5)

    def test_fanout_output_convention(self):
        # serial: internal wires feed exactly one gate; counting the
        # designated outputs adds one edge per tap
        c = pc.serial(5)
        assert pc.metrics(c).max_fanout == 1
        assert pc.metrics(c, count_outputs=True).max_fanout == 2

    def test_reorder_within_level_invariant(self):
        c = pc.kronecker_circuit(12, 3)
        n, G, levels = c.n, c.size, c._levels
        # swap two final-layer gates (same level), renumber ids, remap wires
        a, b = np.flatnonzero(levels == levels.max())[:2]
        perm = np.arange(G)
        perm[[a, b]] = perm[[b, a]]  # perm[new_pos] = old_id
        wire = np.arange(n + G)
        wire[n + perm] = n + np.arange(G)  # old wire id -> new
        c2 = PrefixCircuit.from_arrays(n, wire[c._lefts[perm]], wire[c._rights[perm]],
                                       levels[perm], wire[c._outs])
        assert c2 != c and pc.metrics(c2) == pc.metrics(c)


class TestSnirGap:
    def test_brent_kung_8_measured(self):
        # (11 + 5) - 14 = 2; the suboptimal pair-and-fix construction
        m = pc.metrics(pc.brent_kung(8))
        assert m.deficiency == 2

    def test_kronecker_zero(self):
        assert pc.metrics(pc.kronecker_circuit(7, 2)).deficiency == 0

    def test_serial_always_zero(self):
        for n in (2, 3, 17, 100):
            assert pc.metrics(pc.serial(n)).deficiency == 0

    def test_nonnegative_for_all_generators(self):
        for n in range(2, 40):
            for c in (pc.serial(n), pc.sklansky(n), pc.kogge_stone(n),
                      pc.brent_kung(n), pc.kronecker_circuit(n, 2)):
                assert pc.metrics(c).deficiency >= 0


class TestFibDepthLowerBound:
    def test_small_values(self):
        # F(0)=0, F(1)=1 convention: min{t : F(t) >= n+1} - 3
        assert pc.fib_depth_lower_bound(1) == 0
        assert pc.fib_depth_lower_bound(2) == 1
        assert pc.fib_depth_lower_bound(3) == 2
        assert pc.fib_depth_lower_bound(4) == 2  # <= 2: depth-2 tight circuit exists
        assert pc.fib_depth_lower_bound(7) == 3

    def test_monotone_to_1000(self):
        vals = [pc.fib_depth_lower_bound(n) for n in range(1, 1001)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_tight_at_small_optimal_circuits(self):
        # sklansky(4) is a depth-2 circuit meeting the size+depth bound, so
        # the calibrated lower bound cannot exceed 2 at n = 4
        m = pc.metrics(pc.sklansky(4))
        assert m.deficiency == 0 and m.depth == 2
        assert pc.fib_depth_lower_bound(4) <= 2


def test_exports_resolve_once():
    # a name dropped from the package but left in __all__ breaks `import *`
    assert [name for name in pc.__all__ if not hasattr(pc, name)] == []
    assert len(set(pc.__all__)) == len(pc.__all__)


def test_no_process_wide_cache():
    # a functools cache on a module-level function is process-wide state
    # with no size limit; every function of every module is checked
    modules = [importlib.import_module(f"prefixcircuits.{m.name}")
               for m in pkgutil.iter_modules(pc.__path__)]
    cached = [f"{mod.__name__}.{name}" for mod in [pc, *modules]
              for name, obj in vars(mod).items() if hasattr(obj, "cache_info")]
    assert len(modules) >= 7 and cached == []
