"""Reversible adder: construction, simulation, resources, verification."""

import random
import re
import tracemalloc
from collections import Counter
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefixcircuits import qadder
from prefixcircuits.core import _forest_roots
from prefixcircuits.kronecker import kronecker_depth_bound, reblocked_circuit
from prefixcircuits.qadder import (
    CNOT,
    NOT,
    TOFFOLI,
    AdderResources,
    Gate,
    LayerOverlapError,
    QuantumCircuit,
    build_adder,
    estimate_resources,
    netlist,
    resources,
    simulate,
    verify_adder,
)

import qadder_reference


def run_add(circuit, a, b):
    n = circuit.n
    state = [0] * circuit.n_qubits
    for i in range(n):
        state[circuit.registers["a"][i]] = (a >> i) & 1
        state[circuit.registers["b"][i]] = (b >> i) & 1
    out = simulate(circuit, state)
    s = sum(out[circuit.registers["b"][i]] << i for i in range(n))
    carry = out[circuit.registers["g"][n - 1]]
    return s, carry, out


class TestGateSemantics:
    def test_toffoli_truth(self):
        c = QuantumCircuit({"q": [0, 1, 2]}, [Gate(TOFFOLI, (0, 1, 2), None)])
        assert simulate(c, [1, 1, 0])[2] == 1
        assert simulate(c, [1, 0, 1])[2] == 1
        assert simulate(c, [1, 1, 1])[2] == 0

    def test_not_and_cnot(self):
        c = QuantumCircuit({"q": [0, 1]}, [Gate(NOT, (0,), None),
                                           Gate(CNOT, (0, 1), None)])
        assert simulate(c, [0, 0]) == [1, 1]

    def test_wrong_length_rejected(self):
        c = QuantumCircuit({"q": [0, 1]}, [Gate(CNOT, (0, 1), None)])
        for initial in ([1], [1, 0, 0]):
            with pytest.raises(ValueError, match=r"^expected 2 qubit values, got \d$"):
                simulate(c, initial)

    @pytest.mark.parametrize("value", [2, -1, 0.7, "1"])
    def test_non_bit_value_rejected(self, value):
        # these were read as int(v) & 1, so 2 ran as 0 and -1 as 1
        with pytest.raises(ValueError, match=rf"^qubit 3: expected 0 or 1, got {value!r}$"):
            simulate(build_adder(2, 2), [0, 1, 1, value, 0, 0])


class TestAdderSmall:
    def test_half_adder(self):
        c = build_adder(1, 2)
        kinds = [g.kind for g in c.gates]
        assert kinds == [TOFFOLI, CNOT]
        for a in (0, 1):
            for b in (0, 1):
                s, carry, _ = run_add(c, a, b)
                assert (s, carry) == ((a + b) & 1, (a + b) >> 1)

    def test_wraparound_n3(self):
        c = build_adder(3, 2)
        s, carry, _ = run_add(c, 7, 1)
        assert s == 0 and carry == 1

    def test_5_plus_9_mod_16(self):
        s, _, _ = run_add(build_adder(4, 2), 5, 9)
        assert s == 14

    def test_a_register_preserved_and_scratch_clear(self):
        c = build_adder(6, 3)
        _, _, out = run_add(c, 41, 22)
        assert [out[q] for q in c.registers["a"]] == [(41 >> i) & 1 for i in range(6)]
        for name, qs in c.registers.items():
            if name in ("a", "b", "g"):
                continue
            assert all(out[q] == 0 for q in qs), name


class TestVerify:
    @pytest.mark.parametrize("s", (2, 3))
    @pytest.mark.parametrize("n", (1, 2, 3, 4, 5, 6))
    def test_exhaustive_small(self, n, s):
        report = verify_adder(n, s)
        assert report.ok and report.exhaustive
        assert report.cases == 1 << (2 * n)

    def test_random_mid(self):
        report = verify_adder(20, 3, trials=500)
        assert report.ok and not report.exhaustive and report.cases == 500

    def test_zero_random_trials_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            verify_adder(20, 3, trials=0)
        assert verify_adder(3, 2, trials=0).exhaustive  # trials unused

    @pytest.mark.parametrize("n", [3, 20])
    @pytest.mark.parametrize("trials", [True, 2.5, "10", None])
    def test_non_integer_trials_rejected(self, n, trials):
        # True once ran one case and reported cases=True; 2.5 raised TypeError
        with pytest.raises(ValueError, match=r"^trials: expected an integer"):
            verify_adder(n, 2, trials=trials)

    def test_corrupted_circuit_yields_counterexample(self):
        c = build_adder(4, 2)
        dropped = next(i for i, g in enumerate(c.gates)
                       if g.toffoli_layer and g.toffoli_layer.endswith("fin"))
        broken = QuantumCircuit(c.registers, c.gates[:dropped] + c.gates[dropped + 1:],
                                c.n, c.s)
        report = verify_adder(4, 2, circuit=broken)
        assert not report.ok
        n, s, a, b, got_sum, got_carry = report.counterexample
        assert (got_sum, got_carry) != (((a + b) % 16), (a + b) >> 4)

    def test_circuit_of_another_width_rejected(self):
        # too narrow: the a and b registers cannot hold n bits; too wide:
        # the circuit's top sum bit and its carry-out would go unchecked
        for n, width in ((5, 4), (11, 12)):
            with pytest.raises(ValueError, match="registers a, b, g"):
                verify_adder(n, 2, trials=10, circuit=build_adder(width, 2))
        c = build_adder(11, 2)
        for name in "abg":  # one register short
            short = dict(c.registers, **{name: c.registers[name][:-1]})
            with pytest.raises(ValueError, match="registers a, b, g"):
                verify_adder(11, 2, trials=10, circuit=QuantumCircuit(short, c.gates))

    def test_gate_outside_registers_rejected(self):
        # with z left out of the registers, n_qubits ends below the copy pool
        c = build_adder(12, 3)
        regs = {name: qs for name, qs in c.registers.items() if name != "z"}
        short = QuantumCircuit(regs, c.gates, 12, 3)
        nq = short.n_qubits
        first = next(i for i, g in enumerate(c.gates) if max(g.qubits) >= nq)
        q = next(q for q in c.gates[first].qubits if q >= nq)
        want = rf"^gate {first} \(.*\) uses qubit {q}, outside 0\.\.{nq - 1}$"
        with pytest.raises(ValueError, match=want):
            verify_adder(12, 3, trials=5, circuit=short)
        with pytest.raises(ValueError, match=want):
            simulate(short, [0] * nq)

    def test_unknown_kind_and_negative_qubit_rejected(self):
        # each extra gate comes twice: applied as a NOT or on the qubit that
        # Python's indexing wraps -1 to, the pair would cancel and pass
        c = build_adder(4, 2)
        b0, nq, g = c.registers["b"][0], c.n_qubits, len(c.gates)
        for extra, want in (
            (Gate("FOO", (b0,), None), r"^unknown gate kind 'FOO'$"),
            (Gate(CNOT, (0, -1), None),
             rf"^gate {g} \(CNOT on \(0, -1\)\) uses qubit -1, outside 0\.\.{nq - 1}$"),
        ):
            bad = QuantumCircuit(c.registers, [*c.gates, extra, extra], c.n, c.s)
            with pytest.raises(ValueError, match=want):
                verify_adder(4, 2, circuit=bad)
            with pytest.raises(ValueError, match=want):
                simulate(bad, [0] * nq)
        tiny = QuantumCircuit({"a": [0, 1]}, [Gate(CNOT, (0, -1), None)])
        with pytest.raises(ValueError, match=r"^gate 0 .* uses qubit -1, outside 0\.\.1$"):
            simulate(tiny, [1, 0])

    def test_random_counterexample_is_first_failing_pair(self):
        # a lost g-init Toffoli leaves g[i] clear where a[i] = b[i] = 1, so a
        # pair fails with probability 1/4 and the first failure moves with
        # the seed; the report must name the first failing pair of the
        # seed's stream, which pins the bit order of the packing
        n, trials = 64, 200
        c = build_adder(n, 2)
        broken = _without(c, next(k for k, g in enumerate(c.gates)
                                  if g.toffoli_layer == "g-init"
                                  and g.qubits[2] == c.registers["g"][37]))
        firsts = []
        for seed in range(16):
            for t, (a, b) in enumerate(_stream_pairs(n, trials, seed)):
                got_sum, got_carry, failed = _replay(broken, a, b)
                if failed:
                    break
            report = verify_adder(n, 2, trials=trials, seed=seed, circuit=broken)
            assert not report.ok and report.cases == trials, seed
            assert report.counterexample == (n, 2, a, b, got_sum, got_carry), (seed, t)
            firsts.append(t)
        # failures past the first byte of trials, so the trial index is pinned
        assert max(firsts) >= 8, firsts

    @pytest.mark.parametrize("s", (2, 3, 4))
    def test_exhaustive_counterexample_is_first_failing_pair(self, s):
        # every single-Toffoli deletion: the report names the first failing
        # case in enumeration order (a = t mod 2**n, b = t >> n), and its
        # sum and carry are what the circuit gives on that pair
        for n in range(1, 6):
            c = build_adder(n, s)
            mask = (1 << n) - 1
            for k in (k for k, g in enumerate(c.gates) if g.kind == TOFFOLI):
                broken = _without(c, k)
                first = None
                for t in range(1 << (2 * n)):
                    got_sum, got_carry, failed = _replay(broken, t & mask, t >> n)
                    if failed:
                        first = (t & mask, t >> n, got_sum, got_carry)
                        break
                report = verify_adder(n, s, circuit=broken)
                assert report.exhaustive and report.ok == (first is None), (n, k)
                if first is not None:
                    assert report.counterexample == (n, s, *first), (n, k)

    @pytest.mark.parametrize("n", (11, 64, 65, 300))
    def test_random_counterexample_replays(self, n):
        # g-init deletion at bit i: a pair fails iff bit i of both a and b is
        # set, and then the carry into bit i + 1 is lost, so the sum is wrong
        i = n // 2
        c = build_adder(n, 2)
        broken = _without(c, next(k for k, g in enumerate(c.gates)
                                  if g.toffoli_layer == "g-init"
                                  and g.qubits[2] == c.registers["g"][i]))
        for trials in (1, 63, 64, 65, 500):
            for seed in range(4):
                pairs = _stream_pairs(n, trials, seed)
                failing = [(a, b) for a, b in pairs if a >> i & b >> i & 1]
                report = verify_adder(n, 2, trials=trials, seed=seed, circuit=broken)
                assert report.ok == (not failing), (trials, seed)
                if failing:
                    _, _, a, b, got_sum, got_carry = report.counterexample
                    assert (a, b) == failing[0], (trials, seed)
                    assert _replay(broken, a, b)[:2] == (got_sum, got_carry)
                    assert (got_sum, got_carry) != ((a + b) % (1 << n), (a + b) >> n)

    def test_random_counterexample_past_first_word(self):
        # an L2 prop deletion fails rarely enough that the seed's first
        # failing trial lies beyond the first 64, across a word boundary
        n, trials = 64, 500
        c = build_adder(n, 2)
        broken = _without(c, next(k for k, g in enumerate(c.gates)
                                  if g.toffoli_layer == "L2 prop 1"))
        for seed in (0, 1):
            pairs = _stream_pairs(n, trials, seed)
            report = verify_adder(n, 2, trials=trials, seed=seed, circuit=broken)
            _, _, a, b, got_sum, got_carry = report.counterexample
            t = pairs.index((a, b))
            assert t >= 64, (seed, t)
            assert not any(_replay(broken, *pair)[2] for pair in pairs[:t])
            assert _replay(broken, a, b) == (got_sum, got_carry, True)


def _without(c, k):
    """`c` with its gate k deleted."""
    return QuantumCircuit(c.registers, c.gates[:k] + c.gates[k + 1:], c.n, c.s)


def _replay(circuit, a, b):
    """(sum, carry-out, failed) of one simulated addition; failed if the sum
    or carry is wrong, a is changed, or a scratch qubit is left set."""
    got_sum, got_carry, out = run_add(circuit, a, b)
    n = circuit.n
    failed = ((got_sum, got_carry) != ((a + b) % (1 << n), (a + b) >> n)
              or sum(out[q] << i for i, q in enumerate(circuit.registers["a"])) != a
              or any(out[q] for name, qs in circuit.registers.items()
                     if name not in ("a", "b", "g") for q in qs))
    return got_sum, got_carry, failed


def _stream_pairs(n, trials, seed):
    """The (a, b) of each trial of ``random.Random(seed)``'s stream: n bit
    planes for a, then n for b, with trial t's pair read from bit t."""
    rng = random.Random(seed)
    planes = [rng.getrandbits(trials) for _ in range(2 * n)]
    return [tuple(sum((planes[base + i] >> t & 1) << i for i in range(n)) for base in (0, n))
            for t in range(trials)]


def _packed_by_bit_loop(pairs, n):
    """Packed a and b registers, bit t of plane i set per bit i of pair t."""
    a_bits = [0] * n
    b_bits = [0] * n
    for t, (av, bv) in enumerate(pairs):
        bit = 1 << t
        for i in range(n):
            if (av >> i) & 1:
                a_bits[i] |= bit
            if (bv >> i) & 1:
                b_bits[i] |= bit
    return a_bits, b_bits


class TestPacking:
    def test_matches_bit_loop(self, monkeypatch):
        # record the packed a and b registers that verify_adder hands to the
        # gate simulation, and compare them with the seed's trials packed by
        # the per-bit loop: a's planes go to the a register, b's to b, and
        # bit t is trial t
        seen = []
        run = qadder._batch_run

        def spy(gates, vals, all_ones):
            seen.append(list(vals))
            return run(gates, vals, all_ones)

        monkeypatch.setattr(qadder, "_batch_run", spy)
        for n in (11, 12, 15, 16, 17, 63, 64, 65, 300, 1024):
            c = build_adder(n, 2)
            for trials in (1, 7, 8, 63, 64, 65, 500):
                for seed in (0, 1, 77):
                    seen.clear()
                    report = verify_adder(n, 2, trials=trials, seed=seed, circuit=c)
                    assert report.ok and report.cases == trials
                    a_bits = [seen[0][q] for q in c.registers["a"]]
                    b_bits = [seen[0][q] for q in c.registers["b"]]
                    want = _packed_by_bit_loop(_stream_pairs(n, trials, seed), n)
                    assert (a_bits, b_bits) == want, (n, trials, seed)

    def test_batches_are_plane_slices(self, monkeypatch):
        # past 2**_BATCH trials each batch's a and b registers get bits
        # lo..lo+2**_BATCH-1 of the seed's planes, the last batch the rest
        seen = []
        run = qadder._batch_run

        def spy(gates, vals, all_ones):
            seen.append((list(vals), all_ones))
            return run(gates, vals, all_ones)

        monkeypatch.setattr(qadder, "_batch_run", spy)
        n, size = 11, 1 << qadder._BATCH
        c = build_adder(n, 2)
        for trials in (size + 1, 2 * size + 3):
            seen.clear()
            assert verify_adder(n, 2, trials=trials, seed=5, circuit=c).ok
            rng = random.Random(5)
            planes = [rng.getrandbits(trials) for _ in range(2 * n)]
            assert [ones.bit_length() for _, ones in seen] == [
                min(size, trials - lo) for lo in range(0, trials, size)]
            for lo, (vals, ones) in zip(range(0, trials, size), seen, strict=True):
                got = [vals[q] for q in (*c.registers["a"], *c.registers["b"])]
                assert got == [p >> lo & ones for p in planes], (trials, lo)


def _first_trial(n, trials, seed, a, b):
    """Index of the first trial of the seed's stream whose pair is (a, b)."""
    rng = random.Random(seed)
    planes = [rng.getrandbits(trials) for _ in range(2 * n)]
    match = (1 << trials) - 1
    for i, p in enumerate(planes):
        match &= p if (a, b)[i >= n] >> (i % n) & 1 else ~p
    return (match & -match).bit_length() - 1


class TestBatches:
    """verify_adder runs its cases in batches of 2**_BATCH, stopping at the
    first failing batch; its report is the one the all-cases-at-once
    reference gives, a first failure past the first batch included."""

    @pytest.mark.parametrize("s", (2, 3, 4))
    @pytest.mark.parametrize("n", (9, 10))
    def test_exhaustive_equals_unbatched(self, n, s):
        # the intact adder and every single-Toffoli deletion
        c = build_adder(n, s)
        for k in (None, *(k for k, g in enumerate(c.gates) if g.kind == TOFFOLI)):
            circuit = c if k is None else _without(c, k)
            want = qadder_reference.verify_unbatched(n, s, circuit=circuit)
            assert verify_adder(n, s, circuit=circuit) == want, k
            assert want.ok == (k is None), k

    @pytest.mark.parametrize("s", (2, 3, 4))
    def test_exhaustive_failure_past_first_batch(self, s):
        # without the g-init Toffoli at bit 7 a pair fails iff a7 = b7 = 1;
        # b7 is bit 17 of the case index, so the first failure is case
        # 2**17 + 2**7, in the second batch
        n = 10
        c = build_adder(n, s)
        broken = _without(c, next(k for k, g in enumerate(c.gates)
                                  if g.toffoli_layer == "g-init"
                                  and g.qubits[2] == c.registers["g"][7]))
        report = verify_adder(n, s, circuit=broken)
        _, _, a, b, got_sum, got_carry = report.counterexample
        assert a + (b << n) == (1 << 17) + (1 << 7) >= 1 << qadder._BATCH
        assert _replay(broken, a, b) == (got_sum, got_carry, True)
        assert report == qadder_reference.verify_unbatched(n, s, circuit=broken)

    @pytest.mark.parametrize("trials", (2**17 - 1, 2**17, 2**17 + 1, 3 * 2**17 + 5))
    def test_random_equals_unbatched(self, trials):
        # the intact adder and its L3-L5 Toffoli deletions, which fail rarely
        n = 64
        c = build_adder(n, 2)
        for k in (None, *(k for k, g in enumerate(c.gates)
                          if g.kind == TOFFOLI and re.match(r"L[3-5] ", g.toffoli_layer))):
            circuit = c if k is None else _without(c, k)
            want = qadder_reference.verify_unbatched(n, 2, trials=trials, seed=2,
                                                     circuit=circuit)
            assert verify_adder(n, 2, trials=trials, seed=2, circuit=circuit) == want, k

    def test_random_failure_past_first_batch(self):
        # seed 2 first fails the first L3 prop 1 deletion at trial 153027
        n, trials, seed = 64, 3 * 2**17 + 5, 2
        c = build_adder(n, 2)
        broken = _without(c, next(k for k, g in enumerate(c.gates)
                                  if g.toffoli_layer == "L3 prop 1"))
        report = verify_adder(n, 2, trials=trials, seed=seed, circuit=broken)
        _, _, a, b, got_sum, got_carry = report.counterexample
        assert _first_trial(n, trials, seed, a, b) == 153027 >= 1 << qadder._BATCH
        assert _replay(broken, a, b) == (got_sum, got_carry, True)
        assert report == qadder_reference.verify_unbatched(n, 2, trials=trials, seed=seed,
                                                           circuit=broken)

    @pytest.mark.parametrize("s", (2, 3, 4))
    def test_peak_memory_bounded(self, s):
        """An exhaustive n = 10 check holds a few dozen 16 KiB batch ints,
        not one 128 KiB int per qubit (7.9-8.0 MiB unbatched).  tracemalloc
        peaks repeat exactly."""
        tracemalloc.start()
        try:
            assert verify_adder(10, s).ok
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 << 20, peak


class TestResources:
    def test_empty_circuit(self):
        r = resources(QuantumCircuit({}, []))
        assert (r.toffoli_count, r.toffoli_depth, r.ancilla_count) == (0, 0, 0)

    def test_estimate_matches_measured(self):
        # estimate_resources is resources(build_adder(n, s)) now, so the
        # independent side is the gate-by-gate count of the reference
        for s in (2, 3, 4):
            for n in list(range(1, 40)) + [63, 64, 65, 100]:
                want = qadder_reference.resources(qadder_reference.build_adder(n, s))
                assert estimate_resources(n, s) == want, (n, s)

    def test_depth_at_most_label_count(self):
        for n, s in ((16, 2), (27, 3), (40, 4)):
            c = build_adder(n, s)
            labels = {label for _, label, *_ in c.layers if label}
            assert resources(c).toffoli_depth <= len(labels)

    def test_block_size_beyond_n(self):
        # with s >= n there is one block: the layers do not depend on s,
        # and the build does not loop over the s - 1 empty chain positions
        for n in range(2, 11):
            want = build_adder(n, n)
            for s in (n + 1, 10 ** 9):
                got = build_adder(n, s)
                assert estimate_resources(n, s) == estimate_resources(n, n), (n, s)
                assert [layer[1] for layer in got.layers] == [
                    layer[1] for layer in want.layers], (n, s)

    def test_layer_overlap_detected(self):
        c = QuantumCircuit({"q": [0, 1, 2, 3]},
                           [Gate(TOFFOLI, (0, 1, 2), "L"),
                            Gate(TOFFOLI, (1, 2, 3), "L")])
        with pytest.raises(LayerOverlapError, match=r"^layer 'L' reuses qubits \[1, 2\]$"):
            resources(c)

    def test_layer_overlap_across_another_label(self):
        # runs L, M, L: the two L runs are separate layers, and the check
        # spans every layer of a label
        gates = [Gate(TOFFOLI, (0, 1, 2), "L"), Gate(TOFFOLI, (3, 4, 5), "L"),
                 Gate(TOFFOLI, (2, 5, 6), "M"),
                 Gate(TOFFOLI, (6, 7, 4), "L"), Gate(TOFFOLI, (8, 9, 0), "L")]
        c = QuantumCircuit({"q": range(10)}, gates)
        assert [layer[1] for layer in c.layers] == ["L", "M", "L"]
        want = r"^layer 'L' reuses qubits \[4\]$"
        with pytest.raises(LayerOverlapError, match=want):
            resources(c)
        with pytest.raises(LayerOverlapError, match=want):
            qadder_reference.resources(qadder_reference.QuantumCircuit({"q": range(10)}, gates))
        # the same runs without the overlap pass
        ok = QuantumCircuit({"q": range(11)}, gates[:3] + [Gate(TOFFOLI, (6, 7, 10), "L")])
        assert resources(ok) == AdderResources(4, 3, 11)

    def test_layers_touch_distinct_qubits(self):
        # resources updates a whole layer by numpy fancy assignment,
        # which keeps only one of several writes to a repeated qubit
        for s in (2, 3, 4, 5):
            for n in list(range(1, 131)) + [256, 512]:
                for kind, label, *qs in build_adder(n, s).layers:
                    assert len({len(q) for q in qs}) == 1, (n, s, kind, label)
                    qubits = [x for q in qs for x in q.tolist()]
                    assert len(set(qubits)) == len(qubits), (n, s, kind, label)

    def test_ancilla_growth_is_linear(self):
        for s in (2, 3, 4):
            for n in (64, 128, 256):
                a1 = estimate_resources(n, s).ancilla_count
                a2 = estimate_resources(2 * n, s).ancilla_count
                assert abs(a2 / a1 - 2) < 0.1, (n, s)


class _ZeroDepthUnprop(qadder_reference._DepthCounter):
    """Depth counter that gives `unprop` Toffolis zero Toffoli depth.

    Such a gate still waits for its controls and its target and still holds
    its controls until it is done, as a Toffoli does; it only adds no layer.
    """

    def gate(self, kind, qubits, layer=None):
        if kind != TOFFOLI or " unprop " not in (layer or ""):
            return super().gate(kind, qubits, layer)
        self.toffoli_count += 1
        wd, rd = self._wd, self._rd
        c1, c2, t = qubits
        # d is a depth some Toffoli already reached: toffoli_depth stands
        d = max(wd[c1], wd[c2], wd[t], rd[t])
        rd[c1] = max(rd[c1], d)
        rd[c2] = max(rd[c2], d)
        wd[t] = d
        rd[t] = 0


class TestUnpropCause:
    """The `L{t} unprop` phase is the whole of criterion 10's overrun.

    The count clause (<= 4n) and the depth clause (<= s*ceil(log_s n) + 2)
    of tests/test_acceptance.py fail; both hold once the uncompute of the
    propagate products is taken out of the count and out of the depth.
    """

    GRID = list(range(2, 129)) + [256, 500, 512]

    def test_unprop_is_the_overrun(self):
        count_over = depth_over = 0
        for s in (2, 3, 4):
            for n in self.GRID:
                c = build_adder(n, s)
                toffolis = [g for g in c.gates if g.kind == TOFFOLI]
                assert all(g.toffoli_layer for g in toffolis), (n, s)
                phase = {"prop": Counter(), "unprop": Counter()}
                for g in toffolis:
                    words = g.toffoli_layer.split()
                    if len(words) == 3 and words[1] in phase:  # "L{t} prop k"
                        phase[words[1]][words[0], g.qubits] += 1
                # unprop undoes exactly the prop Toffolis, level by level,
                # so the two phases have the same number of gates
                assert phase["unprop"] == phase["prop"], (n, s)
                unprop = sum(phase["unprop"].values())
                assert len(toffolis) - unprop <= 4 * n, (n, s)
                count_over += len(toffolis) > 4 * n

                bound = kronecker_depth_bound(n, s) + 3  # s*ceil(log_s n) + 2
                depth_over += resources(c).toffoli_depth > bound
                counter = _ZeroDepthUnprop(c.n_qubits)
                for g in c.gates:
                    counter.gate(*g)
                assert counter.toffoli_depth <= bound, (n, s)
        # the grid shows both overruns, so the checks above are not vacuous
        assert count_over and depth_over, (count_over, depth_over)


# s in 2..5 at every n below 200 and at powers of 3, 4 and 5 among others
PAPER_GRID = [(n, s) for s in range(2, 6)
              for n in [*range(2, 200), 243, 256, 625, 729, 1024, 4096]]


def _generate_edges(c):
    """(source column, target column) of each chain, fin and last Toffoli:
    the g positions of its first control, traced back through a pool copy,
    and of its target."""
    g0, src, edges = c.registers["g"][0], {}, Counter()
    for kind, label, *qs in c.layers:
        cols = [q.tolist() for q in qs]
        if kind == CNOT:
            src.update(zip(cols[1], cols[0]))  # a copy's target -> its control
        elif label.split()[1:2] in (["chain"], ["fin"], ["last"]):
            edges.update((src.get(c1, c1) - g0, t - g0) for c1, _, t in zip(*cols))
    return edges


class TestPaperCircuit:
    """The adder's generate Toffolis are reblocked_circuit(n, s)'s gates,
    the paper's zero-deficiency family, and the span certificate of
    tests/qadder_reference.py proves each built adder for all inputs."""

    def test_generate_toffolis_are_reblocked_circuit(self):
        bad = []
        for n, s in PAPER_GRID:
            p = reblocked_circuit(n, s)
            col = _forest_roots(n, p._rights)  # the last input of a wire's span
            want = Counter(zip(col[p._lefts].tolist(), col[p._rights].tolist()))
            if _generate_edges(build_adder(n, s)) != want:
                bad.append((n, s))
        assert bad == [], (len(bad), bad[:5])

    def test_certifies_every_built_adder(self):
        bad = [(n, s) for n, s in PAPER_GRID if not qadder_reference.certify(build_adder(n, s))]
        assert bad == [], bad[:5]

    def test_certificate_agrees_with_exhaustive_check(self):
        # every single-gate deletion at n <= 8: refused iff verify_adder fails it
        count = 0
        for s in (2, 3, 4):
            for n in range(2, 9):
                c = build_adder(n, s)
                for k in range(len(c.gates)):
                    broken = _without(c, k)
                    ok = verify_adder(n, s, circuit=broken).ok
                    assert qadder_reference.certify(broken) == ok, (n, s, k)
                    count += 1
        assert count == 467

    def test_certificate_agrees_on_rewired_controls(self):
        # each Toffoli control moved to a nearby qubit the gate does not use:
        # spans that do not abut, or a wrong kind, are refused iff wrong
        count = 0
        for s in (2, 3):
            for n in range(2, 8):
                c = build_adder(n, s)
                for li, (kind, label, *qs) in enumerate(c.layers):
                    if kind != TOFFOLI:
                        continue
                    for gi, pos, d in product(range(len(qs[0])), (0, 1), (1, -1, 2)):
                        q = int(qs[pos][gi]) + d
                        if not 0 <= q < c.n_qubits or q in (int(x[gi]) for x in qs):
                            continue
                        layers = [(k, lb, *(a.copy() for a in qa)) for k, lb, *qa in c.layers]
                        layers[li][2 + pos][gi] = q
                        m = QuantumCircuit.from_layers(c.registers, layers, n, s)
                        ok = verify_adder(n, s, circuit=m).ok
                        assert qadder_reference.certify(m) == ok, (n, s, label, gi, pos, q)
                        count += 1
        assert count == 613

    def test_certificate_sees_what_sampling_misses(self):
        # each L3 prop 1 deletion of (64, 2) fails only where two adjacent
        # propagate spans are all ones, and passes 10^4 random trials
        c = build_adder(64, 2)
        victims = [k for k, g in enumerate(c.gates) if g.toffoli_layer == "L3 prop 1"]
        assert len(victims) == 2
        for k in victims:
            broken = _without(c, k)
            assert verify_adder(64, 2, seed=0, circuit=broken).ok, k
            assert not qadder_reference.certify(broken), k


class TestReversibility:
    def test_inverse_restores_state(self):
        rng = random.Random(9)
        for n, s in ((5, 2), (7, 3), (9, 4)):
            c = build_adder(n, s)
            both = QuantumCircuit(c.registers, [*c.gates, *qadder_reference.inverse(c).gates], n, s)
            for _ in range(20):
                state = [rng.randint(0, 1) for _ in range(c.n_qubits)]
                assert simulate(both, state) == state


class TestGateCheck:
    """simulate, resources and netlist reject the same malformed gates with
    the same messages, from one check.  "batch_run" is the gate simulation,
    reached through simulate, which checks before _batch_run runs the
    layers (verify_adder checks once before its batches)."""

    CONSUMERS = {
        "batch_run": lambda c: simulate(c, [0] * c.n_qubits),
        "resources": resources,
        "netlist": netlist,
    }

    @pytest.mark.parametrize("consumer", CONSUMERS)
    def test_unknown_kind(self, consumer):
        c = QuantumCircuit({"a": [0, 1]}, [Gate("FOO", (0,), None)])
        with pytest.raises(ValueError, match=r"^unknown gate kind 'FOO'$"):
            self.CONSUMERS[consumer](c)

    @pytest.mark.parametrize("consumer", CONSUMERS)
    @pytest.mark.parametrize("gates,nq,want", [
        # -1 would wrap to qubit 4, which (0, 1, 4) already targets in layer L
        ([Gate(TOFFOLI, (0, 1, 4), "L"), Gate(TOFFOLI, (2, 3, -1), "L")], 5,
         r"^gate 1 \(TOFFOLI on \(2, 3, -1\)\) uses qubit -1, outside 0\.\.4$"),
        ([Gate(TOFFOLI, (0, 1, 7), "L")], 3,
         r"^gate 0 \(TOFFOLI on \(0, 1, 7\)\) uses qubit 7, outside 0\.\.2$"),
        ([Gate(NOT, (0,), None), Gate(CNOT, (3, 1), None)], 2,
         r"^gate 1 \(CNOT on \(3, 1\)\) uses qubit 3, outside 0\.\.1$"),
    ])
    def test_qubit_out_of_range(self, consumer, gates, nq, want):
        c = QuantumCircuit({"q": list(range(nq))}, gates)
        with pytest.raises(ValueError, match=want):
            self.CONSUMERS[consumer](c)

    @pytest.mark.parametrize("consumer", CONSUMERS)
    def test_late_layer_names_global_gate_index(self, consumer):
        # a bad id, then an unknown kind, in a late layer of an adder: the
        # message names the gate's index in the whole circuit
        c = build_adder(9, 3)
        gates = list(c.gates)
        i = max(k for k, g in enumerate(gates) if g.toffoli_layer == "L0 unprop 1")
        c1, c2, _ = gates[i].qubits
        nq = c.n_qubits
        gates[i] = Gate(TOFFOLI, (c1, c2, nq + 3), "L0 unprop 1")
        bad = QuantumCircuit(c.registers, gates, c.n, c.s)
        assert len(bad.layers) == len(c.layers)
        want = rf"^gate {i} \(TOFFOLI on \({c1}, {c2}, {nq + 3}\)\) uses qubit {nq + 3}," \
               rf" outside 0\.\.{nq - 1}$"
        with pytest.raises(ValueError, match=want):
            self.CONSUMERS[consumer](bad)
        gates[i] = Gate("SWAP", (c1, c2), None)
        with pytest.raises(ValueError, match=r"^unknown gate kind 'SWAP'$"):
            self.CONSUMERS[consumer](QuantumCircuit(c.registers, gates, c.n, c.s))

    @pytest.mark.parametrize("consumer", CONSUMERS)
    def test_wrong_qubit_count(self, consumer):
        c = QuantumCircuit({"q": range(3)}, [Gate(NOT, (0,), None), Gate(TOFFOLI, (0, 1), "L")])
        with pytest.raises(ValueError, match=r"^gate 1 \(TOFFOLI on \(0, 1\)\) has 2 qubits$"):
            self.CONSUMERS[consumer](c)

    def test_gate_on_no_qubit(self):
        with pytest.raises(ValueError, match=r"^gate 1 \(NOT\) acts on no qubit$"):
            QuantumCircuit({"q": range(2)}, [Gate(NOT, (0,), None), Gate(NOT, (), None)])

    def test_qubit_shared_inside_a_layer(self):
        # a gate naming one qubit twice is counted as the gate-by-gate
        # reference counts it; a built layer whose gates share a qubit is
        # refused, as resources counts a layer at a time
        gates = [Gate(TOFFOLI, (0, 0, 1), "L"), Gate(CNOT, (2, 2), None),
                 Gate(TOFFOLI, (1, 2, 1), "M")]
        twice = QuantumCircuit({"q": range(3)}, gates)
        ref = qadder_reference.QuantumCircuit({"q": range(3)}, gates)
        assert resources(twice) == qadder_reference.resources(ref)
        assert simulate(twice, [1, 0, 1]) == qadder_reference.simulate(ref, [1, 0, 1])
        shared = QuantumCircuit.from_layers(
            {"q": range(3)}, [(CNOT, None, np.array([0, 1]), np.array([1, 2]))])
        assert list(shared.gates) == [Gate(CNOT, (0, 1), None), Gate(CNOT, (1, 2), None)]
        with pytest.raises(ValueError, match=r"^CNOT layer 0 reuses qubits \[1\]$"):
            resources(shared)


class TestLayers:
    """A circuit holds its registers and layers; `.gates` is made from them."""

    def test_no_stored_gate_list(self):
        c = build_adder(40, 3)
        assert set(vars(c)) == {"registers", "layers", "n", "s", "n_qubits"}
        assert len(c.gates) == sum(len(layer[2]) for layer in c.layers)
        assert isinstance(c.gates[:3], list) and c.gates[-1] == list(c.gates)[-1]

    def test_split_keeps_gate_order(self):
        gates = [Gate(TOFFOLI, (0, 1, 2), "L"), Gate(TOFFOLI, (3, 4, 5), "L"),
                 Gate(TOFFOLI, (5, 6, 7), "L"), Gate(CNOT, (0, 1), None),
                 Gate(CNOT, (2, 3), None), Gate(NOT, (1,), None), Gate(TOFFOLI, (0, 1, 2), "L")]
        c = QuantumCircuit({"q": range(8)}, gates)
        # a new layer at the reused qubit 5, at each change of kind or label
        assert [(kind, label, len(qs[0])) for kind, label, *qs in c.layers] == [
            (TOFFOLI, "L", 2), (TOFFOLI, "L", 1), (CNOT, None, 2), (NOT, None, 1),
            (TOFFOLI, "L", 1)]
        assert list(c.gates) == gates and all(q.dtype == np.int64 for layer in c.layers
                                              for q in layer[2:])
        assert list(qadder_reference.inverse(c).gates) == gates[::-1]

    @pytest.mark.parametrize("s", (2, 3, 4))
    def test_matches_reference(self, s):
        # gates, resources and netlist bytes equal those of the gate-list
        # form; n <= 10 and 64..71 are perfbench's verify_mutant sizes, whose
        # victims are picked by index into .gates
        for n in list(range(1, 201)) + [243, 256, 511, 512, 600, 729, 1024, 4096]:
            ref, c = qadder_reference.build_adder(n, s), build_adder(n, s)
            assert list(c.gates) == ref.gates, n
            assert c.n_qubits == ref.n_qubits, n
            assert {k: list(qs) for k, qs in c.registers.items()} == ref.registers, n
            assert resources(c) == qadder_reference.resources(ref), n
            assert netlist(c) == qadder_reference.netlist(ref), n

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_gate_lists_match_reference(self, data):
        nq = data.draw(st.integers(3, 7))
        gate = st.tuples(st.sampled_from((NOT, CNOT, TOFFOLI)), st.permutations(range(nq)),
                         st.sampled_from((None, "L", "M")))
        gates = [Gate(kind, tuple(perm[:qadder._ARITY[kind]]), label)
                 for kind, perm, label in data.draw(st.lists(gate, max_size=24))]
        regs = {"a": range(nq - 1), "z": [nq - 1]}
        c, ref = QuantumCircuit(regs, gates), qadder_reference.QuantumCircuit(regs, gates)
        assert list(c.gates) == gates and len(c.gates) == len(gates)
        try:
            want = qadder_reference.resources(ref)
        except LayerOverlapError as e:
            with pytest.raises(LayerOverlapError, match=f"^{re.escape(str(e))}$"):
                resources(c)
        else:
            assert resources(c) == want
        state = data.draw(st.lists(st.integers(0, 1), min_size=nq, max_size=nq))
        assert simulate(c, state) == qadder_reference.simulate(ref, state)
        assert netlist(c) == qadder_reference.netlist(ref)


class TestDeterminismAndNetlist:
    def test_identical_gate_lists(self):
        assert list(build_adder(12, 3).gates) == list(build_adder(12, 3).gates)

    def test_netlist_golden_2_2(self):
        # frozen output for the two-bit adder at block size 2
        assert netlist(build_adder(2, 2)) == (
            "# layer g-init\n"
            "T 0 2 4\n"
            "T 1 3 5\n"
            "# layer -\n"
            "CX 0 2\n"
            "CX 1 3\n"
            "# layer L0 chain 1\n"
            "T 4 3 5\n"
            "# layer -\n"
            "CX 4 3\n"
        )

    def test_netlist_parses_back(self):
        text = netlist(build_adder(5, 2))
        gates = [ln for ln in text.splitlines() if not ln.startswith("#")]
        c = build_adder(5, 2)
        assert len(gates) == len(c.gates)
