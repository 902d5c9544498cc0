"""Reversible adder: construction, simulation, resources, verification."""

import random
from collections import Counter

import pytest

from prefixcircuits import qadder
from prefixcircuits.kronecker import kronecker_depth_bound
from prefixcircuits.qadder import (
    CNOT,
    NOT,
    TOFFOLI,
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

    def test_unassigned_qubit_rejected(self):
        c = QuantumCircuit({"q": [0, 1]}, [Gate(CNOT, (0, 1), None)])
        with pytest.raises(ValueError):
            simulate(c, {0: 1})


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
            bad = QuantumCircuit(c.registers, c.gates + [extra] * 2, c.n, c.s)
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
        victim = next(k for k, g in enumerate(c.gates) if g.toffoli_layer == "g-init"
                      and g.qubits[2] == c.registers["g"][37])
        broken = QuantumCircuit(c.registers, c.gates[:victim] + c.gates[victim + 1:],
                                n, 2)
        scratch = [q for name, qs in c.registers.items()
                   if name not in ("a", "b", "g") for q in qs]
        firsts = []
        for seed in range(12):
            rng = random.Random(seed)
            pairs = [(rng.getrandbits(n), rng.getrandbits(n)) for _ in range(trials)]
            for t, (a, b) in enumerate(pairs):
                got_sum, got_carry, out = run_add(broken, a, b)
                if ((got_sum, got_carry) != ((a + b) % (1 << n), (a + b) >> n)
                        or any(out[q] for q in scratch)
                        or sum(out[q] << i for i, q in enumerate(c.registers["a"])) != a):
                    break
            report = verify_adder(n, 2, trials=trials, seed=seed, circuit=broken)
            assert not report.ok and report.cases == trials, seed
            assert report.counterexample == (n, 2, a, b, got_sum, got_carry), (seed, t)
            firsts.append(t)
        # failures past the first byte of trials, so the trial index is pinned
        assert max(firsts) >= 8, firsts


def _packed_by_bit_loop(n, trials, seed):
    """verify_adder's former random-mode packing, kept as the reference."""
    rng = random.Random(seed)
    pairs = [(rng.getrandbits(n), rng.getrandbits(n)) for _ in range(trials)]
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
        # gate simulation, and compare them with the per-bit loop
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
                    assert (a_bits, b_bits) == _packed_by_bit_loop(n, trials, seed), \
                        (n, trials, seed)


class TestResources:
    def test_empty_circuit(self):
        r = resources(QuantumCircuit({}, []))
        assert (r.toffoli_count, r.toffoli_depth, r.ancilla_count) == (0, 0, 0)

    def test_estimate_matches_measured(self):
        for s in (2, 3, 4):
            for n in list(range(1, 40)) + [63, 64, 65, 100]:
                assert estimate_resources(n, s) == resources(build_adder(n, s)), (n, s)

    def test_depth_at_most_label_count(self):
        for n, s in ((16, 2), (27, 3), (40, 4)):
            c = build_adder(n, s)
            assert resources(c).toffoli_depth <= qadder.toffoli_layer_count(c)

    def test_layer_overlap_detected(self):
        c = QuantumCircuit({"q": [0, 1, 2, 3]},
                           [Gate(TOFFOLI, (0, 1, 2), "L"),
                            Gate(TOFFOLI, (1, 2, 3), "L")])
        with pytest.raises(LayerOverlapError, match=r"^layer 'L' reuses qubits \[1, 2\]$"):
            resources(c)

    def test_layers_touch_distinct_qubits(self):
        # estimate_resources updates a whole layer by numpy fancy assignment,
        # which keeps only one of several writes to a repeated qubit
        for s in (2, 3, 4, 5):
            for n in list(range(1, 131)) + [256, 512]:
                for kind, label, *qs in qadder._adder_layers(n, s)[1]:
                    assert len({len(q) for q in qs}) == 1, (n, s, kind, label)
                    qubits = [x for q in qs for x in q.tolist()]
                    assert len(set(qubits)) == len(qubits), (n, s, kind, label)

    def test_ancilla_growth_is_linear(self):
        for s in (2, 3, 4):
            for n in (64, 128, 256):
                a1 = estimate_resources(n, s).ancilla_count
                a2 = estimate_resources(2 * n, s).ancilla_count
                assert abs(a2 / a1 - 2) < 0.1, (n, s)


class _ZeroDepthUnprop(qadder._DepthCounter):
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

    def test_unprop_is_the_overrun(self, monkeypatch):
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
                with monkeypatch.context() as m:
                    m.setattr(qadder, "_DepthCounter", _ZeroDepthUnprop)
                    assert resources(c).toffoli_depth <= bound, (n, s)
        # the grid shows both overruns, so the checks above are not vacuous
        assert count_over and depth_over, (count_over, depth_over)


class TestReversibility:
    def test_inverse_restores_state(self):
        rng = random.Random(9)
        for n, s in ((5, 2), (7, 3), (9, 4)):
            c = build_adder(n, s)
            both = QuantumCircuit(c.registers, c.gates + c.inverse().gates, n, s)
            for _ in range(20):
                state = [rng.randint(0, 1) for _ in range(c.n_qubits)]
                assert simulate(both, state) == state


class TestGateCheck:
    """simulate (through _batch_run), resources and netlist reject the same
    malformed gates with the same messages, from one check."""

    CONSUMERS = {
        "batch_run": lambda c: qadder._batch_run(c.gates, [0] * c.n_qubits, 1),
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


class TestDeterminismAndNetlist:
    def test_identical_gate_lists(self):
        assert build_adder(12, 3).gates == build_adder(12, 3).gates

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
