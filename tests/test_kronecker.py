"""The blocked zero-deficiency family, its depth recursion, and the DP."""

import inspect
import json
import operator
from types import SimpleNamespace

import numpy as np
import pytest

import prefixcircuits as pc
from prefixcircuits import kronecker

import kronecker_reference


class TestKroneckerCircuit:
    def test_7_2(self):
        # recursion unroll: D(7) = 2 + D(3) = 4; zero-deficiency size 2n-2-D
        m = pc.metrics(pc.kronecker_circuit(7, 2))
        assert (m.size, m.depth, m.max_fanout) == (8, 4, 2)
        assert m.deficiency == 0

    def test_serial_collapse(self):
        m = pc.metrics(pc.kronecker_circuit(3, 4))
        assert (m.size, m.depth) == (2, 2)

    def test_8_2_power_fix(self):
        m = pc.metrics(pc.kronecker_circuit(8, 2))
        assert m.depth == 5 and m.size == 9
        assert m.deficiency == 0 and m.max_fanout <= 2

    def test_27_3_built_metrics(self):
        # The fan-out guarantee forces the chained middle layer, so the built
        # depth is 1 + (3 + 9 - 2) = 11 and size 2n-2-D = 41 (not the fully
        # re-blocked recursion's 8/44, which no fan-out-3 wiring attains; see
        # kronecker_depth for the recursion value).
        m = pc.metrics(pc.kronecker_circuit(27, 3))
        assert (m.size, m.depth, m.max_fanout) == (41, 11, 3)
        assert m.deficiency == 0

    def test_bad_params(self):
        with pytest.raises(ValueError):
            pc.kronecker_circuit(8, 1)
        with pytest.raises(ValueError):
            pc.kronecker_circuit(0, 2)

    def test_validate_spot(self):
        for n, s in ((1, 2), (2, 2), (9, 2), (10, 5), (11, 5), (16, 4),
                     (100, 3), (243, 3), (255, 2), (256, 2)):
            assert pc.validate_prefix(pc.kronecker_circuit(n, s)), (n, s)

    def test_circuit_depth_matches_built(self):
        for s in (2, 3, 4, 7):
            for n in range(1, 130):
                assert pc.circuit_depth(n, s) == pc.metrics(
                    pc.kronecker_circuit(n, s)
                ).depth, (n, s)


class TestMatchesReference:
    """Both members' arrays equal those of the rank-table builder they
    replaced (tests/kronecker_reference.py), value for value and as int64."""

    @pytest.fixture
    def built_arrays(self, monkeypatch):
        # the arrays each builder hands to from_arrays, before any cast
        monkeypatch.setattr(kronecker, "PrefixCircuit",
                            SimpleNamespace(from_arrays=lambda n, *arrays: arrays))

    CASES = [(n, s) for s in range(2, 9) for n in range(1, 601)] + [
        (s ** k + d, s) for s, top in ((2, 12), (3, 8)) for k in range(1, top + 1)
        for d in (-1, 0, 1) if s ** k > 600]

    @pytest.mark.parametrize("builder, reference", [
        (pc.kronecker_circuit, kronecker_reference.chained_arrays),
        (pc.reblocked_circuit, kronecker_reference.reblocked_arrays),
    ], ids=["chained", "reblocked"])
    def test_arrays_equal(self, built_arrays, builder, reference):
        bad = []
        for n, s in self.CASES:
            got, want = builder(n, s), reference(n, s)
            if not all(a.dtype == np.int64 and np.array_equal(a, b)
                       for a, b in zip(got, want, strict=True)):
                bad.append((n, s))
        assert bad == []


class TestKroneckerDepth:
    def test_unrolls(self):
        assert pc.kronecker_depth(3, 2) == 2  # 2 + D(1)
        assert pc.kronecker_depth(7, 2) == 4  # 2 + D(3)
        assert pc.kronecker_depth(8, 2) == 5  # power of 2: 1 + D(7)
        assert pc.kronecker_depth(9, 2) == 5  # 2 + D(4), D(4) = 1 + D(3)
        assert pc.kronecker_depth(27, 3) == 8  # power of 3: 1 + (3 + D(8))

    def test_bound_spot(self):
        for s in (2, 3, 5):
            for n in range(2, 2000):
                assert pc.kronecker_depth(n, s) <= pc.kronecker_depth_bound(n, s)

    def test_bound_tight_at_powers(self):
        for s, k in ((2, 3), (2, 8), (3, 3), (5, 2)):
            n = s ** k
            assert pc.kronecker_depth(n, s) == s * k - 1

    def test_matches_built_depth_while_middle_is_chain_sized(self):
        # the built circuit chains the middle layer; it realizes the
        # recursion value exactly when re-blocking the middle would not help
        for s in (2, 3, 4):
            for n in range(1, 300):
                kd, cd = pc.kronecker_depth(n, s), pc.circuit_depth(n, s)
                if n <= s or kronecker_reference.is_power(n, s):
                    continue
                m = -(-n // s) - 1
                if pc.kronecker_depth(m, s) == m - 1:
                    assert kd == cd, (n, s)
                else:
                    assert kd < cd, (n, s)

    def test_depth_from_size_map(self):
        # s levels per step of h(v) = ceil(v/s) - 1 down to the serial base,
        # which adds v - 1, and one level more if an iterate is a power of s
        # (built on v - 1, which has the same h; every later iterate is
        # s**j - 1, so at most one is)
        cases = [(n, s) for s in range(2, 13) for n in range(1, 5001)]
        cases += [(3 ** k, 3) for k in range(1, 41)]
        for n, s in cases:
            v, steps, power = n, 0, False
            while v > s:
                power = power or kronecker_reference.is_power(v, s)
                v, steps = -(-v // s) - 1, steps + 1
            assert pc.kronecker_depth(n, s) == s * steps + power + v - 1, (n, s)


class TestReblocked:
    def test_golden_7_2(self):
        c = pc.reblocked_circuit(7, 2)
        assert c._lefts.tolist() == [0, 2, 4, 7, 10, 7, 10, 11]
        assert c._rights.tolist() == [1, 3, 5, 8, 9, 2, 4, 6]
        assert c._levels.tolist() == [1, 1, 1, 2, 3, 4, 4, 4]
        assert c._outs.tolist() == [0, 7, 12, 10, 13, 11, 14]

    def test_golden_11_2(self):
        c = pc.reblocked_circuit(11, 2)
        assert c._lefts.tolist() == [0, 2, 4, 6, 8, 11, 13, 16, 16, 18,
                                     11, 16, 19, 18, 20]
        assert c._rights.tolist() == [1, 3, 5, 7, 9, 12, 14, 17, 13, 15,
                                      2, 4, 6, 8, 10]
        assert c._levels.tolist() == [1, 1, 1, 1, 1, 2, 2, 3, 4, 4,
                                      5, 5, 5, 5, 5]
        assert c._outs.tolist() == [0, 11, 21, 16, 22, 19, 23, 18, 24, 20, 25]

    def test_attains_recursion_depth(self):
        # feeding the block totals back through the family itself realizes
        # kronecker_depth exactly and stays zero-deficiency...
        for n, s in ((7, 2), (11, 2), (27, 3), (100, 3), (256, 2)):
            m = pc.metrics(pc.reblocked_circuit(n, s))
            assert m.valid and m.deficiency == 0
            assert m.depth == pc.kronecker_depth(n, s), (n, s)
        m = pc.metrics(pc.reblocked_circuit(27, 3))
        assert (m.size, m.depth) == (44, 8)

    def test_breaks_global_fanout(self):
        # ...but its fan-out exceeds s once the recursion nests, which is
        # why kronecker_circuit chains the middle layer
        assert pc.metrics(pc.reblocked_circuit(11, 2)).max_fanout == 3
        assert pc.metrics(pc.reblocked_circuit(27, 3)).max_fanout == 5

    def test_paper_properties(self):
        # the abstract's three claims: zero deficiency, constant fan-out per
        # level (read as: within one level no wire feeds more than s gates;
        # PAPER.md holds only the abstract, so this reading is an
        # inference) and the re-blocked depth
        bad = []
        for s in range(2, 9):
            for n in range(2, 513):
                c = pc.reblocked_circuit(n, s)
                m = pc.metrics(c)
                N = n + c.size
                level = np.concatenate((c._levels, c._levels))
                wire = np.concatenate((c._lefts, c._rights))
                per_level = int(np.bincount(level * N + wire).max())
                if not (m.valid and m.deficiency == 0 and per_level <= s
                        and m.depth == pc.kronecker_depth(n, s)):
                    bad.append((n, s, m, per_level))
        assert bad == []

    def test_bad_params(self):
        with pytest.raises(ValueError):
            pc.reblocked_circuit(8, 1)
        with pytest.raises(ValueError):
            pc.reblocked_circuit(0, 2)


class TestEdgePredicate:
    def test_block0_layer1_edge(self):
        # n=4 delegates to the n=3 sub-build; the first block's serial gate
        # at level 1 column 1 reads columns 0 and 1
        assert pc.edge_predicate(4, 2, 0, 0, 1)
        assert pc.edge_predicate(4, 2, 0, 1, 1)

    def test_out_of_range_false(self):
        assert not pc.edge_predicate(4, 2, 0, 0, 9)
        assert not pc.edge_predicate(4, 2, 9, 0, 1)
        assert not pc.edge_predicate(4, 2, 0, -1, 1)
        assert not pc.edge_predicate(1, 2, 0, 0, 0)
        for s in (2, 3, 4):
            assert pc.level_edges(1, s, 0) == []
            for n in (2, s, s + 1, s ** 2, s ** 2 + 1, s ** 3, 50):
                assert pc.level_edges(n, s, -1) == []
                assert pc.level_edges(n, s, pc.circuit_depth(n, s)) == []

    def test_bad_params(self):
        # s = 1 would never leave _is_power_of's loop; s = 0 divides by zero
        for call in (
            lambda: pc.edge_predicate(5, 1, 0, 0, 0),
            lambda: pc.edge_predicate(0, 2, 0, 0, 0),
            lambda: pc.level_edges(5, 1, 0),
            lambda: pc.level_edges(4, 0, 0),
            lambda: pc.level_edges(5, -1, 0),
            lambda: pc.level_edges(0, 2, 0),
        ):
            with pytest.raises(ValueError):
                call()

    def test_matches_lister_small(self):
        for s in (2, 3, 4, 7):
            for n in range(2, 25):
                D = pc.circuit_depth(n, s)
                for lv in range(D):
                    edges = set(pc.level_edges(n, s, lv))
                    for src in range(n):
                        for dst in range(n):
                            assert pc.edge_predicate(n, s, lv, src, dst) == (
                                (src, dst) in edges
                            ), (n, s, lv, src, dst)


class TestMinDepthTable:
    def test_small_entries(self):
        t = pc.min_depth_table(10)
        assert t.entries[2][0] == 1
        # minD(4) = 3: every block size hits either the power-of-2 detour
        # (s=2: 1 + D(3) = 3) or the serial base; there is no depth-2 value
        # of the recursion with its fan-out fix
        assert t.entries[4][0] == 3
        assert t.entries[4][0] == min(
            pc.kronecker_depth(4, s) for s in range(2, 5)
        )

    def test_ties_break_to_smaller_s(self):
        t = pc.min_depth_table(20)
        for n in range(2, 21):
            d, s = t.entries[n]
            for smaller in range(2, s):
                assert pc.kronecker_depth(n, smaller) > d, (n, s, smaller)

    def test_equals_direct_min(self):
        t = pc.min_depth_table(64)
        for n in range(2, 65):
            want = min(
                pc.kronecker_depth(n, s) for s in range(2, max(2, n // 2) + 1)
            )
            assert t.entries[n][0] == want, n

    def test_power_of_three_family(self):
        t = pc.min_depth_table(750)
        for k in (1, 2, 3, 4, 5, 6):
            if 3 ** k <= 750:
                assert t.entries[3 ** k][0] <= 3 * k

    def test_monotone_to_10000(self):
        t = pc.min_depth_table(10_000)
        vals = [t.entries[n][0] for n in range(1, 10_001)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


# the public builders, depth functions, edge predicates and kronalg
# functions, by their integer parameters (the lambdas fix the others)
INTEGER_PARAMS = {
    "serial": (pc.serial, (8,)),
    "sklansky": (pc.sklansky, (8,)),
    "kogge_stone": (pc.kogge_stone, (8,)),
    "brent_kung": (pc.brent_kung, (8,)),
    "ladner_fischer": (pc.ladner_fischer, (8, 1)),
    "kronecker_circuit": (pc.kronecker_circuit, (8, 2)),
    "reblocked_circuit": (pc.reblocked_circuit, (9, 3)),
    "circuit_depth": (pc.circuit_depth, (8, 2)),
    "kronecker_depth": (pc.kronecker_depth, (8, 2)),
    "kronecker_depth_bound": (pc.kronecker_depth_bound, (8, 2)),
    "min_depth_table": (pc.min_depth_table, (8,)),
    "fib_depth_lower_bound": (pc.fib_depth_lower_bound, (8,)),
    "build_adder": (pc.build_adder, (8, 2)),
    "estimate_resources": (pc.estimate_resources, (8, 2)),
    "edge_predicate": (pc.edge_predicate, (8, 2, 1, 1, 3)),
    "level_edges": (pc.level_edges, (8, 2, 1)),
    "build": (lambda n: pc.build("L", n), (3,)),
    "decomposition_check": (pc.decomposition_check, (2, 3)),
    "prefix_via_kron": (lambda n1, n2: pc.prefix_via_kron(np.arange(6), n1, n2), (2, 3)),
    "verify_adder": (pc.verify_adder, (3, 2)),
    "verify_adder_circuit": (lambda n, s: pc.verify_adder(n, s, circuit=pc.build_adder(3, 2)),
                             (3, 2)),
}


class TestIntegerParams:
    @pytest.mark.parametrize("name", sorted(INTEGER_PARAMS))
    @pytest.mark.parametrize("bad", [2.0, 2.5, True, "3"])
    def test_non_integer_rejected(self, name, bad):
        fn, args = INTEGER_PARAMS[name]
        for i in range(len(args)):
            with pytest.raises(ValueError, match=r"^(n|s|k|max_n|n1|n2|level|src_node|"
                                                 r"dst_node): expected an integer"):
                fn(*args[:i], bad, *args[i + 1:])

    @pytest.mark.parametrize("name", sorted(INTEGER_PARAMS))
    def test_out_of_range_rejected(self, name):
        # the size (n, max_n or n1) at 0, and s in {1, 0, -1} where the row
        # takes s, raise at once: none reaches a loop that s = 1 never
        # leaves or a division by s = 0
        fn, args = INTEGER_PARAMS[name]
        calls = [(0, *args[1:])]
        params = list(inspect.signature(fn).parameters)
        if "s" in params:
            i = params.index("s")
            calls += [(*args[:i], s, *args[i + 1:]) for s in (1, 0, -1)]
        for bad in calls:
            with pytest.raises(ValueError):
                fn(*bad)

    @pytest.mark.parametrize("name", sorted(INTEGER_PARAMS))
    def test_numpy_integers_give_plain_ints(self, name):
        fn, args = INTEGER_PARAMS[name]
        got, want = fn(*map(np.int64, args)), fn(*args)
        if isinstance(got, np.ndarray):  # kronalg's matrices and vectors
            assert got.dtype == want.dtype and np.array_equal(got, want)
            return
        if isinstance(got, pc.QuantumCircuit):
            assert pc.netlist(got) == pc.netlist(want)
            got = SimpleNamespace(n=got.n, s=got.s, n_qubits=got.n_qubits)
        else:
            assert got == want
            if isinstance(got, pc.PrefixCircuit):
                got = SimpleNamespace(n=got.n)
        if isinstance(got, int):
            values = [got]
        elif isinstance(got, list):  # level_edges' (src, dst) pairs
            values = [v for edge in got for v in edge]
        else:
            values = list(vars(got).values())
        assert not any(isinstance(v, np.integer) for v in values), values

    def test_resources_serialize(self):
        r = pc.estimate_resources(np.int64(8), np.int64(2))
        assert json.dumps(vars(r)) == json.dumps(vars(pc.estimate_resources(8, 2)))


# the other arguments: (public name, call, exception, message) per row
DATA_ARGS = [
    ("kron", lambda: pc.kron([[0.5]], [[2]]), ValueError, r"^a: expected integers"),
    ("kron", lambda: pc.kron([[2]], [[True]]), ValueError, r"^b: expected integers"),
    ("prefix_via_kron", lambda: pc.prefix_via_kron([1.5, 2, 3, 4], 2, 2), ValueError,
     r"^x: expected integers"),
    ("kron", lambda: pc.kron([[2**62]], [[4]]), ValueError,
     r"^a, b: max\|a\| \* max\|b\| = 18446744073709551616 is above the int64 maximum"),
    ("kron", lambda: pc.kron(np.array([[2**63]], dtype=np.uint64), [[1]]), ValueError,
     r"^a: value 9223372036854775808 is above the int64 maximum"),
    ("prefix_via_kron", lambda: pc.prefix_via_kron([2**62, 2**62], 1, 2), ValueError,
     r"^x: sum of \|x\| = 9223372036854775808 is above the int64 maximum"),
    ("prefix_via_kron", lambda: pc.prefix_via_kron(5, 1, 1), ValueError,
     r"^x: expected a 1-D array, got shape \(\)$"),
    ("prefix_via_kron", lambda: pc.prefix_via_kron([[1, 2], [3, 4]], 2, 1), ValueError,
     r"^x: expected a 1-D array, got shape \(2, 2\)$"),
    ("evaluate", lambda: pc.evaluate(pc.serial(4), [1, 2, 3], operator.add), ValueError,
     r"^expected 4 inputs, got 3$"),
    ("simulate", lambda: pc.simulate(c := pc.build_adder(2, 2), [2] * c.n_qubits),
     ValueError, r"^qubit 0: expected 0 or 1"),
    ("import_json", lambda: pc.import_json("{not json"), pc.SchemaError,
     r"^\$: not valid JSON"),
    ("netlist", lambda: pc.netlist(pc.QuantumCircuit({"q": range(2)}, [("CNOT", (0, 5), None)])),
     ValueError, r"uses qubit 5, outside 0\.\.1$"),
    ("resources", lambda: pc.resources(pc.QuantumCircuit({"q": range(2)},
                                                         [("CNOT", (0, 5), None)])),
     ValueError, r"uses qubit 5, outside 0\.\.1$"),
    ("PrefixCircuit", lambda: pc.PrefixCircuit.from_arrays(2, [0.0], [1], [1], [0, 2]),
     pc.CircuitStructureError, r"^lefts: expected integers"),
    ("QuantumCircuit", lambda: pc.QuantumCircuit({"q": range(2)}, [("CNOT", (), None)]),
     ValueError, r"^gate 0 \(CNOT\) acts on no qubit$"),
]

# public callables with no argument to misuse, and why
MISUSE_EXEMPT = {
    **dict.fromkeys(("validate_prefix", "export_json", "export_dot"),
                    "reads a PrefixCircuit, which from_arrays checked"),
    "metrics": "reads a checked PrefixCircuit, and count_outputs for its truth, "
               "as Python reads a flag",
    **dict.fromkeys(("AdderCheckReport", "AdderResources", "CircuitMetrics", "DepthTable"),
                    "a record of results that the library fills in"),
    **dict.fromkeys(("CircuitStructureError", "SchemaError"), "an exception type"),
}


class TestMisuseCoverage:
    @pytest.mark.parametrize("name, call, error, match", DATA_ARGS,
                             ids=[row[0] for row in DATA_ARGS])
    def test_data_argument_rejected(self, name, call, error, match):
        with pytest.raises(error, match=match):
            call()

    def test_every_public_callable_covered(self):
        # a new public entry lands with its misuse case or a stated exemption
        named = {row[0] for row in DATA_ARGS} | set(MISUSE_EXEMPT)
        covered = named | set(INTEGER_PARAMS)
        missing = [name for name in pc.__all__
                   if callable(getattr(pc, name)) and name not in covered]
        assert missing == [] and named <= set(pc.__all__), missing


def test_mutation_sensitivity_spot():
    # splicing any gate out of the n=20 circuit (its consumers rewired to
    # the gate's left operand) must break prefix validation
    from prefixcircuits.core import PrefixCircuit

    c = pc.kronecker_circuit(20, 2)
    for victim in range(c.size):
        lefts = c._lefts.copy()
        rights = c._rights.copy()
        levels = c._levels.copy()
        outs = c._outs.copy()
        repl = lefts[victim]
        keep = [g for g in range(c.size) if g != victim]
        remap = {c.n + old: c.n + new for new, old in enumerate(keep)}

        def wire(w):
            if w == c.n + victim:
                w = repl
            return remap.get(int(w), int(w))

        mut = PrefixCircuit.from_arrays(
            c.n,
            [wire(lefts[g]) for g in keep],
            [wire(rights[g]) for g in keep],
            [levels[g] for g in keep],
            [wire(w) for w in outs],
        )
        assert not pc.validate_prefix(mut), victim
