"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Two clauses of criterion 10 are asserted faithfully and fail.  Both come
from one phase of the adder, the ``L{t} unprop`` Toffoli uncompute of the
propagate products (``tests/test_qadder.py::TestUnpropCause`` checks this):

* criterion 10 (count clause): the ``unprop`` phase mirrors the ``prop``
  phase, about n Toffolis, and is the whole overrun -- without it every
  (n, s) of the sweep stays within 4n, with it the count reaches 4.99n and
  the 4n cap is first crossed at (20, s=2, 81 Toffolis).
* criterion 10 (depth clause, s in {3, 4}): each level's uncompute waits
  for the level below, a serial cascade of s - 1 layers per level of which
  the finalize cascade hides one, so the uncompute adds up to s - 2 layers
  per level (none for s = 2).  s*ceil(log_s n) + 2 is first exceeded at
  n = 73 for s = 3 and n = 45 for s = 4.  Costing the ``unprop`` Toffolis
  at zero depth, with their data dependences kept, meets the clause.

That costing is measurement-based uncompute (Gidney, arXiv:1709.06648), a
different gate set from the NOT/CNOT/Toffoli one these tests measure;
``PAPER.md`` holds only the abstract and does not say whether the paper's
1.893*log(n) + O(1) depth and its Toffoli count assume it.

Criterion 4's ratio bracket is asymptotic: at n = 3**8 it would need depth
24, which the bound clause of the same criterion forbids, so its test checks
the bracket over the powers of three where the ratio has entered it, and in
the limit, and pins the depth at 3**8 to the bound's 23.
"""

import math
import time

import numpy as np
import pytest

import prefixcircuits as pc
from prefixcircuits import qadder

from kronecker_reference import is_power
import qadder_reference


def report(num: str, ok: bool, detail: str = ""):
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} failed: {detail}"


# -- 1: decomposition identity suite -------------------------------------------


def test_criterion_1_identity_suite():
    t0 = time.time()
    bad = [(n1, n2)
           for n1 in range(2, 13) for n2 in range(2, 13)
           if not pc.decomposition_check(n1, n2)]
    elapsed = time.time() - t0
    report("1", not bad and elapsed < 5.0,
           f"121 pairs, {elapsed:.2f}s, failures={bad}")


# -- 2: blockwise prefix evaluation equals the serial fold ----------------------


def test_criterion_2_prefix_via_kron_oracle():
    t0 = time.time()
    rng = np.random.default_rng(20260810)
    bad = 0
    for _ in range(1000):
        n = int(rng.integers(1, 121))
        x = rng.integers(-10**6, 10**6, size=n)
        want = np.cumsum(x, dtype=np.int64).tolist()
        for n1 in range(1, n + 1):
            if n % n1 == 0:
                got = pc.prefix_via_kron(x, n1, n // n1).tolist()
                if got != want:
                    bad += 1
    elapsed = time.time() - t0
    report("2", bad == 0 and elapsed < 5.0,
           f"1000 vectors x all factorizations, {elapsed:.2f}s, failures={bad}")


# -- 3: zero-deficiency, validity, and fan-out for the whole family -------------


def test_criterion_3_zero_deficiency_family():
    pc.validate_prefix(pc.serial(4))  # first call outside the timed region
    t0 = time.time()
    bad = []
    checked = 0
    for n in range(2, 513):
        for s in range(2, max(2, n // 2) + 1):
            m = pc.metrics(pc.kronecker_circuit(n, s))
            if not (m.valid and m.deficiency == 0 and m.max_fanout <= s):
                bad.append((n, s, m))
            checked += 1
    elapsed = time.time() - t0
    report("3", not bad and elapsed < 60.0,
           f"{checked} circuits, {elapsed:.1f}s, failures={bad[:3]}")


# -- 4: depth recursion bound and the asymptotic-ratio bracket ------------------


def test_criterion_4_depth_bound_sweep():
    t0 = time.time()
    bad = []
    for s in range(2, 17):
        for n in range(2, 100_001):
            if pc.kronecker_depth(n, s) > pc.kronecker_depth_bound(n, s):
                bad.append((n, s))
    elapsed = time.time() - t0
    report("4 (bound)", not bad and elapsed < 10.0,
           f"s in [2,16] x n in [2,1e5], {elapsed:.1f}s, violations={bad[:5]}")


def test_criterion_4_ratio_bracket_at_3_pow_8():
    # kronecker_depth(3**k, 3) = 3k - 1, so depth/log2(n) = (3 - 1/k)/log2(3)
    # rises toward 3/log2(3) ~ 1.8928 from below and enters the bracket only
    # from k = 15.  At n = 3**8 the bracket would need depth 24, which the
    # bound clause forbids; there the depth is pinned to 23 exactly.
    lo, hi = 1.85, 1.95
    limit = 3 / math.log2(3)
    n = 3 ** 8
    depth = pc.kronecker_depth(n, 3)
    bad = []
    if not depth == 23 == pc.kronecker_depth_bound(n, 3) == kd_brute(n, 3):
        bad.append(("3**8", depth, pc.kronecker_depth_bound(n, 3)))
    ratio = {}
    for k in range(1, 41):
        d = pc.kronecker_depth(3 ** k, 3)
        if d != 3 * k - 1:
            bad.append(("depth", k, d))
        ratio[k] = d / math.log2(3 ** k)
    bad += [("not rising", k) for k in range(1, 40) if ratio[k] >= ratio[k + 1]]
    bad += [("not below limit", k) for k in ratio if ratio[k] >= limit]
    bad += [("outside bracket", k) for k in range(15, 41)
            if not lo <= ratio[k] <= hi]
    if not (lo <= limit <= hi and limit < 2):
        bad.append(("limit", limit))
    report("4 (ratio)", not bad,
           f"depth(3**8)={depth}, ratio={ratio[8]:.4f}, "
           f"ratio(3**15)={ratio[15]:.4f}, ratio(3**40)={ratio[40]:.4f}, "
           f"limit={limit:.4f}, bracket=[{lo}, {hi}], failures={bad[:5]}")


# -- 5: closed-form metric goldens at powers of two -----------------------------


def test_criterion_5_table_goldens():
    t0 = time.time()
    bad = []
    for k in range(1, 10):
        n = 1 << k
        m = pc.metrics(pc.sklansky(n))
        if (m.size, m.depth) != (n * k // 2, k):
            bad.append(("sklansky", n, m))
        m = pc.metrics(pc.kogge_stone(n))
        if m.size != n * k - n + 1:
            bad.append(("kogge-stone", n, m))
        m = pc.metrics(pc.brent_kung(n))
        want_depth = 2 * k - 1 if n > 2 else 1
        # deficiency follows from the two closed forms:
        # (2n - k - 2) + (2k - 1) - (2n - 2) = k - 1; the "log n + 1" phrase
        # circulating alongside them is inconsistent with the forms themselves
        want_def = k - 1 if n > 2 else 0
        if (m.size, m.depth, m.deficiency) != (2 * n - k - 2, want_depth, want_def):
            bad.append(("brent-kung", n, m))
    elapsed = time.time() - t0
    report("5", not bad and elapsed < 10.0, f"{elapsed:.1f}s, failures={bad}")


# -- 6: generated zero-deficiency circuits respect the Fibonacci depth bound ----


def test_criterion_6_fibonacci_consistency():
    bad = []
    for n in range(2, 513):
        bound = pc.fib_depth_lower_bound(n)
        if n - 1 < bound:  # serial
            bad.append(("serial", n))
        for s in range(2, max(2, n // 2) + 1):
            if pc.circuit_depth(n, s) < bound:
                bad.append(("kronecker", n, s))
    report("6", not bad, f"violations={bad[:5]}")


# -- 7: dynamic program against a memo-free recursion ----------------------------


def kd_brute(n, s):
    if n <= s:
        return n - 1
    if is_power(n, s):
        return 1 + kd_brute(n - 1, s)
    return s + kd_brute(-(-n // s) - 1, s)


def test_criterion_7_dp_correctness():
    table = pc.min_depth_table(200)
    bad = []
    for n in range(2, 201):
        brute = min(kd_brute(n, s) for s in range(2, max(2, n // 2) + 1))
        got = table.entries[n][0]
        if got != brute:
            bad.append(("brute", n, got, brute))
        direct = min(pc.kronecker_depth(n, s)
                     for s in range(2, max(2, n // 2) + 1))
        if got != direct:
            bad.append(("direct", n))
    report("7", not bad, f"n <= 200, failures={bad[:5]}")


# -- 8: arithmetic edge predicate against the materialized DAG -------------------


def dag_grid_edges(circuit):
    """Per-level grid edges of the materialized DAG.

    The grid column of a wire is the end of its input span; each gate at
    declared level L contributes the edges (L-1, column(left)) -> (L, col)
    and (L-1, column(right)) -> (L, col).
    """
    n = circuit.n
    col = list(range(n)) + [0] * circuit.size
    edges = {}
    lefts, rights, levels = circuit._lefts, circuit._rights, circuit._levels
    for g in range(circuit.size):
        col[n + g] = col[rights[g]]
        lv = int(levels[g]) - 1
        dst = col[n + g]
        bucket = edges.setdefault(lv, set())
        bucket.add((col[lefts[g]], dst))
        bucket.add((col[rights[g]], dst))
    return edges


def test_criterion_8_edge_predicate_equivalence():
    t0 = time.time()
    bad = []
    for s in (2, 3, 5):
        for n in range(2, 257):
            want = dag_grid_edges(pc.kronecker_circuit(n, s))
            D = pc.circuit_depth(n, s)
            for lv in range(D):
                got = set(pc.level_edges(n, s, lv))
                if got != want.get(lv, set()):
                    bad.append(("lister", n, s, lv))
                    continue
                if n <= 64:  # full src x dst grid for the scalar predicate
                    for src in range(n):
                        for dst in range(n):
                            if pc.edge_predicate(n, s, lv, src, dst) != (
                                (src, dst) in got
                            ):
                                bad.append(("scalar", n, s, lv, src, dst))
                else:  # every true edge, plus adversarial non-edges
                    for (src, dst) in got:
                        if not pc.edge_predicate(n, s, lv, src, dst):
                            bad.append(("scalar-miss", n, s, lv, src, dst))
                        if pc.edge_predicate(n, s, lv, src, dst + 1) != (
                            (src, dst + 1) in got
                        ):
                            bad.append(("scalar-shift", n, s, lv, src, dst))
                    if pc.edge_predicate(n, s, lv, 0, n + 5):
                        bad.append(("scalar-range", n, s, lv))
    elapsed = time.time() - t0
    report("8", not bad, f"n in [2,256], s in {{2,3,5}}, {elapsed:.1f}s, "
                         f"failures={bad[:5]}")


# -- 9: adder functional correctness ---------------------------------------------


def test_criterion_9_adder_functional():
    t0 = time.time()
    bad = []
    for s in (2, 3):
        for n in range(1, 9):
            rep = qadder.verify_adder(n, s)
            if not (rep.ok and rep.exhaustive):
                bad.append((n, s, rep.counterexample))
    for s in (2, 3, 4):
        for n in (16, 32, 64):
            rep = qadder.verify_adder(n, s, trials=10_000, seed=n * 100 + s)
            if rep.ok is False or rep.cases != 10_000:
                bad.append((n, s, rep.counterexample))
    elapsed = time.time() - t0
    report("9", not bad and elapsed < 120.0,
           f"exhaustive n<=8 + 1e4 random n in {{16,32,64}}, {elapsed:.1f}s, "
           f"failures={bad[:3]}")


# -- 10: adder resource bounds ----------------------------------------------------


@pytest.fixture(scope="module")
def resource_sweep():
    """estimate_resources over n in [2, 4096], s in {2, 3, 4} (one pass)."""
    out = {}
    for s in (2, 3, 4):
        for n in range(2, 4097):
            out[(n, s)] = qadder.estimate_resources(n, s)
    return out


def test_criterion_10_estimator_is_exact():
    # ground the sweep: the estimator must equal the resources the
    # gate-by-gate reference measures on its own circuits, across a
    # representative grid
    grid = list(range(1, 65)) + [100, 127, 128, 129, 243, 250, 256, 500, 512]
    bad = [(n, s) for s in (2, 3, 4) for n in grid
           if qadder.estimate_resources(n, s) != qadder_reference.resources(
               qadder_reference.build_adder(n, s))]
    report("10 (estimator)", not bad, f"failures={bad[:5]}")


def test_criterion_10_toffoli_depth(resource_sweep):
    # Faithful to the stated bound; holds in full for s = 2, exceeded for
    # s in {3, 4} at larger n (see module docstring and notes).
    bad = []
    for (n, s), r in resource_sweep.items():
        bound = pc.kronecker_depth_bound(n, s) + 3  # s*ceil(log_s n) + 2
        if r.toffoli_depth > bound:
            bad.append((n, s, r.toffoli_depth, bound))
    report("10 (depth)", not bad,
           f"violations={len(bad)}, first={sorted(bad)[:3]}")


def test_criterion_10_toffoli_count(resource_sweep):
    # Faithful to the stated 4n cap; the restoring adder needs ~5n - O(log n)
    # Toffolis, so this is exceeded from n ~ 20 (see module docstring).
    bad = [(n, s, r.toffoli_count) for (n, s), r in resource_sweep.items()
           if r.toffoli_count > 4 * n]
    report("10 (count)", not bad,
           f"violations={len(bad)}, first={sorted(bad)[:3]}")


def test_criterion_10_ancillas(resource_sweep):
    # measured constant frozen as a golden value: ancillas/n peaks at 2.495
    # over the sweep (worst at small s=4 sizes), so c = 2.5
    worst = max(r.ancilla_count / n for (n, s), r in resource_sweep.items())
    report("10 (ancillas)", worst <= 2.5, f"max ancillas/n = {worst:.3f}")


def test_criterion_10_measured_envelopes(resource_sweep):
    # regression record of what the construction actually achieves
    bad = []
    for (n, s), r in resource_sweep.items():
        if r.toffoli_count > 5 * n:
            bad.append(("count", n, s))
        if s == 2:
            bound = 2 * math.ceil(math.log2(n)) + 2
            if r.toffoli_depth > bound:
                bad.append(("depth2", n))
        else:
            # s in {3, 4}: forward cascade plus the uncompute tail
            k = (pc.kronecker_depth_bound(n, s) + 1) // s  # ceil(log_s n)
            bound = (s + s - 2) * k + 3
            if r.toffoli_depth > bound:
                bad.append(("depth", n, s, r.toffoli_depth, bound))
    report("10 (envelope)", not bad, f"failures={bad[:5]}")


# -- 11: mutation sensitivity ------------------------------------------------------


def splice_out(circuit, victim):
    """Remove one gate, rewiring its consumers to its left operand."""
    from prefixcircuits.core import PrefixCircuit

    n = circuit.n
    repl = int(circuit._lefts[victim])
    keep = [g for g in range(circuit.size) if g != victim]
    remap = {n + old: n + new for new, old in enumerate(keep)}

    def wire(w):
        w = int(w)
        if w == n + victim:
            w = repl
        return remap.get(w, w)

    return PrefixCircuit.from_arrays(
        n,
        [wire(circuit._lefts[g]) for g in keep],
        [wire(circuit._rights[g]) for g in keep],
        [int(circuit._levels[g]) for g in keep],
        [wire(w) for w in circuit._outs],
    )


def test_criterion_11_mutation_sensitivity():
    c = pc.kronecker_circuit(32, 2)
    survivors = [g for g in range(c.size) if pc.validate_prefix(splice_out(c, g))]

    adder = qadder.build_adder(4, 2)
    toffolis = [i for i, g in enumerate(adder.gates) if g.kind == qadder.TOFFOLI]
    undetected = []
    for i in toffolis:
        broken = qadder.QuantumCircuit(
            adder.registers, adder.gates[:i] + adder.gates[i + 1:], 4, 2
        )
        if qadder.verify_adder(4, 2, circuit=broken).ok:
            undetected.append(i)
    report("11", not survivors and not undetected,
           f"circuit survivors={survivors}, adder undetected={undetected} "
           f"({c.size} gates / {len(toffolis)} toffolis mutated)")
