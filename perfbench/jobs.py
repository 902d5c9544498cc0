"""Workloads of the prefixcircuits benchmark.

A job is a pair (kind, params) and a workload is a list of jobs drawn from
a seed, so the same seed gives the same list. `run_job` makes the job's
calls into the library through a `Clock`, which times each call and, in a
traced pass, keeps it as a span. `Checker.check` compares what the calls
returned with answers that do not come from the code under test.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import random
import sys
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import answers  # noqa: E402
from prefixcircuits import (  # noqa: E402
    classic, cli, core, kronalg, kronecker, qadder, serialization,
)

# Span names, one per kind of library call the jobs make; each yields the
# per-layer metrics <name>_s (summed duration) and <name>_calls.
LAYER_SPANS = (
    "core.metrics", "core.validate", "core.check", "core.evaluate",
    "core.validate_reject",
    "classic.serial", "classic.sklansky", "classic.kogge_stone",
    "classic.brent_kung", "classic.ladner_fischer",
    "kronecker.build", "kronecker.depth", "kronecker.edges",
    "kronalg.decomposition", "kronalg.prefix",
    "serialization.export_json", "serialization.import_json",
    "serialization.export_dot",
    "qadder.estimate", "qadder.build", "qadder.resources", "qadder.netlist",
    "qadder.verify", "qadder.verify_reject",
    "cli.main",
)
# Work handed to a layer, counted at the same call sites.
LAYER_COUNTS = (
    "core.gates_validated", "classic.gates", "kronecker.gates",
    "serialization.bytes", "qadder.gates", "qadder.verify_cases",
)


class Clock:
    """Times each library call of a job; `counts` tallies the work handed over.

    In a traced pass every call is also kept as a span (name, start, end,
    parent, job) whose parent is the span of the job that made the call.
    Spans stay in memory until the run writes them out.
    """

    def __init__(self, traced: bool):
        self.traced = traced
        self.spans: list = []
        self.counts: Counter = Counter()
        self.job_s = 0.0
        self._job = None
        self._parent = None

    def begin(self, job: int, kind: str):
        self.job_s = 0.0
        self._job = job
        if self.traced:
            self._parent = len(self.spans)
            self.spans.append([f"job.{kind}", perf_counter(), None, None, job])

    def end(self) -> float:
        """Closes the job; returns the time its library calls took."""
        if self.traced:
            self.spans[self._parent][2] = perf_counter()
        return self.job_s

    def call(self, name: str, fn, *args, **kwargs):
        start = perf_counter()
        out = fn(*args, **kwargs)
        end = perf_counter()
        self.job_s += end - start
        if self.traced:
            self.spans.append((name, start, end, self._parent, self._job))
        return out


def clear_caches():
    """Empty the library's process-wide memo tables, which every CLI process
    starts without, so that no timed job inherits them warm."""
    for fn in (kronecker.kronecker_depth, kronecker.circuit_depth):
        getattr(fn, "cache_clear", lambda: None)()


# -- job bodies -----------------------------------------------------------------

GENERATORS = {
    "serial": lambda n, arg: classic.serial(n),
    "sklansky": lambda n, arg: classic.sklansky(n),
    "kogge_stone": lambda n, arg: classic.kogge_stone(n),
    "brent_kung": lambda n, arg: classic.brent_kung(n),
    "ladner_fischer": lambda n, arg: classic.ladner_fischer(n, arg),
    "kronecker": lambda n, arg: kronecker.kronecker_circuit(n, arg),
}
ZERO_DEFICIENCY = ("serial", "kronecker")


def build(clock, gen, n, arg):
    layer = "kronecker" if gen == "kronecker" else "classic"
    name = "kronecker.build" if gen == "kronecker" else f"classic.{gen}"
    c = clock.call(name, GENERATORS[gen], n, arg)
    clock.counts[f"{layer}.gates"] += c.size
    clock.counts["gates"] += c.size
    return c


def arrays(c):
    """The circuit's flat wire-id arrays; the library has no public accessor."""
    return c._lefts, c._rights, c._levels, c._outs


def validate(clock, c, name="core.validate"):
    clock.counts["core.gates_validated"] += c.size
    return clock.call(name, core.validate_prefix, c)


def measure(clock, c, count_outputs=False):
    clock.counts["core.gates_validated"] += c.size
    return clock.call("core.metrics", core.metrics, c, count_outputs=count_outputs)


def circuit_job(clock, gen, n, arg, evaluate):
    """Build, then metrics without and with outputs counted, as `table` does."""
    c = build(clock, gen, n, arg)
    out = {"m": measure(clock, c), "mo": measure(clock, c, True)}
    if evaluate is not None:
        out["xs"] = answers.affine_inputs(n, evaluate)
        out["ys"] = clock.call("core.evaluate", core.evaluate, c, out["xs"],
                               answers.compose)
    return out


def pipeline_job(clock, gen, n, arg):
    """Build, rebuild from the arrays (the structure check alone), validate,
    then metrics."""
    c = build(clock, gen, n, arg)
    rebuilt = clock.call("core.check", core.PrefixCircuit.from_arrays, n, *arrays(c))
    return {"valid": validate(clock, rebuilt), "m": measure(clock, rebuilt)}


def mutant_job(clock, gen, n, arg, victim):
    """Splice one gate out; see answers.splice for why it must be rejected."""
    c = build(clock, gen, n, arg)
    lefts, rights, levels, outs = arrays(c)
    if gen in ZERO_DEFICIENCY:
        g = victim % c.size
    else:
        out_gates = outs[outs >= n] - n
        g = int(out_gates[victim % len(out_gates)])
    parts = answers.splice(n, lefts, rights, levels, outs, g)
    mutant = clock.call("core.check", core.PrefixCircuit.from_arrays, *parts)
    return {"valid": validate(clock, mutant, "core.validate_reject")}


def mindepth_job(clock, max_n):
    table = clock.call("kronecker.depth", kronecker.min_depth_table, max_n)
    return {"entries": table.entries}


def edges_job(clock, n, s, seed):
    depth = answers.kronecker_built_depth(n, s)
    listed = clock.call("kronecker.edges", lambda: [
        kronecker.level_edges(n, s, level) for level in range(depth)])
    rng = random.Random(seed)
    probes = []
    for level in range(depth):
        dst = rng.randrange(n)
        probes += [(level, dst, dst), (level, max(dst - 1, 0), dst),
                   (level, rng.randrange(n), dst)]
    said = clock.call("kronecker.edges", lambda: [
        kronecker.edge_predicate(n, s, *probe) for probe in probes])
    return {"listed": listed, "probes": probes, "said": said}


def decomposition_job(clock, n1, n2):
    return {"ok": clock.call("kronalg.decomposition", kronalg.decomposition_check,
                             n1, n2)}


def prefix_job(clock, n1, n2, seed):
    rng = random.Random(seed)
    x = [rng.randrange(-1000, 1000) for _ in range(n1 * n2)]
    return {"x": x, "y": clock.call("kronalg.prefix", kronalg.prefix_via_kron,
                                    x, n1, n2)}


def roundtrip_job(clock, gen, n, arg):
    c = build(clock, gen, n, arg)
    text = clock.call("serialization.export_json", serialization.export_json, c)
    clock.counts["serialization.bytes"] += len(text)
    back = clock.call("serialization.import_json", serialization.import_json, text)
    return {"same": back == c}


def dot_job(clock, gen, n, arg):
    c = build(clock, gen, n, arg)
    text = clock.call("serialization.export_dot", serialization.export_dot, c)
    clock.counts["serialization.bytes"] += len(text)
    return {"size": c.size, "head": text[:8], "arrows": text.count(" -> ")}


def estimate_job(clock, n, s):
    return {"r": clock.call("qadder.estimate", qadder.estimate_resources, n, s)}


def build_adder(clock, n, s):
    a = clock.call("qadder.build", qadder.build_adder, n, s)
    clock.counts["qadder.gates"] += len(a.gates)
    clock.counts["gates"] += len(a.gates)
    return a


def adder_job(clock, n, s):
    a = build_adder(clock, n, s)
    r = clock.call("qadder.resources", qadder.resources, a)
    text = clock.call("qadder.netlist", qadder.netlist, a)
    return {"r": r, "gates": len(a.gates),
            "toffolis": sum(g.kind == qadder.TOFFOLI for g in a.gates),
            "netlist_gates": text.count("\n") - text.count("# layer"),
            "netlist_toffolis": text.count("\nT ")}


def verify_job(clock, n, s, trials, seed):
    a = build_adder(clock, n, s)
    rep = clock.call("qadder.verify", qadder.verify_adder, n, s, trials=trials,
                     seed=seed, circuit=a)
    clock.counts["qadder.verify_cases"] += rep.cases
    return {"rep": rep}


def verify_mutant_job(clock, n, s, trials, seed, victim):
    """Delete one Toffoli, so that verification must fail.

    At n <= 10 the check is exhaustive and any Toffoli may go: each single
    deletion there changes a checked output (enumerated for s <= 4). At
    larger n only a generate or first-level chain Toffoli goes; that flips
    its carry for at least one random pair in eight, which 10^4 pairs do
    not all miss.
    """
    a = build_adder(clock, n, s)
    victims = [i for i, g in enumerate(a.gates) if g.kind == qadder.TOFFOLI and (
        n <= 10 or g.toffoli_layer == "g-init"
        or g.toffoli_layer.startswith("L0 chain"))]
    i = victims[victim % len(victims)]
    mutant = qadder.QuantumCircuit(a.registers, a.gates[:i] + a.gates[i + 1:], n, s)
    rep = clock.call("qadder.verify_reject", qadder.verify_adder, n, s,
                     trials=trials, seed=seed, circuit=mutant)
    clock.counts["qadder.verify_cases"] += rep.cases
    return {"rep": rep, "mutant": mutant}


def cli_job(clock, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        rc = clock.call("cli.main", cli.main, list(argv))
    return {"rc": rc, "text": buf.getvalue()}


def touch_job(clock, jobs):
    return [run_job(clock, job) for job in jobs]


BODIES = {
    "circuit": circuit_job, "pipeline": pipeline_job, "mutant": mutant_job,
    "mindepth": mindepth_job, "edges": edges_job,
    "decomposition": decomposition_job, "prefix": prefix_job,
    "roundtrip": roundtrip_job, "dot": dot_job, "estimate": estimate_job,
    "adder": adder_job, "verify": verify_job, "verify_mutant": verify_mutant_job,
    "cli": cli_job, "touch": touch_job,
}


def run_job(clock, job):
    kind, params = job
    return BODIES[kind](clock, **params)


# One tiny call into every layer. Every workload runs it once per pass, so
# every per-layer metric is measured on every workload; it is also the
# warm-up that setup_s times.
TOUCH = ("touch", {"jobs": (
    ("circuit", {"gen": "serial", "n": 16, "arg": 0, "evaluate": 1}),
    ("circuit", {"gen": "sklansky", "n": 16, "arg": 0, "evaluate": None}),
    ("circuit", {"gen": "kogge_stone", "n": 16, "arg": 0, "evaluate": None}),
    ("circuit", {"gen": "brent_kung", "n": 16, "arg": 0, "evaluate": None}),
    ("circuit", {"gen": "ladner_fischer", "n": 16, "arg": 2, "evaluate": None}),
    ("pipeline", {"gen": "kronecker", "n": 16, "arg": 3}),
    ("mutant", {"gen": "kronecker", "n": 16, "arg": 3, "victim": 5}),
    ("mindepth", {"max_n": 32}),
    ("edges", {"n": 16, "s": 3, "seed": 1}),
    ("decomposition", {"n1": 2, "n2": 3}),
    ("prefix", {"n1": 2, "n2": 3, "seed": 1}),
    ("roundtrip", {"gen": "kronecker", "n": 16, "arg": 3}),
    ("dot", {"gen": "kronecker", "n": 16, "arg": 3}),
    ("estimate", {"n": 8, "s": 2}),
    ("adder", {"n": 8, "s": 2}),
    ("verify", {"n": 4, "s": 2, "trials": 100, "seed": 1}),
    ("verify_mutant", {"n": 4, "s": 2, "trials": 100, "seed": 1, "victim": 3}),
)})


# -- checks -----------------------------------------------------------------------


def _opt(argv, flag):
    return argv[argv.index(flag) + 1]


class Checker:
    """Checks job outputs, keeps the answers it has worked out, and counts
    the mutants that were rejected as they must be."""

    def __init__(self):
        self.rejects = 0
        self._resources: dict = {}
        self._entries: tuple = ()

    def check(self, job, out) -> list:
        """Mismatches between a job's outputs and the expected answers."""
        kind, params = job
        return getattr(self, "_" + kind)(out, **params)

    def adder_resources(self, n, s):
        """The builder's gate-by-gate count, which the estimator must equal."""
        if (n, s) not in self._resources:
            self._resources[n, s] = qadder.resources(qadder.build_adder(n, s))
        return self._resources[n, s]

    def depth_entries(self, max_n):
        if len(self._entries) <= max_n:
            self._entries = answers.min_depth_entries(max_n)
        return self._entries[:max_n + 1]

    def _circuit(self, out, gen, n, arg, evaluate):
        m, mo = out["m"], out["mo"]
        errors = answers.circuit_errors(gen, n, arg, m.size, m.depth, m.max_fanout,
                                        m.deficiency, mo.max_fanout)
        if not (m.valid and mo.valid):
            errors.append(f"{gen}(n={n}, arg={arg}) declared invalid")
        if (mo.size, mo.depth, mo.deficiency) != (m.size, m.depth, m.deficiency):
            errors.append(f"{gen}(n={n}) metrics change with count_outputs")
        if evaluate is not None and out["ys"] != answers.serial_fold(out["xs"]):
            errors.append(f"{gen}(n={n}) evaluate differs from the serial fold")
        return errors

    def _pipeline(self, out, gen, n, arg):
        m = out["m"]
        errors = answers.circuit_errors(gen, n, arg, m.size, m.depth, m.max_fanout,
                                        m.deficiency)
        if not (out["valid"] and m.valid):
            errors.append(f"{gen}(n={n}, arg={arg}) declared invalid")
        return errors

    def _mutant(self, out, gen, n, arg, victim):
        if out["valid"]:
            return [f"spliced {gen}(n={n}, arg={arg}) accepted"]
        self.rejects += 1
        return []

    def _mindepth(self, out, max_n):
        if tuple(out["entries"]) != self.depth_entries(max_n):
            return [f"min_depth_table({max_n}) differs from the full scan"]
        return []

    def _edges(self, out, n, s, seed):
        want = answers.grid_edges(n, *arrays(kronecker.kronecker_circuit(n, s))[:3])
        errors = []
        if len(out["listed"]) != len(want):
            errors.append(f"kronecker(n={n}, s={s}) has {len(want)} levels")
        errors += [f"level_edges(n={n}, s={s}, level={level}) differs from the DAG"
                   for level, got in enumerate(out["listed"])
                   if set(got) != want.get(level, set())]
        errors += [f"edge_predicate(n={n}, s={s}, {level}, {a}, {b}) = {said}"
                   for (level, a, b), said in zip(out["probes"], out["said"])
                   if said != ((a, b) in want.get(level, ()))]
        return errors

    def _decomposition(self, out, n1, n2):
        return [] if out["ok"] is True else [f"decomposition_check({n1}, {n2}) failed"]

    def _prefix(self, out, n1, n2, seed):
        if out["y"].tolist() != list(accumulate(out["x"])):
            return [f"prefix_via_kron(n1={n1}, n2={n2}) differs from the running sum"]
        return []

    def _roundtrip(self, out, gen, n, arg):
        return [] if out["same"] else [f"{gen}(n={n}) changed in a JSON round trip"]

    def _dot(self, out, gen, n, arg):
        if not out["head"].startswith("digraph") or out["arrows"] != 2 * out["size"] + n:
            return [f"{gen}(n={n}) DOT has {out['arrows']} edges"]
        return []

    def _estimate(self, out, n, s):
        want = self.adder_resources(n, s)
        return [] if out["r"] == want else [f"estimate({n}, {s}) = {out['r']} != {want}"]

    def _adder(self, out, n, s):
        r, errors = out["r"], []
        if r != qadder.estimate_resources(n, s):
            errors.append(f"resources(build_adder({n}, {s})) differs from the estimate")
        if not out["toffolis"] == out["netlist_toffolis"] == r.toffoli_count:
            errors.append(f"adder({n}, {s}) Toffoli counts differ")
        if out["netlist_gates"] != out["gates"]:
            errors.append(f"adder({n}, {s}) netlist has {out['netlist_gates']} gates")
        return errors

    def _verify(self, out, n, s, trials, seed):
        rep, exhaustive = out["rep"], n <= 10
        if not rep.ok or rep.exhaustive != exhaustive or \
                rep.cases != (4 ** n if exhaustive else trials):
            return [f"verify_adder({n}, {s}) = {rep}"]
        return []

    def _verify_mutant(self, out, n, s, trials, seed, victim):
        rep = out["rep"]
        if rep.ok:
            return [f"adder({n}, {s}) without Toffoli {victim} passed"]
        _, _, a, b, got_sum, got_carry = rep.counterexample
        if (got_sum, got_carry) == ((a + b) % (1 << n), (a + b) >> n) and \
                not self._dirty(out["mutant"], a, b):
            return [f"adder({n}, {s}) counterexample a={a} b={b} adds correctly"]
        self.rejects += 1
        return []

    @staticmethod
    def _dirty(circuit, a, b):
        """Does `circuit` change `a` or leave scratch set when adding a + b?"""
        regs = circuit.registers
        state = [0] * circuit.n_qubits
        for i, (qa, qb) in enumerate(zip(regs["a"], regs["b"])):
            state[qa], state[qb] = (a >> i) & 1, (b >> i) & 1
        final = qadder.simulate(circuit, state)
        return any(final[q] != (a >> i) & 1 for i, q in enumerate(regs["a"])) or \
            any(final[q] for name, qs in regs.items() if name not in ("a", "b", "g")
                for q in qs)

    def _cli(self, out, argv):
        rc, text = out["rc"], out["text"]
        if rc != 0:
            return [f"{' '.join(argv)} exited {rc}"]
        if argv[0] == "table":
            return self._table(argv, text)
        if argv[0] == "mindepth":
            got = [tuple(map(int, line.split(","))) for line in text.splitlines()[1:]]
            want = [(n, *e) for n, e in enumerate(self.depth_entries(
                int(_opt(argv, "--max-n")))) if n]
            return [] if got == want else ["mindepth CSV differs from the full scan"]
        if argv[:2] == ["adder", "resources"]:
            want = self.adder_resources(int(_opt(argv, "-n")), int(_opt(argv, "-s")))
            got = json.loads(text)
            if (got["toffoli_count"], got["toffoli_depth"], got["ancillas"]) != \
                    (want.toffoli_count, want.toffoli_depth, want.ancilla_count):
                return [f"{' '.join(argv)} printed {got}"]
            return []
        return [] if "PASS" in text else [f"{' '.join(argv)} printed no PASS"]

    @staticmethod
    def _table(argv, text):
        gens = _opt(argv, "--generators").split(",")
        ns = [int(v) for v in _opt(argv, "--n-list").split(",")]
        args = {"kronecker": int(_opt(argv, "-s")), "ladner-fischer": int(_opt(argv, "-k"))}
        rows = [line.split(",") for line in text.splitlines()[1:] if line.count(",") == 7]
        errors = [] if len(rows) == len(gens) * len(ns) else [f"table has {len(rows)} rows"]
        for name, *fields, valid in rows:
            n, size, depth, fanout, fanout_out, deficiency = map(int, fields)
            errors += answers.circuit_errors(name.replace("-", "_"), n, args.get(name, 0),
                                             size, depth, fanout, deficiency, fanout_out)
            if valid != "True":
                errors.append(f"table row {name} n={n} invalid")
        return errors

    def _touch(self, out, jobs):
        return [e for job, o in zip(jobs, out) for e in self.check(job, o)]


# -- passes -----------------------------------------------------------------------


@dataclass
class PassResult:
    traced: bool
    job_s: list  # library time of each job that completed
    counts: Counter
    spans: list
    failures: list  # (job index, first mismatch)

    @property
    def wall_s(self) -> float:
        return sum(self.job_s)


def run_pass(jobs, checker, traced=False) -> PassResult:
    """Runs every job once, checking each output as soon as it is made.

    The benchmark's own objects (job list, answers) are frozen out of the
    cyclic collector first, so that the collections the library's calls
    trigger scan only what those calls keep alive.
    """
    gc.collect()
    gc.freeze()
    clock = Clock(traced)
    job_s, failures = [], []
    try:
        for i, job in enumerate(jobs):
            clear_caches()
            gc.collect()
            clock.begin(i, job[0])
            try:
                out = run_job(clock, job)
            except Exception as e:  # a job that raises is an error; the pass goes on
                clock.end()
                failures.append((i, f"{job[0]} raised {e!r}"))
                continue
            job_s.append(clock.end())
            errors = checker.check(job, out)
            if errors:
                failures.append((i, errors[0]))
    finally:
        gc.unfreeze()
    return PassResult(traced, job_s, clock.counts, clock.spans, failures)


# -- workloads ----------------------------------------------------------------------


def _strata(rng, lo, hi, count):
    """One draw from each of `count` equal slices of [lo, hi): a seeded mix
    whose total work hardly changes with the seed."""
    cuts = [lo + (hi - lo) * i // count for i in range(count + 1)]
    return [rng.randrange(a, b) for a, b in zip(cuts, cuts[1:])]


def _arg(rng, gen, n):
    if gen == "kronecker":
        return rng.randrange(2, max(2, n // 2) + 1)
    if gen == "ladner_fischer":
        return rng.randrange(0, answers.ceil_log2(n) + 1)
    return 0


def sweep_small(rng):
    circuits = [
        {"gen": gen, "n": n, "arg": _arg(rng, gen, n),
         "evaluate": rng.randrange(1 << 32) if rng.random() < 0.05 else None}
        for gen in GENERATORS
        for n in [2 ** e for e in range(1, 10)] + _strata(rng, 2, 513, 384)
    ]
    jobs = [("circuit", p) for p in circuits]
    jobs += [("mutant", {"gen": p["gen"], "n": p["n"], "arg": p["arg"],
                         "victim": rng.randrange(1 << 32)})
             for p in rng.sample(circuits, len(circuits) // 4)]
    jobs.append(("mindepth", {"max_n": rng.randrange(192, 257)}))
    for n in _strata(rng, 2, 513, 24):
        jobs.append(("edges", {"n": n, "s": _arg(rng, "kronecker", n),
                               "seed": rng.randrange(1 << 32)}))
    jobs += [("decomposition", {"n1": n1, "n2": n2})
             for n1 in range(2, 8) for n2 in range(2, 8)]
    jobs += [("prefix", {"n1": rng.randrange(2, 33), "n2": rng.randrange(2, 33),
                         "seed": rng.randrange(1 << 32)}) for _ in range(16)]
    table_ns = [rng.choice((64, 128, 256))] + _strata(rng, 2, 257, 4)
    jobs += [
        ("cli", {"argv": ["table", "--n-list", ",".join(map(str, table_ns)),
                          "--generators", "serial,sklansky,kogge-stone,brent-kung,"
                          "ladner-fischer,kronecker", "-s", "2", "-k", "0",
                          "--check-formulas", "--csv"]}),
        ("cli", {"argv": ["mindepth", "--max-n", str(rng.randrange(64, 129))]}),
        ("cli", {"argv": ["check-kron", "--max-dim", str(rng.randrange(5, 8))]}),
    ]
    return jobs


def large_circuits(rng):
    def kron(n):
        return {"gen": "kronecker", "n": n - rng.randrange(n // 1000),
                "arg": rng.randrange(32, 65)}

    jobs = [("pipeline", kron(10 ** 6))]
    jobs += [("pipeline", {"gen": gen, "n": n, "arg": 0})
             for gen, n in (("serial", 2 ** 18), ("sklansky", 2 ** 16),
                            ("kogge_stone", 2 ** 16), ("brent_kung", 2 ** 17))]
    jobs.append(("pipeline", {"gen": "ladner_fischer", "n": 2 ** 17,
                              "arg": rng.randrange(6, 18)}))
    jobs.append(("roundtrip", kron(50_000)))
    jobs.append(("dot", kron(25_000)))
    jobs.append(("mutant", {**kron(10 ** 6), "victim": rng.randrange(1 << 32)}))
    jobs.append(("cli", {"argv": [
        "table", "--n-list", f"16384,{rng.randrange(16385, 32768)}",
        "--generators", "brent-kung,kronecker", "-s", str(rng.randrange(2, 9)),
        "-k", "0", "--check-formulas", "--csv"]}))
    return jobs


def adder_resources(rng):
    pairs = [(n, s) for s in (2, 3, 4) for n in _strata(rng, 1, 4097, 64)]
    jobs = [("estimate", {"n": n, "s": s}) for n, s in pairs] * 10
    jobs += [("adder", {"n": n + rng.randrange(n // 100), "s": s})
             for n, s in ((12_000, 2), (24_000, 3), (48_000, 4))]
    # CLI calls, each a little slower than the largest estimate, are the
    # workload's slowest 2% of jobs: p99 then lands on them, not on jitter.
    jobs += [("cli", {"argv": ["adder", "resources", "-n", str(n), "-s", str(s), "--json"]})
             for n, s in rng.sample([p for p in pairs if p[0] > 2048], 40)]
    return jobs


def adder_verify(rng):
    def seed():
        return rng.randrange(1 << 32)

    jobs = [("verify", {"n": n, "s": s, "trials": 10_000, "seed": seed()})
            for n in range(1, 11) for s in (2, 3, 4)]
    jobs += [("verify", {"n": n - rng.randrange(8), "s": s, "trials": 10_000,
                         "seed": seed()})
             for n, s in ((1024, 2), (640, 3), (320, 4))]
    jobs += [("verify_mutant", {"n": 10, "s": rng.choice((2, 3, 4)), "trials": 10_000,
                                "seed": seed(), "victim": seed()})
             for _ in range(24)]
    jobs += [("verify_mutant", {"n": 64 + rng.randrange(8), "s": s, "trials": 10_000,
                                "seed": seed(), "victim": seed()})
             for s in (2, 3, 4, 2, 3, 4, 2, 3)]
    jobs.append(("cli", {"argv": ["adder", "verify", "-n", str(200 + rng.randrange(16)),
                                  "-s", str(rng.choice((2, 3, 4))), "--trials", "2000",
                                  "--seed", str(rng.randrange(1 << 31))]}))
    return jobs


WORKLOADS = {
    "sweep_small": sweep_small,
    "large_circuits": large_circuits,
    "adder_resources": adder_resources,
    "adder_verify": adder_verify,
}


def make_jobs(workload: str, seed: int) -> list:
    """The workload's job list for `seed`, the touch job included, shuffled."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = WORKLOADS[workload](rng) + [TOUCH]
    rng.shuffle(jobs)
    return jobs
