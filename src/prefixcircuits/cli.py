"""Command-line interface: generate, analyze, compare, and verify circuits.

The library returns values; every table, report and CSV is formatted here.
Exit codes: 0 = all checks passed, 1 = a check failed or stdout was closed
early, 2 = usage error.
Measured values are always printed next to the closed-form expectations so
drift is visible rather than silently tolerated.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import classic, kronalg, kronecker, qadder
from .core import _max_fanout, metrics, validate_prefix
from .serialization import export_dot, export_json


# name -> builder(n, s, k); s is the block size, k the Ladner-Fischer depth
GENERATORS = {
    "serial": lambda n, s, k: classic.serial(n),
    "sklansky": lambda n, s, k: classic.sklansky(n),
    "kogge-stone": lambda n, s, k: classic.kogge_stone(n),
    "brent-kung": lambda n, s, k: classic.brent_kung(n),
    "ladner-fischer": lambda n, s, k: classic.ladner_fischer(n, k),
    "kronecker": lambda n, s, k: kronecker.kronecker_circuit(n, s),
}


def cmd_generate(args) -> int:
    circuit = GENERATORS[args.generator](args.n, args.s, args.k)
    if args.validate and not validate_prefix(circuit):
        print(f"error: generated circuit failed prefix validation", file=sys.stderr)
        return 1
    _emit(export_dot(circuit) if args.format == "dot" else export_json(circuit),
          args.output)
    return 0


def _emit(text: str, path) -> None:
    """Write text to the file at path, or to stdout when path is empty."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        f = open(path, "w")
    except OSError as e:  # unwritable -o path: a usage error
        raise ValueError(f"cannot write {path}: {e.strerror}") from e
    with f:
        f.write(text)


def _table_row(name: str, n: int, s: int, k: int):
    if name not in GENERATORS:
        raise ValueError(f"unknown generator {name!r}")
    c = GENERATORS[name](n, s, k)
    m = metrics(c)
    return (name, n, m.size, m.depth, m.max_fanout,
            _max_fanout(c, count_outputs=True), m.deficiency, m.valid)


def _formula_checks(row):
    """Yields (field, expected, measured) triples for the closed forms."""
    name, n, size, depth, _, _, deficiency, valid = row
    if not valid:
        yield ("valid", True, False)
    is_pow2 = n >= 2 and (n & (n - 1)) == 0
    lg = int(math.log2(n)) if is_pow2 else None
    if name == "serial":
        yield ("size", n - 1, size)
        yield ("depth", n - 1, depth)
    elif name == "sklansky" and is_pow2:
        yield ("size", n * lg // 2, size)
        yield ("depth", lg, depth)
    elif name == "kogge-stone" and is_pow2:
        yield ("size", n * lg - n + 1, size)
        yield ("depth", lg, depth)
    elif name == "brent-kung" and is_pow2 and n >= 2:
        yield ("size", 2 * n - lg - 2, size)
        yield ("depth", 2 * lg - 1 if n > 2 else 1, depth)
        # entailed by the size and depth forms: (2n-lg-2)+(2lg-1)-(2n-2) = lg-1
        yield ("deficiency", lg - 1 if n > 2 else 0, deficiency)
    elif name == "kronecker":
        yield ("size (zero-deficiency: 2n-2-depth)", 2 * n - 2 - depth, size)


def cmd_table(args) -> int:
    names = args.generators.split(",") if args.generators else list(GENERATORS)
    n_list = _parse_n_list(args.n_list)
    rows = [_table_row(name, n, args.s, args.k) for name in names for n in n_list]
    rows.sort(key=lambda r: (names.index(r[0]), r[1]))

    header = ("generator", "n", "size", "depth", "fanout",
              "fanout(+outputs)", "deficiency", "valid")
    if args.csv:
        print(",".join(header))
        for r in rows:
            print(",".join(str(x) for x in r))
    elif args.json:
        print(json.dumps([dict(zip(header, r)) for r in rows], indent=1))
    else:
        widths = [max(len(str(x)) for x in [h] + [r[i] for r in rows])
                  for i, h in enumerate(header)]
        print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        for r in rows:
            print("  ".join(str(x).ljust(w) for x, w in zip(r, widths)))

    if not args.check_formulas:
        return 0
    failures = 0
    for row in rows:
        for field, expected, measured in _formula_checks(row):
            tag = "ok" if expected == measured else "MISMATCH"
            print(f"check {row[0]} n={row[1]} {field}: formula={expected} "
                  f"measured={measured} [{tag}]")
            failures += expected != measured
    if failures:
        print(f"{failures} formula check(s) failed", file=sys.stderr)
        return 1
    print("all formula checks passed")
    return 0


def cmd_mindepth(args) -> int:
    entries = kronecker.min_depth_table(args.max_n).entries
    print("n,min_depth,best_s")
    print("\n".join(f"{n},{d},{s}" for n, (d, s) in enumerate(entries[1:], 1)))
    return 0


def cmd_adder(args) -> int:
    if args.action == "build":
        _emit(qadder.netlist(qadder.build_adder(args.n, args.s)), args.output)
        return 0
    if args.action == "resources":
        r = qadder.estimate_resources(args.n, args.s)
        if args.json:
            print(json.dumps({"n": args.n, "s": args.s, "toffoli_count": r.toffoli_count,
                              "toffoli_depth": r.toffoli_depth,
                              "ancillas": r.ancilla_count}, indent=1))
            return 0
        # s*ceil(log_s n) + 2 in integers (3 at n = 1)
        depth_bound = kronecker.kronecker_depth_bound(args.n, args.s) + 3
        print(f"n={args.n} s={args.s}")
        print(f"toffoli_count: measured={r.toffoli_count} (linear-bound 4n={4 * args.n})")
        print(f"toffoli_depth: measured={r.toffoli_depth} (bound s*ceil(log_s n)+2={depth_bound})")
        print(f"ancillas: measured={r.ancilla_count}")
        return 0
    # action == "verify" (argparse restricts the choices)
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    report = qadder.verify_adder(args.n, args.s, trials=args.trials,
                                 seed=args.seed)
    mode = "exhaustive" if report.exhaustive else f"{report.cases} random pairs"
    if report.ok:
        print(f"adder n={args.n} s={args.s}: PASS ({mode})")
        return 0
    print(f"adder n={args.n} s={args.s}: FAIL ({mode})")
    n, s, a, b, got_sum, got_carry = report.counterexample
    print(f"counterexample: a={a} b={b} observed sum={got_sum} "
          f"carry={got_carry} expected sum={(a + b) % (1 << n)} "
          f"carry={(a + b) >> n}")
    return 1


def cmd_check_kron(args) -> int:
    if args.max_dim < 2:
        raise ValueError(f"--max-dim must be >= 2 (the grid [2,max_dim]^2 "
                         f"is empty at {args.max_dim})")
    dims = range(2, args.max_dim + 1)
    failures = [(n1, n2) for n1 in dims for n2 in dims
                if not kronalg.decomposition_check(n1, n2)]
    total = (args.max_dim - 1) ** 2
    if failures:
        print(f"FAIL: {len(failures)}/{total} pairs failed: {failures[:10]}")
        return 1
    print(f"PASS: decomposition identities hold on all {total} pairs "
          f"(n1, n2) in [2,{args.max_dim}]^2")
    return 0


def cmd_ratio(args) -> int:
    n_list = _parse_n_list(args.n_list)
    if min(n_list) < 2:
        raise ValueError("ratio needs every n >= 2 (log2(1) = 0)")
    rows = [(n, kronecker.kronecker_depth(n, args.s), kronecker.circuit_depth(n, args.s))
            for n in n_list]
    print("n,recursion_depth,depth/log2(n),built_depth")
    for n, d, built in rows:
        print(f"{n},{d},{d / math.log2(n):.4f},{built}")
    return 0


def _parse_n_list(text: str) -> list:
    """Accepts '8,16,32', ranges 'lo:hi[:step]', or geometric 'lo:hi:*k'."""
    out = []
    for part in text.split(","):
        bits = part.split(":")
        geometric = len(bits) == 3 and bits[2].startswith("*")
        if geometric:
            bits[2] = bits[2][1:]
        nums = [int(b) for b in bits]
        if len(nums) > 3 or min(nums) < 1 or (geometric and nums[2] < 2):
            raise ValueError(f"--n-list entry {part!r}: need n, step >= 1 and factor >= 2")
        lo, hi = nums[0], nums[min(1, len(nums) - 1)]
        if geometric:
            while lo <= hi:
                out.append(lo)
                lo *= nums[2]
        else:
            out.extend(range(lo, hi + 1, nums[2] if len(nums) == 3 else 1))
    if not out:
        raise ValueError(f"--n-list {text!r} is empty")
    return out


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line, as main() reports bad values
        self.exit(2, f"error: {message}\n")


def make_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="prefixcircuits",
        description="Synthesize, validate, and analyze parallel prefix "
                    "circuits and the derived reversible adder.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="emit one circuit as JSON or DOT")
    g.add_argument("generator", choices=GENERATORS)
    g.add_argument("-n", type=int, required=True)
    g.add_argument("-s", type=int, default=2, help="block size (kronecker)")
    g.add_argument("-k", type=int, default=0, help="depth parameter (ladner-fischer)")
    g.add_argument("--format", choices=("json", "dot"), default="json")
    g.add_argument("--validate", action="store_true")
    g.add_argument("-o", "--output")
    g.set_defaults(func=cmd_generate)

    t = sub.add_parser("table", help="metric table across generators")
    t.add_argument("--n-list", default="2:512:*2",
                   help="comma list; lo:hi or lo:hi:step ranges (hi inclusive)")
    t.add_argument("--generators", default=None,
                   help="comma list (default: all)")
    t.add_argument("-s", type=int, default=2)
    t.add_argument("-k", type=int, default=0)
    t.add_argument("--check-formulas", action="store_true")
    fmt = t.add_mutually_exclusive_group()
    fmt.add_argument("--csv", action="store_true")
    fmt.add_argument("--json", action="store_true")
    t.set_defaults(func=cmd_table)

    m = sub.add_parser("mindepth", help="minimum-depth table as CSV")
    m.add_argument("--max-n", type=int, required=True)
    m.set_defaults(func=cmd_mindepth)

    a = sub.add_parser("adder", help="build/verify/report the reversible adder")
    a.add_argument("action", choices=("build", "verify", "resources"))
    a.add_argument("-n", type=int, required=True)
    a.add_argument("-s", type=int, default=2)
    a.add_argument("--trials", type=int, default=10000)
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--json", action="store_true")
    a.add_argument("-o", "--output")
    a.set_defaults(func=cmd_adder)

    c = sub.add_parser("check-kron", help="verify the decomposition identities")
    c.add_argument("--max-dim", type=int, default=12)
    c.set_defaults(func=cmd_check_kron)

    r = sub.add_parser("ratio", help="depth/log2(n) of the blocked recursion")
    r.add_argument("--n-list", required=True)
    r.add_argument("-s", type=int, default=3)
    r.set_defaults(func=cmd_ratio)

    return p


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at shutdown
        return code
    except ValueError as e:  # bad argument values: usage error, no traceback
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader closed stdout early, e.g. `| head`
        # point stdout at devnull so the interpreter's final flush is silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
