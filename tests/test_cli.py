"""Command-line surface: outputs, exit codes, and determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import prefixcircuits as pc
from prefixcircuits import core
from prefixcircuits.cli import GENERATORS, main


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as e:  # argparse's own usage errors
        code = e.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("argv, code", [
    ("table --n-list 8,x", 2),
    ("table --n-list 0", 2),
    ("table --n-list 2:8:*1", 2),
    ("table --n-list 9:3", 2),
    ("table --n-list 2:8:*2 --generators serial,foo", 2),
    ("table --n-list 8 --jobs 2", 2),  # removed option
    ("table --n-list 8 --csv --json", 2),
    ("mindepth --max-n 0", 2),
    ("ratio --n-list 1", 2),
    ("ratio --n-list 2:4", 0),
    ("adder verify -n 20 --trials 0", 2),
    ("adder verify -n 4 --trials 0", 2),
    ("adder verify -n 4 --exhaustive", 2),  # removed option
    ("adder verify -n 20 --trials 1", 0),
    ("adder resources -n 0", 2),
    ("adder resources -n 8 --trials 0", 0),  # --trials is read by verify only
    ("adder build -n 8 --trials 0", 0),
    ("adder resources -n 4 -s 1000000000", 0),  # one block: no loop over s
    ("adder build -n 4 -s 1", 2),
    ("generate kronecker -n 8 -s 1", 2),
    ("generate serial -n 0", 2),
    ("generate ladner-fischer -n 8 -k 9", 2),
    ("generate serial -n 3 -o /nonexistent/x", 2),
    ("adder build -n 4 -o /nonexistent/x", 2),
])
def test_exit_codes(capsys, argv, code):
    got, out, err = run(capsys, *argv.split())
    assert got == code
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("n_list, entry", [
    ("8,", "''"), ("8,x", "'x'"), ("2:x", "'2:x'"), ("2:8:*x", "'2:8:*x'")])
def test_n_list_entry_not_an_integer(capsys, n_list, entry):
    # int()'s own message named neither the option nor the entry
    assert run(capsys, "table", "--n-list", n_list) == (
        2, "", f"error: --n-list entry {entry}: expected n, lo:hi[:step] or lo:hi:*k"
               " of integers\n")


def src_env() -> dict:
    """The environment of a fresh interpreter that imports this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def test_closed_stdout_exits_1_without_traceback():
    # the JSON table is far more than a pipe buffers (64 KiB), so its write
    # meets the closed pipe: exit 1, nothing on stderr but what we print
    proc = subprocess.Popen(
        [sys.executable, "-m", "prefixcircuits.cli", "table", "--n-list", "2:512",
         "--json"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=src_env())
    assert proc.stdout.readline() == b"[\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err and "Exception ignored" not in err, err


class TestGenerate:
    def test_dot_output(self, capsys):
        code, out, _ = run(capsys, "generate", "kronecker", "-n", "27", "-s", "3",
                           "--format", "dot", "--validate")
        assert code == 0
        assert out.count("shape=circle") == pc.kronecker_circuit(27, 3).size

    def test_serial_1_has_no_gates(self, capsys):
        code, out, _ = run(capsys, "generate", "serial", "-n", "1")
        assert code == 0
        assert json.loads(out)["gates"] == []

    def test_bad_block_size_is_usage_error(self, capsys):
        code, _, err = run(capsys, "generate", "kronecker", "-n", "8", "-s", "1")
        assert code == 2
        assert "error" in err

    def test_unknown_generator_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "mystery", "-n", "4"])
        assert exc.value.code == 2

    def test_json_round_trips(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        code, _, _ = run(capsys, "generate", "brent-kung", "-n", "12",
                         "-o", str(path))
        assert code == 0
        assert pc.import_json(path.read_text()) == pc.brent_kung(12)


class TestTable:
    def test_golden_rows_n8(self, capsys):
        code, out, _ = run(capsys, "table", "--n-list", "8", "--csv")
        assert code == 0
        rows = {r.split(",")[0]: r.split(",") for r in out.strip().splitlines()[1:]}
        assert rows["sklansky"][2:4] == ["12", "3"]
        assert rows["kogge-stone"][2:4] == ["17", "3"]
        assert rows["brent-kung"][2:4] == ["11", "5"]

    def test_validates_each_row_once(self, capsys, monkeypatch):
        calls = []
        validate = core.validate_prefix
        monkeypatch.setattr(core, "validate_prefix",
                            lambda c: calls.append(c.n) or validate(c))
        code, out, _ = run(capsys, "table", "--n-list", "2,8,13", "--csv")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 18 and sorted(calls) == [2] * 6 + [8] * 6 + [13] * 6

    def test_check_formulas_powers_of_two(self, capsys):
        code, out, _ = run(capsys, "table", "--n-list", "2:512:*2",
                           "--check-formulas")
        assert code == 0
        assert "all formula checks passed" in out
        assert "MISMATCH" not in out

    def test_n2_all_generators_one_gate(self, capsys):
        code, out, _ = run(capsys, "table", "--n-list", "2", "--csv")
        assert code == 0
        for row in out.strip().splitlines()[1:]:
            cells = row.split(",")
            assert cells[2] == "1" and cells[3] == "1", row

    def test_unsorted_n_list_rows_sorted_per_generator(self, capsys):
        _, out, _ = run(capsys, "table", "--n-list", "16,4,8", "--generators",
                        "kronecker,serial", "--csv")
        rows = [r.split(",")[:2] for r in out.strip().splitlines()[1:]]
        assert rows == [[g, n] for g in ("kronecker", "serial") for n in ("4", "8", "16")]

    def test_default_generators_are_the_table(self, capsys):
        code, out, _ = run(capsys, "table", "--n-list", "8", "--csv")
        assert code == 0
        assert [r.split(",")[0] for r in out.strip().splitlines()[1:]] == list(GENERATORS)
        for name, builder in GENERATORS.items():
            assert pc.validate_prefix(builder(8, 3, 1)), name


# goldens taken from the CLI before its formatters moved out of the library
MINDEPTH_6 = """\
n,min_depth,best_s
1,0,2
2,1,2
3,2,2
4,3,2
5,3,2
6,3,2
"""
RATIO_9_27_81 = """\
n,recursion_depth,depth/log2(n),built_depth
9,5,1.5773,5
27,8,1.6825,11
81,11,1.7351,29
"""
# the adder at (8, 2), 8 = 2**3 taking the power-of-s step
RESOURCES_8_2 = """\
n=8 s=2
toffoli_count: measured=21 (linear-bound 4n=32)
toffoli_depth: measured=6 (bound s*ceil(log_s n)+2=8)
ancillas: measured=10
"""
RESOURCES_8_2_JSON = """\
{
 "n": 8,
 "s": 2,
 "toffoli_count": 21,
 "toffoli_depth": 6,
 "ancillas": 10
}
"""


class TestMindepth:
    def test_golden(self, capsys):
        assert run(capsys, "mindepth", "--max-n", "6") == (0, MINDEPTH_6, "")


class TestAdder:
    def test_resources_golden(self, capsys):
        assert run(capsys, "adder", "resources", "-n", "8", "-s", "2") == (0, RESOURCES_8_2, "")
        assert run(capsys, "adder", "resources", "-n", "8", "-s", "2", "--json") == (
            0, RESOURCES_8_2_JSON, "")

    def test_resources_depth_bound_exact_at_power_of_s(self, capsys):
        # 125 = 5**3: s*ceil(log_s n) + 2 = 5*3 + 2
        code, out, _ = run(capsys, "adder", "resources", "-n", "125", "-s", "5")
        assert code == 0
        assert "(bound s*ceil(log_s n)+2=17)" in out

    def test_resources_json(self, capsys):
        code, out, _ = run(capsys, "adder", "resources", "-n", "8", "-s", "2",
                           "--json")
        assert code == 0
        rep = json.loads(out)
        assert rep["toffoli_depth"] <= 8  # 2*ceil(log2 8) + 2

    def test_verify_small_n_is_exhaustive(self, capsys):
        code, out, _ = run(capsys, "adder", "verify", "-n", "4", "-s", "2")
        assert (code, out) == (0, "adder n=4 s=2: PASS (exhaustive)\n")

    def test_zero_n_usage_error(self, capsys):
        code, _, _ = run(capsys, "adder", "verify", "-n", "0", "-s", "2")
        assert code == 2

    def test_build_netlist(self, capsys):
        code, out, _ = run(capsys, "adder", "build", "-n", "2", "-s", "2")
        assert code == 0
        assert out.splitlines()[1] == "T 0 2 4"


class TestCheckKron:
    def test_grid_passes(self, capsys):
        code, out, _ = run(capsys, "check-kron", "--max-dim", "6")
        assert code == 0 and "PASS" in out

    def test_trivial_grid(self, capsys):
        code, out, err = run(capsys, "check-kron", "--max-dim", "1")
        assert code == 2 and out == "" and err.startswith("error: ")


class TestRatio:
    def test_golden(self, capsys):
        code, out, err = run(capsys, "ratio", "--n-list", "9,27,81", "-s", "3")
        assert (code, out, err) == (0, RATIO_9_27_81, "")
        # depth / log2(n) rises with n and stays below 2 at s = 3
        ratios = [float(row.split(",")[2]) for row in out.splitlines()[1:]]
        assert ratios == sorted(ratios) and ratios[-1] < 2
        assert run(capsys, "ratio", "--n-list", "2,1024", "-s", "2")[1].splitlines()[1:] == [
            "2,1,1.0000,1", "1024,19,1.9000,513"]

    def test_bad_block_size_prints_nothing(self, capsys):
        code, out, err = run(capsys, "ratio", "--n-list", "9", "-s", "1")
        assert (code, out, err) == (2, "", "error: block size s must be >= 2\n")


def test_import_starts_no_process_machinery():
    # every CLI process and benchmark set-up pays the import; keep it lean
    code = ("import sys, prefixcircuits.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=src_env()).stdout
    assert out == "[]\n"
