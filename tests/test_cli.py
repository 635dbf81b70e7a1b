import csv
import io
import json
import os
import subprocess
import sys
import zipfile
from pathlib import Path

import pytest

import triplesieve
from triplesieve import constants
from triplesieve.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


# ---------------------------------------------------------------------------
# count / ratio / functions / constants
# ---------------------------------------------------------------------------


def test_count_triple_query(capsys):
    code, out, _ = run_cli(capsys, "count", "pi_1ab", "100", "1", "1", "--no-timestamp")
    rows = parse_csv(out)
    assert code == 0
    assert rows[0]["count"] == "4"
    assert rows[0]["a"] == "1" and rows[0]["b"] == "1" and rows[0]["s"] == ""


def test_count_small_x_is_zero(capsys):
    code, out, _ = run_cli(capsys, "count", "pi_1ab", "4", "1", "1", "--no-timestamp")
    assert code == 0
    assert parse_csv(out)[0]["count"] == "0"


def test_count_mirrored_query(capsys):
    code, out, _ = run_cli(capsys, "count", "D_1ab", "30", "2", "2", "--no-timestamp")
    assert code == 0
    assert parse_csv(out)[0]["count"] == "7"


def test_count_parity_error_exits_one(capsys):
    code, _, err = run_cli(capsys, "count", "D_1ab", "31", "2", "2")
    assert code == 1
    assert "even" in err
    assert "usage" in err.lower()


def test_count_wrong_parameter_arity(capsys):
    code, _, err = run_cli(capsys, "count", "pi_1ab", "100", "1")
    assert code == 1
    assert "parameters" in err


def test_ratio_scan_rows(capsys):
    code, out, _ = run_cli(
        capsys, "ratio", "pi_1ab", "1", "1", "--checkpoints", "1000,10000", "--no-timestamp"
    )
    rows = parse_csv(out)
    assert code == 0
    assert [r["size"] for r in rows] == ["1000", "10000"]
    assert int(rows[1]["count"]) > int(rows[0]["count"])


def test_ratio_scan_output_bytes(capsys):
    code, out, _ = run_cli(
        capsys, "ratio", "pi_1ab", "1", "1", "--checkpoints", "1000,10000", "--no-timestamp"
    )
    assert code == 0
    assert out == (
        "kind,size,a,b,s,r,count,predicted,ratio\n"
        "pi_1ab,1000,1,1,,,15,8.671404,1.729824\n"
        "pi_1ab,10000,1,1,,,55,36.582484,1.503452\n"
    )


def test_ratio_takes_the_kinds_parameters(capsys):
    code, out, _ = run_cli(
        capsys, "ratio", "pi_1r", "1", "--checkpoints", "1000,100000", "--no-timestamp"
    )
    assert code == 0
    assert [(r["size"], r["r"], r["count"]) for r in parse_csv(out)] == [
        ("1000", "1", "35"), ("100000", "1", "1224"),
    ]
    code, _, err = run_cli(capsys, "ratio", "pi_1r", "1", "7", "--checkpoints", "100")
    assert code == 1
    assert "parameters" in err


def test_ratio_factor_budget_below_one_exits_one(capsys):
    code, _, err = run_cli(capsys, "ratio", "pi_1ab", "0", "1", "--checkpoints", "100")
    assert code == 1
    assert "a must be >= 1" in err


def test_count_pi_1r_below_four(capsys):
    code, out, _ = run_cli(capsys, "count", "pi_1r", "3", "1", "--no-timestamp")
    assert code == 0
    assert parse_csv(out)[0]["count"] == "1"  # p = 3, since 5 is prime


def test_functions_rows(capsys):
    code, out, _ = run_cli(
        capsys, "functions", "f0", "--points", "3,1.5", "--no-timestamp"
    )
    rows = parse_csv(out)
    assert code == 0
    assert rows[0]["value"] == "0.693147"
    assert rows[1]["value"] == "0.000000"


def test_functions_spot_values(capsys):
    _, out, _ = run_cli(capsys, "functions", "F0", "--points", "2", "--no-timestamp")
    assert parse_csv(out)[0]["value"] == "1.000000"
    _, out, _ = run_cli(capsys, "functions", "w", "--points", "3", "--no-timestamp")
    assert parse_csv(out)[0]["value"] == "0.564382"


def test_functions_f0_third_piece(capsys):
    # f0 on (6, 8] from the delay system f0'(s) = F0(s-1)/(s-1)
    code, out, _ = run_cli(capsys, "functions", "f0", "--points", "7,8", "--no-timestamp")
    assert code == 0
    assert [row["value"] for row in parse_csv(out)] == ["1.965098", "2.245837"]


def test_functions_out_of_domain_marks_row_and_exits_two(capsys):
    code, out, _ = run_cli(
        capsys, "functions", "F0", "--points", "2,7.5", "--no-timestamp"
    )
    rows = parse_csv(out)
    assert code == 2
    assert rows[0]["error"] == "" and rows[0]["value"] == "1.000000"
    assert rows[1]["value"] == "" and rows[1]["error"] != ""


def test_constants_default_set(capsys):
    code, out, _ = run_cli(capsys, "constants", "--no-timestamp")
    rows = parse_csv(out)
    assert code == 0
    assert [r["label"] for r in rows] == ["C2", "C3", "C0"]
    assert rows[0]["value"] == "1.32032387005627"  # 15 significant digits
    assert rows[2]["value"] == "0.00388643963860992"
    # the cubic-spline chain gave 0.00388643967868121; C0 must stay within 1e-10
    assert abs(float(rows[2]["value"]) - 0.00388643967868121) < 1e-10
    assert int(rows[1]["truncation_prime"]) >= 100_000


def test_constants_singular_series(capsys):
    code, out, _ = run_cli(capsys, "constants", "CN=30", "--no-timestamp")
    rows = parse_csv(out)
    assert code == 0
    assert float(rows[0]["value"]) == pytest.approx(8 / 3 * 0.6601618, abs=1e-5)


def test_constants_unknown_name(capsys):
    code, _, err = run_cli(capsys, "constants", "C9")
    assert code == 1 and "unknown constant" in err


def test_constants_values_carry_15_digits(capsys):
    _, out, _ = run_cli(capsys, "constants", "C3", "C0", "CN=30", "--no-timestamp")
    values = [float(r["value"]) for r in parse_csv(out)]
    exact = [constants.constant_C3(1e-6).value, constants.constant_C0(),
             constants.singular_series_CN(30)]
    assert all(v == pytest.approx(e, rel=1e-14) for v, e in zip(values, exact))


# ---------------------------------------------------------------------------
# argparse errors
# ---------------------------------------------------------------------------


def run_cli_exit(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def test_bad_subcommand_exits_one(capsys):
    code, _, err = run_cli_exit(capsys, "bogus")
    assert code == 1
    assert "invalid choice" in err and "usage" in err.lower()


def test_non_integer_size_exits_one(capsys):
    code, _, err = run_cli_exit(capsys, "count", "pi_1ab", "1e8", "1", "1")
    assert code == 1
    assert "invalid int value" in err and "usage" in err.lower()


def test_help_exits_zero(capsys):
    code, out, _ = run_cli_exit(capsys, "count", "--help")
    assert code == 0
    assert out.lower().startswith("usage")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_default_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--no-timestamp")
    rows = parse_csv(out)
    assert code == 0
    assert len(rows) == 25
    assert {r["verdict"] for r in rows} == {"pass"}
    margin = next(r for r in rows if r["label"] == "margin")
    assert margin["paper"] == "13.052530"


def test_verify_global_tolerance_hundred_percent(capsys):
    code, _, _ = run_cli(capsys, "verify", "--tolerance", "100", "--no-timestamp")
    assert code == 0


def test_verify_tight_label_override_flags(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--tolerance", "C3=0.001", "--no-timestamp"
    )
    rows = parse_csv(out)
    assert code == 2
    flagged = [r["label"] for r in rows if r["verdict"] == "flag"]
    assert flagged == ["C3"]


def test_verify_unknown_override_label(capsys):
    code, _, err = run_cli(capsys, "verify", "--tolerance", "S99=1")
    assert code == 1 and "unknown label" in err


def test_verify_paper_values_mode(capsys):
    code, out, _ = run_cli(capsys, "verify", "--paper-values", "--no-timestamp")
    rows = parse_csv(out)
    assert code == 0
    s11 = next(r for r in rows if r["label"] == "S11")
    assert s11["computed"] == s11["paper"] == "818.101890"


def test_verify_csv_json_field_for_field(capsys):
    _, csv_out, _ = run_cli(capsys, "verify", "--no-timestamp")
    _, json_out, _ = run_cli(capsys, "verify", "--format", "json", "--no-timestamp")
    doc = json.loads(json_out)
    assert doc["schema"] == 1
    assert "generated" not in doc
    csv_rows = parse_csv(csv_out)
    assert doc["rows"] == csv_rows


def test_verify_deterministic_bytes(capsys):
    _, first, _ = run_cli(capsys, "verify", "--no-timestamp")
    _, second, _ = run_cli(capsys, "verify", "--no-timestamp")
    assert first == second


def test_timestamp_header_present_by_default(capsys):
    _, out, _ = run_cli(capsys, "functions", "w", "--points", "2")
    assert out.startswith("# generated ")


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------


def test_out_file_written_atomically(tmp_path, capsys):
    target = tmp_path / "report.csv"
    code, out, _ = run_cli(
        capsys, "count", "pi_1ab", "100", "1", "1", "--no-timestamp", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert "count" in target.read_text()
    leftovers = [p for p in tmp_path.iterdir() if p != target]
    assert leftovers == []


def test_verify_out_file_matches_stdout(tmp_path, capsys):
    target = tmp_path / "verify.csv"
    code = main(["verify", "--no-timestamp", "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    _, stdout_text, _ = run_cli(capsys, "verify", "--no-timestamp")
    assert target.read_text() == stdout_text


def test_out_file_bad_directory_exits_one(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "count", "pi_1ab", "100", "1", "1",
        "--out", str(tmp_path / "missing" / "report.csv"),
    )
    assert code == 1
    assert "i/o error" in err


# ---------------------------------------------------------------------------
# packaging: a zipped install and the import footprint
# ---------------------------------------------------------------------------


def _run_module(pythonpath, *argv):
    env = {**os.environ, "PYTHONPATH": str(pythonpath), "TRIPLESIEVE_THREADS": "1"}
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                          text=True, timeout=120)


def test_verify_runs_from_a_zipped_package(tmp_path):
    package = Path(triplesieve.__file__).parent
    archive = tmp_path / "ts.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        for path in sorted(package.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                zf.write(path, Path("triplesieve") / path.relative_to(package))
    zipped = _run_module(archive, "-m", "triplesieve", "verify", "--no-timestamp")
    in_tree = _run_module(package.parent, "-m", "triplesieve", "verify", "--no-timestamp")
    assert zipped.returncode == 0, zipped.stderr
    assert in_tree.returncode == 0, in_tree.stderr
    assert zipped.stdout == in_tree.stdout


def test_no_scipy_is_loaded():
    code = (
        "import sys\n"
        "import triplesieve\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], 'import'\n"
        "from triplesieve import cli\n"
        "assert cli.main(['count', 'pi_1ab', '1000', '1', '1']) == 0\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], 'count'\n"
    )
    done = _run_module(Path(triplesieve.__file__).parent.parent, "-c", code)
    assert done.returncode == 0, done.stderr
