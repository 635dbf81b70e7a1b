import csv
import errno
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
    # predicted = C3 x / log^3 x, with C3 = OEIS A065418
    assert out == (
        "kind,size,a,b,s,r,count,predicted,ratio\n"
        "pi_1ab,1000,1,1,,,15,8.671399,1.729825\n"
        "pi_1ab,10000,1,1,,,55,36.582464,1.503453\n"
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


@pytest.mark.parametrize("token", ["inf", "nan", "100.7", "-inf", "abc"])
def test_ratio_rejects_non_integral_checkpoints(capsys, token):
    code, out, err = run_cli(capsys, "ratio", "pi_1ab", "1", "1", "--checkpoints", f"10,{token}")
    assert code == 1 and out == ""
    assert err.startswith("error: checkpoints must be integers")
    assert "Traceback" not in err


def test_ratio_accepts_exponent_form_checkpoints(capsys):
    code, out, _ = run_cli(
        capsys, "ratio", "pi_1r", "1", "--checkpoints", "1000,1e6", "--no-timestamp"
    )
    assert code == 0
    assert [(r["size"], r["count"]) for r in parse_csv(out)] == [
        ("1000", "35"), ("1000000", "8169"),
    ]


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


def test_functions_echoes_an_out_of_domain_point_as_given(capsys):
    # in six decimals 1e308 would be a 309-digit point; in-domain rows keep them
    code, out, _ = run_cli(capsys, "functions", "w", "--points", "1e308,3", "--no-timestamp")
    assert code == 2
    assert out == (
        "function,point,value,error\n"
        'w,1e+308,,"w is tabulated on 1 <= u <= 64.0, got 1e+308"\n'
        "w,3.000000,0.564382,\n"
    )


def test_functions_rejects_non_numeric_point(capsys):
    code, out, err = run_cli(capsys, "functions", "w", "--points", "3,abc", "--no-timestamp")
    assert code == 1
    assert out == ""
    assert err.startswith("error: points must be numbers, got 'abc'\n")


def test_constants_default_set(capsys):
    code, out, _ = run_cli(capsys, "constants", "--no-timestamp")
    rows = parse_csv(out)
    assert code == 0
    assert [r["label"] for r in rows] == ["C2", "C3", "C0"]
    assert rows[0]["value"] == "1.32032363169374"  # 15 significant digits, 2 x OEIS A005597
    assert rows[2]["value"] == "0.00388643963822591"
    # the cubic-spline chain gave 0.00388643967868121; C0 must stay within 1e-10
    assert abs(float(rows[2]["value"]) - 0.00388643967868121) < 1e-10
    assert rows[1]["value"] == "2.85824859571922"  # OEIS A065418


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
    exact = [constants.constant_C3().value, constants.constant_C0(),
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
    for token in ("100.5", "inf", "nan", "abc"):
        code, out, err = run_cli_exit(capsys, "count", "pi_1ab", token, "1", "1")
        assert code == 1 and out == ""
        assert f"error: argument size: invalid integer value: '{token}'" in err
        assert "usage" in err.lower() and "Traceback" not in err


def test_non_integer_thread_count_exits_one(capsys, monkeypatch):
    monkeypatch.setenv("TRIPLESIEVE_THREADS", "abc")
    code, out, err = run_cli(capsys, "count", "pi_1ab", "1000", "1", "1")
    assert code == 1 and out == ""
    assert err.startswith("error: TRIPLESIEVE_THREADS must be an integer, got 'abc'\n")
    assert "Traceback" not in err


def test_count_accepts_exponent_form_sizes(capsys):
    _, plain, _ = run_cli(capsys, "count", "pi_1ab", "1000000", "1", "1", "--no-timestamp")
    code, out, _ = run_cli(capsys, "count", "pi_1ab", "1e6", "1", "1", "--no-timestamp")
    assert code == 0 and out == plain


def test_constants_singular_series_takes_the_integer_parser(capsys):
    _, plain, _ = run_cli(capsys, "constants", "CN=1000000", "--no-timestamp")
    code, out, _ = run_cli(capsys, "constants", "CN=1e6", "--no-timestamp")
    assert code == 0 and out == plain
    for token in ("100.5", "inf", "nan", "abc"):
        code, out, err = run_cli(capsys, "constants", f"CN={token}")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and f"'{token}'" in err.splitlines()[0]
        assert "Traceback" not in err


def test_help_exits_zero(capsys):
    code, out, _ = run_cli_exit(capsys, "count", "--help")
    assert code == 0
    assert out.lower().startswith("usage")


# ---------------------------------------------------------------------------
# the exit-code contract: 0 clean, 1 usage with an error line, 2 flagged
# ---------------------------------------------------------------------------

HOSTILE_ARGVS = [
    # count: sizes
    (1, "count", "D_1ab", "-8", "2", "2"),
    (1, "count", "pi_1ab", "1e11", "1", "1"),
    (1, "count", "pi_1ab", "99999999999999999999999", "1", "1"),
    (1, "count", "pi_1ab", "nan", "1", "1"),
    (1, "count", "pi_1ab", "inf", "1", "1"),
    (1, "count", "pi_1ab", "", "1", "1"),
    (1, "count", "D_1ab", "1001", "2", "2"),
    (0, "count", "pi_1ab", "0", "1", "1"),
    (0, "count", "pi_1ab", "1e3", "1", "1"),
    # count: factor budgets
    (1, "count", "D_sr", "1000000", "99999999999999999999", "1"),
    (1, "count", "pi_1ab", "1000000", "400", "1"),
    (1, "count", "D_1r", "1000", "34"),
    (1, "count", "pi_1ab", "1000", "-1", "1"),
    (1, "count", "pi_1ab", "1000", "1e6", "1"),
    (1, "count", "pi_1ab", "1000", "nan", "1"),
    (1, "count", "pi_1r", "1000"),
    (1, "count", "nope", "1000", "1"),
    # ratio
    (1, "ratio", "pi_1r", "2000", "--checkpoints", "100,1000"),
    (1, "ratio", "pi_1r", "-3", "--checkpoints", "100"),
    (1, "ratio", "pi_1r", "1", "--checkpoints", ""),
    (1, "ratio", "pi_1r", "1", "--checkpoints", ","),
    (1, "ratio", "pi_1r", "1", "--checkpoints", " , ,"),
    (1, "ratio", "pi_1r", "1", "--checkpoints", "nan"),
    (1, "ratio", "pi_1r", "1", "--checkpoints", "inf"),
    (1, "ratio", "pi_1r", "1", "--checkpoints", "-100"),
    (1, "ratio", "pi_1r", "1", "--checkpoints", "1e12"),
    (1, "ratio", "pi_1r", "1", "--checkpoints", "1000,100"),
    (0, "ratio", "D_1r", "2", "--checkpoints", "1e3,2e3"),
    # functions
    (1, "functions", "w", "--points", ""),
    (1, "functions", "w", "--points", ","),
    (1, "functions", "w", "--points", "abc"),
    (1, "functions", "f0", "--points", "-inf"),
    (2, "functions", "w", "--points", "nan"),
    (2, "functions", "F0", "--points", "inf"),
    (2, "functions", "f0", "--points", "-1"),
    (2, "functions", "w", "--points", "1e308"),
    # verify
    (1, "verify", "--tolerance", "nan"),
    (1, "verify", "--tolerance", "-5"),
    (1, "verify", "--tolerance", "inf"),
    (1, "verify", "--tolerance", "1e400"),
    (1, "verify", "--tolerance", ""),
    (1, "verify", "--tolerance", "S11=nan"),
    (1, "verify", "--tolerance", "S11=-1"),
    (1, "verify", "--tolerance", "S11=inf"),
    # constants and the top level
    (1, "constants", "CN=nan"),
    (1, "constants", "CN=-4"),
    (1, "constants", "CN=1e30"),
    (1, "constants", "CN="),
    (1, "constants", "C9"),
    (1,),
    (1, "--bogus"),
]

# the top level's two usage errors, each with its own message: an unknown option
# is reported as such, not as a missing command
PINNED_ERRORS = {
    ("--bogus",): "triplesieve: error: unrecognized arguments: --bogus\n",
    (): "triplesieve: error: the following arguments are required: command\n",
}


@pytest.mark.parametrize("expected, argv", [(case[0], case[1:]) for case in HOSTILE_ARGVS],
                         ids=[" ".join(case[1:]) or "<none>" for case in HOSTILE_ARGVS])
def test_hostile_argv_keeps_the_exit_code_contract(capsys, expected, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse's own exits
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert code == expected, err
    if code == 1:
        assert any("error: " in line for line in err.splitlines()), err
    assert err.endswith(PINNED_ERRORS.get(tuple(argv), ""))
    assert "Traceback" not in err


# one case of each exit path: argparse's own, a usage error raised in main, 0 and 2
_VIA_MODULE = [case for case in HOSTILE_ARGVS if case[1:] in {
    ("count", "pi_1ab", "nan", "1", "1"), ("--bogus",), (),
    ("count", "D_1ab", "1001", "2", "2"), ("ratio", "pi_1r", "1", "--checkpoints", "1e12"),
    ("count", "pi_1ab", "1e3", "1", "1"), ("functions", "w", "--points", "nan"),
}]


@pytest.mark.parametrize("expected, argv", [(case[0], case[1:]) for case in _VIA_MODULE],
                         ids=[" ".join(case[1:]) or "<none>" for case in _VIA_MODULE])
def test_hostile_argv_keeps_the_exit_code_contract_through_python_m(expected, argv):
    done = _run_module(Path(triplesieve.__file__).parent.parent, "-m", "triplesieve", *argv)
    assert done.returncode == expected, done.stderr
    if expected == 1:
        assert any("error: " in line for line in done.stderr.splitlines()), done.stderr
    assert done.stderr.endswith(PINNED_ERRORS.get(tuple(argv), "")), done.stderr
    assert "Traceback" not in done.stderr


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


# the whole report, byte for byte, in both modes: a change to any row, to their
# order or to a printed digit shows here
VERIFY_CSV = (
    "label,computed,paper,direction,rel_diff,verdict\n"
    "C3,2.858249,2.862590,two_sided,-0.001517,pass\n"
    "C0,0.003886,0.004080,upper,-0.047441,pass\n"
    "E,0.009329,0.009340,upper,-0.001222,pass\n"
    "L,0.048381,0.048390,upper,-0.000184,pass\n"
    "S11,818.122829,818.101890,lower,0.000026,pass\n"
    "S12,516.861358,516.860630,lower,0.000001,pass\n"
    "S21,73.932237,73.930100,lower,0.000029,pass\n"
    "S22,149.271546,149.136840,lower,0.000903,pass\n"
    "S31,1282.384992,1282.384850,upper,0.000000,pass\n"
    "S32,1048.201473,1048.202110,upper,-0.000001,pass\n"
    "S41,371.112134,371.112430,upper,-0.000001,pass\n"
    "S42,341.316003,341.318740,upper,-0.000008,pass\n"
    "S51,4.418309,4.419370,upper,-0.000240,pass\n"
    "S52,22.914771,22.915040,upper,-0.000012,pass\n"
    "S61,2.268832,2.270320,upper,-0.000656,pass\n"
    "S62,49.786360,49.788640,upper,-0.000046,pass\n"
    "S71,2.269504,2.384850,upper,-0.048366,pass\n"
    "S72,1.498827,1.576430,upper,-0.049227,pass\n"
    "S73,1.309117,1.374320,upper,-0.047444,pass\n"
    "S74,1.309117,1.374320,upper,-0.047444,pass\n"
    "lower_sum,3194.433628,3194.233240,two_sided,0.000063,pass\n"
    "upper_sum,3180.844628,3181.180710,two_sided,-0.000106,pass\n"
    "margin,13.052530,13.052530,two_sided,-0.000000,pass\n"
    "theorem_constant,3.263132,3.263130,two_sided,0.000001,pass\n"
    "upper_uniform,100.000000,100.000000,two_sided,0.000000,pass\n"
)

VERIFY_PAPER_VALUES_CSV = (
    "label,computed,paper,direction,rel_diff,verdict\n"
    "C3,2.862590,2.862590,two_sided,0.000000,pass\n"
    "C0,0.004080,0.004080,upper,0.000000,pass\n"
    "E,0.009340,0.009340,upper,0.000000,pass\n"
    "L,0.048390,0.048390,upper,0.000000,pass\n"
    "S11,818.101890,818.101890,lower,0.000000,pass\n"
    "S12,516.860630,516.860630,lower,0.000000,pass\n"
    "S21,73.930100,73.930100,lower,0.000000,pass\n"
    "S22,149.136840,149.136840,lower,0.000000,pass\n"
    "S31,1282.384850,1282.384850,upper,0.000000,pass\n"
    "S32,1048.202110,1048.202110,upper,0.000000,pass\n"
    "S41,371.112430,371.112430,upper,0.000000,pass\n"
    "S42,341.318740,341.318740,upper,0.000000,pass\n"
    "S51,4.419370,4.419370,upper,0.000000,pass\n"
    "S52,22.915040,22.915040,upper,0.000000,pass\n"
    "S61,2.270320,2.270320,upper,0.000000,pass\n"
    "S62,49.788640,49.788640,upper,0.000000,pass\n"
    "S71,2.384850,2.384850,upper,0.000000,pass\n"
    "S72,1.576430,1.576430,upper,0.000000,pass\n"
    "S73,1.374320,1.374320,upper,0.000000,pass\n"
    "S74,1.374320,1.374320,upper,0.000000,pass\n"
    "lower_sum,3194.233240,3194.233240,two_sided,0.000000,pass\n"
    "upper_sum,3181.180380,3181.180710,two_sided,-0.000000,pass\n"
    "margin,13.052530,13.052530,two_sided,-0.000000,pass\n"
    "theorem_constant,3.263132,3.263130,two_sided,0.000001,pass\n"
    "upper_uniform,100.000000,100.000000,two_sided,0.000000,pass\n"
)


@pytest.mark.parametrize("flags, expected", [((), VERIFY_CSV),
                                             (("--paper-values",), VERIFY_PAPER_VALUES_CSV)],
                         ids=["recomputed", "paper-values"])
def test_verify_report_bytes(capsys, flags, expected):
    code, out, _ = run_cli(capsys, "verify", *flags, "--no-timestamp")
    assert code == 0
    assert out == expected


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


@pytest.mark.parametrize("target, code", [("directory", errno.EISDIR), ("missing/report.csv", errno.ENOENT)],
                         ids=["a directory", "a missing directory"])
def test_an_unwritable_out_path_is_named_as_given(tmp_path, capsys, target, code):
    # the temporary file goes beside the target: for a directory that was in its
    # parent, and both errors named the temporary file in place of the path given
    (tmp_path / "directory").mkdir()
    path = str(tmp_path / target)
    exit_code, out, err = run_cli(capsys, "count", "pi_1ab", "100", "1", "1", "--out", path)
    assert (exit_code, out) == (1, "")
    assert err == f"i/o error: [Errno {code}] {os.strerror(code)}: {path!r}\n"
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["directory"]


# ---------------------------------------------------------------------------
# packaging: a zipped install, the import footprint and page faults
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


def _loaded_after(code):
    """The triplesieve and numpy modules loaded by code run in a fresh interpreter."""
    code += (
        "\nimport sys\n"
        "print(' '.join(sorted(m for m in sys.modules\n"
        "                      if m.split('.')[0] in ('numpy', 'triplesieve'))))\n"
    )
    done = _run_module(Path(triplesieve.__file__).parent.parent, "-c", code)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.splitlines()[-1].split())


def test_import_loads_neither_numpy_nor_a_submodule():
    assert _loaded_after("import triplesieve") == {"triplesieve"}


def test_the_euler_products_and_CN_load_no_numpy():
    # scalar math over a memoryview prime table and a trial-division wheel: a
    # forked count's caller runs its predictor without faulting numpy code in
    code = (
        "import sys\n"
        "from triplesieve.constants import constant_C2, constant_C3, singular_series_CN\n"
        "constant_C2(), constant_C3(), singular_series_CN(999999000)\n"
        "assert 'numpy' not in sys.modules\n"
    )
    done = _run_module(Path(triplesieve.__file__).parent.parent, "-c", code)
    assert done.returncode == 0, done.stderr


def _imported_by(*argv):
    """Every module a real `python *argv` process imported, such as the CLI's.  The
    CLI leaves by os._exit, so they are read from its -X importtime lines on
    stderr, one per module."""
    done = _run_module(Path(triplesieve.__file__).parent.parent, "-X", "importtime", *argv)
    assert done.returncode == 0, done.stderr
    return {line.rpartition("|")[2].strip() for line in done.stderr.splitlines()
            if line.startswith("import time:")}


def test_count_loads_only_the_engine():
    # the Euler products load only with a predictor that uses one: D_1ab's uses none;
    # numpy loads only with a bound of 3 or more, as bounds up to 2 sieve tuples;
    # traceback and signal load only on a count's failure paths
    failure_only = {"traceback", "signal"} - _imported_by("-c", "import numpy")
    for argv, euler, numpy in ((("pi_1ab", "1000", "2", "3"), True, True),
                               (("D_1ab", "1000", "2", "3"), False, True),
                               (("D_1ab", "1000", "2", "2"), False, False),
                               (("pi_1ab", "1000", "1", "1"), True, False)):
        imported = _imported_by("-m", "triplesieve", "count", *argv)
        loaded = {m for m in imported if m.split(".")[0] in ("numpy", "triplesieve")}
        assert {"triplesieve.cli", "triplesieve.engine"} <= loaded, argv
        assert ("numpy" in loaded) == numpy, argv
        assert not loaded & {"triplesieve.pipeline", "triplesieve.quadrature",
                             "triplesieve.sieve_functions"}, argv
        assert ("triplesieve.constants" in loaded) == euler, argv
        assert "dataclasses" not in imported, argv
        assert not imported & failure_only, argv
    # the curves command loads the curves, not the checks against the paper
    imported = _imported_by("-m", "triplesieve", "functions", "w", "--points", "3")
    assert "triplesieve.sieve_functions" in imported
    assert not imported & {"triplesieve.pipeline", "triplesieve.reporting"}


@pytest.mark.parametrize("kind, params", [("pi_1ab", ("1", "1")), ("pi_1r", ("1",)),
                                          ("D_1ab", ("1", "1")), ("D_1r", ("1",)), ("D_sr", ("1", "1"))])
def test_a_prime_pattern_never_loads_numpy(kind, params):
    # every bound 1 needs only primality, which the engine sieves as tuples in bytes
    for argv in (("count", kind, "100000", *params), ("ratio", kind, *params, "--checkpoints", "1e3,1e5")):
        imported = _imported_by("-m", "triplesieve", *argv, "--no-timestamp")
        assert "triplesieve.engine" in imported and "numpy" not in imported, argv


def test_every_public_name_resolves_and_is_listed():
    code = (
        "import triplesieve\n"
        "names = triplesieve.__all__\n"
        "assert not [n for n in names if n not in dir(triplesieve)], 'dir'\n"
        "for name in names:\n"
        "    assert getattr(triplesieve, name).__name__ == name, name\n"
    )
    loaded = _loaded_after(code)
    assert {"triplesieve.pipeline", "triplesieve.sieve_functions"} <= loaded


def test_an_unknown_attribute_raises_attribute_error():
    code = (
        "import triplesieve\n"
        "try:\n"
        "    triplesieve.count_pi_2ab\n"
        "except AttributeError as exc:\n"
        "    assert \"has no attribute 'count_pi_2ab'\" in str(exc), exc\n"
        "else:\n"
        "    raise SystemExit('no AttributeError')\n"
        "assert not hasattr(triplesieve, 'count_pi_2ab')\n"
    )
    assert _loaded_after(code) == {"triplesieve"}


# ---------------------------------------------------------------------------
# the process entry: a report flushed whole, or an i/o error when stdout fails
# ---------------------------------------------------------------------------


def _run_buffered(*argv, stdout, via=()):
    """``python -m triplesieve``, started through the command ``via`` if given, with
    ordinary block-buffered stdout, which PYTHONUNBUFFERED would turn off."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=str(Path(triplesieve.__file__).parent.parent), TRIPLESIEVE_THREADS="1")
    return subprocess.run([*via, sys.executable, "-m", "triplesieve", *argv], env=env,
                          stdout=stdout, stderr=subprocess.PIPE, timeout=120)


def _assert_io_error(done):
    err = done.stderr.decode()
    assert done.returncode == 1, err
    assert err.startswith("i/o error: "), err
    assert "Traceback" not in err and "Exception ignored" not in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="writes to /dev/full")
def test_a_full_stdout_exits_one():
    with open("/dev/full", "w") as full:
        _assert_io_error(_run_buffered("count", "pi_1ab", "1000", "1", "1", stdout=full))


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="writes to /dev/full")
@pytest.mark.parametrize("entry", [("-m", "triplesieve"),
                                   ("-c", "from triplesieve.cli import run; run()")])
def test_help_to_a_full_unbuffered_stdout_exits_one(entry):
    # unbuffered, the help text fails at argparse's own write, not at the flush
    env = dict(os.environ, PYTHONUNBUFFERED="1",
               PYTHONPATH=str(Path(triplesieve.__file__).parent.parent))
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, *entry, "--help"], env=env, stdout=full,
                              stderr=subprocess.PIPE, timeout=120)
    _assert_io_error(done)


def test_a_stdout_pipe_closed_by_its_reader_exits_one():
    read, write = os.pipe()
    os.close(read)
    try:
        done = _run_buffered("count", "pi_1ab", "1000", "1", "1", stdout=write)
    finally:
        os.close(write)
    _assert_io_error(done)


@pytest.mark.skipif(not os.path.exists("/bin/sh"), reason="closes stdout through sh")
def test_a_closed_stdout_exits_one():
    done = _run_buffered("count", "pi_1ab", "1000", "1", "1", stdout=None,
                         via=("/bin/sh", "-c", 'exec "$@" >&-', "sh"))
    _assert_io_error(done)


# 21 bytes a row: 3 rows stay in the stdout buffer until the exit flushes them,
# 5000 rows (105 kB) fill a 64 KiB pipe while the reader drains it
@pytest.mark.parametrize("rows", [3, 5000])
def test_a_report_arrives_whole_through_a_pipe(capsys, rows):
    points = ",".join(f"{1 + k / 1000:.3f}" for k in range(rows))
    argv = ["functions", "w", "--points", points, "--no-timestamp"]
    assert main(argv) == 0
    expected = capsys.readouterr().out.encode()
    assert len(expected) == 27 + 21 * rows  # the header and the rows
    done = _run_buffered(*argv, stdout=subprocess.PIPE)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == expected


# Waits for a command and prints its exit status, minor faults and peak RSS (KiB)
# from os.wait4.  On Linux a process's ru_maxrss starts at the peak RSS of the
# image it was exec'd from, so the CLI is started from this small process, not
# from the test process, whose own RSS would mask the CLI's.
_LAUNCH = (
    "import os, subprocess, sys\n"
    "proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
    "_, status, usage = os.wait4(proc.pid, 0)\n"
    "print(os.waitstatus_to_exitcode(status), usage.ru_minflt, usage.ru_maxrss)\n"
)


def _cold_usage(*argv, workers=1):
    """Minor faults and peak RSS (KiB) of one cold CLI run on `workers` sieve workers."""
    env = {**os.environ, "PYTHONPATH": str(Path(triplesieve.__file__).parent.parent),
           "TRIPLESIEVE_THREADS": str(workers)}
    run = subprocess.run([sys.executable, "-c", _LAUNCH, sys.executable, "-m", "triplesieve",
                          *argv], env=env, capture_output=True, text=True, check=True)
    status, faults, peak = map(int, run.stdout.split())
    assert status == 0, run.stderr
    return faults, peak


@pytest.mark.skipif(not sys.platform.startswith("linux") or not hasattr(os, "wait4"),
                    reason="counts minor faults through os.wait4 on Linux")
def test_a_large_count_faults_its_buffers_in_once():
    # 96 blocks of 2^19 words; a unit that allocated its arrays afresh took
    # ~29k more faults than the small count (at 2^20 words), one set of buffers ~0.6k
    small, _ = _cold_usage("count", "D_1ab", "1000", "2", "3")
    large, _ = _cold_usage("count", "D_1ab", "100250000", "2", "3")
    assert large - small < 4096, (small, large)


@pytest.mark.skipif(not sys.platform.startswith("linux") or not hasattr(os, "wait4"),
                    reason="reads peak RSS through os.wait4 on Linux")
def test_a_large_count_peaks_within_its_segment_buffers():
    # the 2^19-word buffers, the odd wheel and the scatter plan put the large
    # count ~2.6-2.9 MiB above the small one; the full wheel and 2^20-word
    # buffers put it ~4.2 MiB above.  One cold run's peak varies by up to
    # ~300 KiB, so each side is the least of three
    small = min(_cold_usage("count", "D_1ab", "1000", "2", "3")[1] for _ in range(3))
    large = min(_cold_usage("count", "D_1ab", "100250000", "2", "3")[1] for _ in range(3))
    assert large - small < 3 * 1024, (small, large)


@pytest.mark.skipif(not sys.platform.startswith("linux") or not hasattr(os, "wait4")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="reads peak RSS through os.wait4 on Linux, with two CPUs to fork for")
def test_a_forked_count_peaks_no_higher_than_a_one_unit_count():
    # ru_maxrss is the largest single process.  The one-unit count sieves in the
    # caller; the large one forks two workers and its caller neither sieves nor
    # builds a plan, so it peaks lower than the small count.  A caller that
    # sieved a share as well put the large count ~2.3 MiB higher, and one that
    # built the plan before forking ~0.9 MiB higher, level with the small count
    _, small = _cold_usage("count", "D_1ab", "1000", "2", "3", workers=2)
    _, large = _cold_usage("count", "D_1ab", "100250000", "2", "3", workers=2)
    assert large - small <= 0, (small, large)


@pytest.mark.skipif(not sys.platform.startswith("linux") or not hasattr(os, "wait4")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="reads peak RSS through os.wait4 on Linux, with two CPUs to fork for")
def test_a_forked_count_predictor_adds_little_to_its_caller():
    # a forked count peaks in its caller, and pi_1ab's caller computes C3 once its
    # workers are reaped, where D_1ab's computes no constant; with a bound of 3
    # both callers load numpy.  With the Euler products in scalar math the gap read
    # 4-596 KiB over 60 trials (each side the least of three); numpy products,
    # which fault its vector-math kernels into the caller, read 816-1128 KiB.  The
    # bound sits between the two
    forward = min(_cold_usage("count", "pi_1ab", "1e7", "2", "3", workers=2)[1] for _ in range(3))
    mirror = min(_cold_usage("count", "D_1ab", "1e7", "2", "3", workers=2)[1] for _ in range(3))
    assert forward - mirror < 704, (mirror, forward)
