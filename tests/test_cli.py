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
    assert "Traceback" not in err


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


def test_count_loads_only_the_engine():
    loaded = _loaded_after(
        "import runpy, sys\n"
        "sys.argv = ['triplesieve', 'count', 'pi_1ab', '1000', '1', '1']\n"
        "try:\n"
        "    runpy.run_module('triplesieve', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as done:\n"
        "    assert done.code == 0, done.code\n"
    )
    assert {"numpy", "triplesieve.cli", "triplesieve.engine"} <= loaded
    assert not loaded & {"triplesieve.pipeline", "triplesieve.quadrature",
                         "triplesieve.sieve_functions"}


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
    small, _ = _cold_usage("count", "D_1ab", "1000", "2", "2")
    large, _ = _cold_usage("count", "D_1ab", "100250000", "2", "2")
    assert large - small < 4096, (small, large)


@pytest.mark.skipif(not sys.platform.startswith("linux") or not hasattr(os, "wait4"),
                    reason="reads peak RSS through os.wait4 on Linux")
def test_a_large_count_peaks_within_its_segment_buffers():
    # the 2^19-word buffers and the odd wheel put the large count ~2.2 MiB above
    # the small one; the full wheel and 2^20-word buffers put it ~4.2 MiB above
    _, small = _cold_usage("count", "D_1ab", "1000", "2", "2")
    _, large = _cold_usage("count", "D_1ab", "100250000", "2", "2")
    assert large - small < 3 * 1024, (small, large)


@pytest.mark.skipif(not sys.platform.startswith("linux") or not hasattr(os, "wait4")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="reads peak RSS through os.wait4 on Linux, with two CPUs to fork for")
def test_a_forked_count_peaks_no_higher_than_a_one_unit_count():
    # ru_maxrss is the largest single process.  The one-unit count sieves in the
    # caller; the large one forks two workers and its caller sieves nothing.  A
    # caller that sieved a share as well put the large count ~2.3 MiB higher
    _, small = _cold_usage("count", "D_1ab", "1000", "2", "2", workers=2)
    _, large = _cold_usage("count", "D_1ab", "100250000", "2", "2", workers=2)
    assert large - small <= 512, (small, large)
