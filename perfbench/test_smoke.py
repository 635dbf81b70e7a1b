"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
bench = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = bench  # dataclasses look their module up here
spec.loader.exec_module(bench)


def test_smoke_emits_every_metric_with_its_unit():
    res = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"], cwd=ROOT,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stdout[-4000:] + res.stderr[-4000:]
    assert res.stdout.strip().splitlines()[-1] == "smoke ok"


def test_refuses_to_run_without_the_package_source():
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        res = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "count_forward", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare)
    assert res.returncode != 0
    assert res.stdout == ""


def csv(header, *rows):
    return "\n".join([header, *rows]) + "\n"


def test_checks_reject_wrong_outputs():
    table = bench.RECORDED["full"]
    size = table["sizes"][0]
    right = table["pi_1ab_1_1"][str(size)]
    count = bench.check_count("pi_1ab", size, table)
    assert count(0, csv("kind,size,count", f"pi_1ab,{size},{right}")) == []
    assert count(0, csv("kind,size,count", f"pi_1ab,{size},{right + 1}"))
    assert count(1, csv("kind,size,count", f"pi_1ab,{size},{right}"))

    constants = bench.check_constants(30)
    good = ["C2,1.320324", "C3,2.858250", "C0,0.003886", "CN=30,1.760432"]
    assert constants(0, csv("label,value", *good)) == []
    # the published C3 is a truncated product, off by 1.5e-3 relative
    assert constants(0, csv("label,value", good[0], "C3,2.862590", *good[2:]))

    rows = [f"{label},pass" for label in bench.VERIFY_LABELS]
    assert bench.check_verify(0, csv("label,verdict", *rows)) == []
    assert bench.check_verify(2, csv("label,verdict", *rows[:-1], "upper_uniform,flag"))

    buchstab = bench.check_buchstab([3.0, 10.0])
    assert buchstab(0, csv("function,point,value,error", "w,3.000000,0.564382,",
                           "w,10.000000,0.561459,")) == []
    assert buchstab(0, csv("function,point,value,error", "w,3.000000,0.564392,",
                           "w,10.000000,0.561459,"))
