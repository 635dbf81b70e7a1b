"""Benchmark of the triplesieve command line: cold-CLI workloads with checked
outputs, end-to-end metrics, and a traced per-layer run.

Run from the root of a checkout; the package is taken from its ``src/``:

    python3 perfbench/run.py --workload count_forward --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload count_forward --seed 1 --seconds 50 --trace 1
    python3 perfbench/run.py --workload all --seed 1 --trace 0
    python3 perfbench/run.py --smoke

Each workload is a closed loop from this one client process: one op at a
time, each op one or more cold ``python -m triplesieve`` children run one
after another, the next op started when the last child has exited.  Every
op's output is checked.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of a
traced walk (perfbench/trace.py) in a fresh child.  Readable tables and a
provenance line come before it, and the full record (ops, spans, counts,
provenance) is written to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
RECORDED = json.loads((HERE / "recorded.json").read_text())
NPROC = len(os.sched_getaffinity(0))

SETUP_SAMPLES = 5
RUN_BUDGET_S = 170  # a run must end within 180 s; children are killed past this
W_POINTS_PER_OP = 4

# References from outside the program.  C2 = 2 x OEIS A005597 and C3 = OEIS
# A065418.  The published C3 (2.86259) is quoted to six significant figures,
# so outputs are held to 1e-5 relative: every figure the paper quotes.  This
# does not test the products' own tail bound (at the requested 1e-6 the seed's
# C3 is off by 1.5e-6 against a reported bound of 7.8e-7); that is a known
# defect tracked on its own and neither checked nor hidden here.
C2_REF = 1.32032363169374
C3_REF = 2.85824859571922
EULER_REL_TOL = 1e-5
# C0 at the benchmark's first commit; grid refinement moves it by < 1e-10.
C0_REF = 0.0038864
# Values are printed with six decimals: half a unit of rounding plus half a
# unit of numerical error.  The seed's Buchstab table is within 3e-10.
PRINT_ABS_TOL = 1e-6
EULER_GAMMA = 0.5772156649015329
VERIFY_LABELS = (
    "C3", "C0", "E", "L",
    "S11", "S12", "S21", "S22", "S31", "S32", "S41", "S42",
    "S51", "S52", "S61", "S62", "S71", "S72", "S73", "S74",
    "lower_sum", "upper_sum", "margin", "theorem_constant", "upper_uniform",
)

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "import.numpy_s": "s", "import.package_s": "s",
    "primes.table_s": "s", "primes.count": "count",
    "sieve_functions.buchstab_table_s": "s", "sieve_functions.curves_s": "s",
    "quadrature.named_s": "s", "quadrature.chain_s": "s", "quadrature.nested_evals": "count",
    "constants.euler_s": "s", "constants.C3_truncation_prime": "count",
    "constants.C0_s": "s", "constants.E_s": "s", "constants.L_s": "s",
    "pipeline.terms_s": "s", "pipeline.report_s": "s",
    "engine.segment_rate.near": "Mint/s", "engine.segment_rate.far": "Mint/s",
    "engine.count_s.t1": "s", "engine.count_s.tN": "s", "engine.scaling_eff": "ratio",
    "engine.mirror_s": "s", "engine.mirror_peak_mb": "MB",
    "cli.main_s": "s", "trace.untraced_s": "s",
}


# ---------------------------------------------------------------------------
# Independent references and output checks
# ---------------------------------------------------------------------------


def csv_rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader([ln for ln in text.splitlines() if ln and not ln.startswith("#")]))


def singular_series_ref(n: int) -> float:
    """C(N) = C2/2 * prod over odd primes p | N of (p-1)/(p-2), by trial division."""
    scale, m, p = 1.0, n, 3
    while m % 2 == 0:
        m //= 2
    while p * p <= m:
        if m % p == 0:
            scale *= (p - 1) / (p - 2)
            while m % p == 0:
                m //= p
        p += 2
    if m > 1:
        scale *= (m - 1) / (m - 2)
    return scale * C2_REF / 2


def buchstab_ref(u: float) -> float:
    """w(u): closed forms on [1, 3], Simpson on the delay equation on [3, 4], e^-gamma above 10."""
    if u <= 2:
        return 1 / u
    if u <= 3:
        return (1 + math.log(u - 1)) / u
    if u <= 4:  # u w(u) = 1 + log 2 + int_3^u (1 + log(t-2))/(t-1) dt
        n, h = 2000, (u - 3) / 2000
        f = [(1 + math.log(t - 2)) / (t - 1) for t in (3 + i * h for i in range(n + 1))]
        simpson = h / 3 * (f[0] + f[-1] + 4 * sum(f[1:-1:2]) + 2 * sum(f[2:-1:2]))
        return (1 + math.log(2) + simpson) / u
    if u >= 10:  # |w(u) - e^-gamma| decays like rho(u - 1); below 1e-9 from u = 10
        return math.exp(-EULER_GAMMA)
    raise ValueError(f"no reference value of w at {u}")


def close(text: str, ref: float, rel: float = 0.0, abs_: float = 0.0) -> bool:
    return abs(float(text) - ref) <= max(rel * abs(ref), abs_)


def check_verify(rc: int, out: str) -> list[str]:
    rows = {r["label"]: r for r in csv_rows(out)}
    problems = [f"verify exit {rc}"] if rc != 0 else []
    problems += [f"verify row {lbl} missing" for lbl in VERIFY_LABELS if lbl not in rows]
    problems += [f"verify row {lbl} {r['verdict']}" for lbl, r in rows.items()
                 if r["verdict"] != "pass"]
    return problems


def check_constants(cn: int) -> Callable[[int, str], list[str]]:
    def check(rc: int, out: str) -> list[str]:
        rows = {r["label"]: r["value"] for r in csv_rows(out)}
        expected = {
            "C2": (C2_REF, EULER_REL_TOL, 0.0),
            "C3": (C3_REF, EULER_REL_TOL, 0.0),
            "C0": (C0_REF, 0.0, PRINT_ABS_TOL),
            f"CN={cn}": (singular_series_ref(cn), EULER_REL_TOL, 0.0),
        }
        problems = [f"constants exit {rc}"] if rc != 0 else []
        for label, (ref, rel, abs_) in expected.items():
            if label not in rows or not close(rows[label], ref, rel, abs_):
                problems.append(f"constants {label}={rows.get(label)} vs {ref}")
        return problems
    return check


def check_buchstab(points: list[float]) -> Callable[[int, str], list[str]]:
    def check(rc: int, out: str) -> list[str]:
        rows = csv_rows(out)
        problems = [f"functions exit {rc}"] if rc != 0 else []
        if [float(r["point"]) for r in rows] != points:
            return problems + [f"functions rows {rows} for points {points}"]
        return problems + [f"w({u})={r['value']}" for u, r in zip(points, rows)
                           if r["error"] or not close(r["value"], buchstab_ref(u), 0.0,
                                                      PRINT_ABS_TOL)]
    return check


def check_count(kind: str, size: int, table: dict) -> Callable[[int, str], list[str]]:
    expected = table[f"{kind}_{'1_1' if kind == 'pi_1ab' else '2_2'}"][str(size)]

    def check(rc: int, out: str) -> list[str]:
        rows = csv_rows(out)
        if rc != 0 or len(rows) != 1:
            return [f"count {kind} {size}: exit {rc}, {len(rows)} rows"]
        row = rows[0]
        if (row["kind"], row["size"], row["count"]) != (kind, str(size), str(expected)):
            return [f"count {kind} {size}: got {row}, want count {expected}"]
        return []
    return check


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Step:
    argv: list[str]
    check: Callable[[int, str], list[str]]


@dataclass(frozen=True)
class Inputs:
    """One op's inputs, drawn from the recorded set."""

    pi_size: int
    d_size: int
    cn: int
    points: list[float]


def draw(rng: random.Random, table: dict) -> Inputs:
    return Inputs(rng.choice(table["sizes"]), rng.choice(table["sizes"]),
                  rng.choice(RECORDED["cn_values"]),
                  sorted(rng.sample(RECORDED["w_points"], W_POINTS_PER_OP)))


def pipeline_cold(inp: Inputs, table: dict) -> list[Step]:
    return [
        Step(["verify"], check_verify),
        Step(["constants", "C2", "C3", "C0", f"CN={inp.cn}"], check_constants(inp.cn)),
        Step(["functions", "w", "--points", ",".join(repr(u) for u in inp.points)],
             check_buchstab(inp.points)),
    ]


def count_forward(inp: Inputs, table: dict) -> list[Step]:
    return [Step(["count", "pi_1ab", str(inp.pi_size), "1", "1"],
                 check_count("pi_1ab", inp.pi_size, table))]


def count_mirror(inp: Inputs, table: dict) -> list[Step]:
    return [Step(["count", "D_1ab", str(inp.d_size), "2", "2"],
                 check_count("D_1ab", inp.d_size, table))]


WORKLOADS = {
    # the constants pipeline as users run it: imports and quadrature dominate,
    # the engine does no work, so engine changes must leave it flat.  Not listed
    # in BENCHMARK.json: its wall time is ~90% interpreter and import work, which
    # drifts most with the host's speed (10-run spreads 0.10-0.31 where the count
    # workloads read 0.06-0.12); setup_s carries that import cost on every workload
    "pipeline_cold": pipeline_cold,
    # the streaming forward sieve: engine > 80% of wall time; kernel,
    # segment-size and threading changes show here
    "count_forward": count_forward,
    # the same Omega kernel building the whole mirrored array: memory changes and
    # kernel changes that trade bytes for speed show here
    "count_mirror": count_mirror,
}

# Top-level spans of the traced walk that each child of a workload's cold op
# computes, besides its own ``cli.main``.  The walk runs every layer once on
# every workload; a cold child recomputes what it needs, so pipeline_cold's
# verify and constants children both build C3 and the chain.
OP_PATH = {
    "pipeline_cold": (
        {"import.cli", "sieve_functions.curves", "quadrature.named", "quadrature.chain",
         "constants.C3", "constants.C0", "constants.E", "constants.L",
         "pipeline.terms", "pipeline.report"},
        {"import.cli", "quadrature.chain", "constants.C2", "constants.C3", "constants.C0",
         "constants.CN"},
        {"import.cli", "sieve_functions.buchstab_table"},
    ),
    "count_forward": ({"import.cli", "constants.C3", "engine.count.tN"},),
    "count_mirror": ({"import.cli", "engine.mirror"},),
}


# ---------------------------------------------------------------------------
# Children
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Child:
    rc: int
    out: str
    err: str
    wall_s: float
    maxrss_mb: float


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC), TRIPLESIEVE_THREADS=str(NPROC))


def spawn(argv: list[str], deadline: float) -> Child:
    """Run one child to exit; wall time from spawn to exit, peak RSS from wait4."""
    timeout = max(deadline - time.perf_counter(), 1.0)
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(proc.returncode, out.read().decode(), err.read().decode(), wall,
                     usage.ru_maxrss * 1024 / 1e6)


def cli_argv(step: Step) -> list[str]:
    return [sys.executable, "-m", "triplesieve", *step.argv]


def checked(step: Step, rc: int, out: str) -> list[str]:
    try:
        return step.check(rc, out)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"{' '.join(step.argv)}: unreadable output ({exc!r})"]


def run_op(steps: list[Step], deadline: float) -> dict:
    """One cold op: its children one after another, each output checked."""
    start = time.perf_counter()
    children = [(step, spawn(cli_argv(step), deadline)) for step in steps]
    problems = []
    for step, child in children:
        problems += checked(step, child.rc, child.out)
        if child.rc != 0:
            problems.append(f"{' '.join(step.argv)}: {child.err.strip()[-300:]}")
    return {
        "argv": [s.argv for s in steps],
        "wall_s": time.perf_counter() - start,
        "peak_rss_mb": max(c.maxrss_mb for _, c in children),
        "problems": problems,
    }


PROBE = """
import json, platform, sys, numpy, triplesieve
from triplesieve import engine
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": sys.modules["scipy"].__version__ if "scipy" in sys.modules
                  else "absent", "SEGMENT_CAP": getattr(engine, "SEGMENT_CAP", None),
                  "package_file": triplesieve.__file__}))
"""


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return res.stdout.strip() or None


def provenance(deadline: float) -> dict:
    """Versions and settings; the child also compiles the package's bytecode
    so that the timed set-up samples all start from the same state."""
    child = spawn([sys.executable, "-c", PROBE], deadline)
    if child.rc != 0:
        raise RuntimeError(f"cannot import the package from {SRC}:\n{child.err}")
    info = json.loads(child.out.strip().splitlines()[-1])
    if not Path(info.pop("package_file")).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"imported a triplesieve outside {SRC}")
    return {**info, "nproc": NPROC, "TRIPLESIEVE_THREADS": NPROC,
            "git_commit": git_commit(), "src_sha256": source_digest()}


def setup_sample(deadline: float) -> float:
    """Wall time of one cold ``import triplesieve``: what every CLI op pays first."""
    child = spawn([sys.executable, "-c", "import triplesieve"], deadline)
    if child.rc != 0:
        raise RuntimeError(f"import failed:\n{child.err}")
    return child.wall_s


# ---------------------------------------------------------------------------
# Traced walk
# ---------------------------------------------------------------------------


def self_times(spans: list[dict]) -> dict[int, float]:
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def top_level_name(spans: list[dict], span: dict) -> str:
    while spans[span["parent"]]["parent"] is not None:
        span = spans[span["parent"]]
    return span["name"]


def op_path_s(spans: list[dict], workload: str) -> float:
    """Traced time of what the workload's cold op computes, child by child."""
    top = [s for s in spans if s["parent"] == 0]
    mains = [s for s in top if s["name"] == "cli.main"]
    return sum(sum(s["end"] - s["start"] for s in top if s["name"] in names)
               + main["end"] - main["start"]
               for names, main in zip(OP_PATH[workload], mains))


def layer_metrics(walk: dict, workload: str) -> tuple[dict[str, float], dict]:
    """Per-layer metrics and exact work counts of one traced walk."""
    spans = walk["spans"]
    own = self_times(spans)
    by_name: dict[str, list[float]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(own[s["id"]])

    def total(name: str) -> float:
        return sum(by_name[name])

    def rate(label: str) -> float:
        span = next(s for s in spans if s["name"] == f"engine.segment.{label}")
        return span["integers"] / statistics.median(by_name[f"engine.segment.{label}"]) / 1e6

    path = set().union(*OP_PATH[workload], {"cli.main"})
    on_path = [s for s in spans if s["parent"] is not None and top_level_name(spans, s) in path]
    blocks = walk["omega_blocks"]  # None when the engine has no _omega_block to count
    sieved = None if blocks is None else [v for k, v in blocks.items() if k in path]
    t1, tn = total("engine.count.t1"), total("engine.count.tN")
    metrics = {
        "import.numpy_s": total("import.numpy"),
        "import.package_s": total("import.package"),
        "primes.table_s": total("primes.table"),
        "primes.count": max(s["primes"] for s in on_path if s["name"] == "primes.table"),
        "sieve_functions.buchstab_table_s": total("sieve_functions.buchstab_table"),
        "sieve_functions.curves_s": total("sieve_functions.curves"),
        "quadrature.named_s": total("quadrature.named"),
        "quadrature.chain_s": total("quadrature.chain"),
        "quadrature.nested_evals": walk["nested_evals"],
        "constants.euler_s": total("constants.C2") + total("constants.C3"),
        "constants.C3_truncation_prime": walk["C3_truncation_prime"],
        "constants.C0_s": total("constants.C0"),
        "constants.E_s": total("constants.E"),
        "constants.L_s": total("constants.L"),
        "pipeline.terms_s": total("pipeline.terms"),
        "pipeline.report_s": total("pipeline.report"),
        "engine.segment_rate.near": rate("near"),
        "engine.segment_rate.far": rate("far"),
        "engine.count_s.t1": t1,
        "engine.count_s.tN": tn,
        "engine.scaling_eff": t1 / (NPROC * tn),
        "engine.mirror_s": total("engine.mirror"),
        "engine.mirror_peak_mb": walk["mirror_peak_bytes"] / 1e6,
        "cli.main_s": total("cli.main"),
        "trace.untraced_s": own[0],
    }
    counts = {
        "quadrature.nested_evals": walk["nested_evals"],
        "primes.count": metrics["primes.count"],
        "constants.C3_truncation_prime": walk["C3_truncation_prime"],
        "engine.segments_sieved": None if sieved is None else sum(b["segments"] for b in sieved),
        "engine.integers_sieved": None if sieved is None else sum(b["integers"] for b in sieved),
        "omega_blocks_by_span": blocks,
    }
    return metrics, counts


def run_walk(inp: Inputs, steps: list[Step], table: dict, deadline: float) -> dict:
    cfg = {"pi_size": inp.pi_size, "d_size": inp.d_size, "cn": inp.cn, "threads": NPROC,
           "argvs": [s.argv for s in steps]}
    child = spawn([sys.executable, str(HERE / "trace.py"), json.dumps(cfg)], deadline)
    if child.rc != 0:
        return {"problems": [f"traced walk exit {child.rc}: {child.err.strip()[-600:]}"],
                "wall_s": child.wall_s}
    walk = json.loads(child.out.strip().splitlines()[-1])
    problems = []
    for step, res in zip(steps, walk["cli"]):
        problems += checked(step, res["rc"], res["stdout"])
    want = {"pi_1ab_t1": table["pi_1ab_1_1"][str(inp.pi_size)],
            "pi_1ab_tN": table["pi_1ab_1_1"][str(inp.pi_size)],
            "D_1ab": table["D_1ab_2_2"][str(inp.d_size)]}
    if walk["counts"] != want:
        problems.append(f"in-process counts {walk['counts']}, want {want}")
    walk["problems"] = problems
    walk["wall_s"] = child.wall_s
    return walk


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    OUT.mkdir(exist_ok=True)
    deadline = time.perf_counter() + RUN_BUDGET_S
    table = RECORDED["smoke" if smoke else "full"]
    rng = random.Random(f"{workload}:{seed}")
    make_steps = WORKLOADS[workload]
    prov = {**provenance(deadline), "seed": seed, "workload": workload,
            "trace": int(trace), "smoke": smoke}
    # set-up samples alternate with ops, so both see the same machine conditions
    setup, ops = [], []
    start = time.perf_counter()
    while not ops or (not trace and time.perf_counter() - start < seconds):
        setup.append(setup_sample(deadline))
        ops.append(run_op(make_steps(draw(rng, table), table), deadline))
    while len(setup) < (1 if smoke else SETUP_SAMPLES):
        setup.append(setup_sample(deadline))
    # walks repeat only while another one still fits in the measuring time
    walks = []
    while trace and (not walks or time.perf_counter() - start + walks[-1]["wall_s"] < seconds):
        inp = draw(rng, table)
        walks.append(run_walk(inp, make_steps(inp, table), table, deadline))

    setup_s = statistics.median(setup)
    wall_s = statistics.median(op["wall_s"] for op in ops)
    failed = sum(bool(x["problems"]) for x in ops + walks)
    attempted = len(ops) + len(walks)
    sizes = [int(op["argv"][0][2]) for op in ops if op["argv"][0][0] == "count"]
    summary = {
        "ops": len(ops),
        "setup_samples": len(setup),
        "fail_rate": failed / attempted,
        "sieve_rate": statistics.median(sizes) / wall_s if sizes else None,
    }
    record = {"provenance": prov, "summary": summary, "setup_s_samples": setup, "ops": ops}

    if trace:
        good = [w for w in walks if not w["problems"]]
        per_walk = [layer_metrics(w, workload) for w in good]
        # median_low keeps each value one that was measured, and counts whole
        metrics = {name: statistics.median_low(m[name] for m, _ in per_walk)
                   for name in PER_LAYER_UNITS} if per_walk else {}
        units = PER_LAYER_UNITS
        if per_walk:
            spans = good[0]["spans"]
            children = len(ops[0]["argv"])
            # traced op-path time minus the cold op's time less its interpreter set-up
            prov["tracing_overhead_s"] = op_path_s(spans, workload) - (wall_s - children * setup_s)
            record["counts"] = per_walk[0][1]
            record["walk_total_s"] = spans[0]["end"]
        record["walks"] = [{k: v for k, v in w.items() if k != "cli"} for w in walks]
    else:
        metrics = {"setup_s": setup_s, "wall_s": wall_s,
                   "peak_rss_mb": statistics.median(op["peak_rss_mb"] for op in ops)}
        units = END_TO_END_UNITS
        prov["tracing_overhead_s"] = None  # measured in --trace 1 runs
    result = {
        "correct": failed == 0 and len(metrics) == len(units),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record["result"] = result
    name = f"{workload}-seed{seed}-trace{int(trace)}{'-smoke' if smoke else ''}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    return record


def print_report(record: dict) -> None:
    prov, summary, result = record["provenance"], record["summary"], record["result"]
    print(f"# {prov['workload']} seed={prov['seed']} trace={prov['trace']} "
          f"ops={summary['ops']} attempted={result['attempted']} failed={result['failed']} "
          f"fail_rate={summary['fail_rate']:.6g}")
    for name, m in result["metrics"].items():
        print(f"#   {name:36s} {m['value']:>14.6g} {m['unit']}")
    if summary["sieve_rate"] is not None and not prov["trace"]:
        print(f"#   {'sieve_rate':36s} {summary['sieve_rate']:>14.6g} 1/s")
    if "counts" in record:
        for name, value in record["counts"].items():
            if name != "omega_blocks_by_span":
                print(f"#   count {name:30s} {value}")
        untraced = result["metrics"]["trace.untraced_s"]["value"]
        print(f"#   walk {record['walk_total_s']:.4f} s in process, untraced "
              f"{untraced:.4f} s ({untraced / record['walk_total_s']:.2%})")
    for problem in [p for x in record["ops"] + record.get("walks", []) for p in x["problems"]]:
        print(f"# FAILED: {problem}")
    print("PROVENANCE " + json.dumps(prov))


def smoke() -> int:
    """Every workload at tiny sizes, untraced and traced; every metric named in
    BENCHMARK.json must be emitted with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = [f"BENCHMARK.json workload {w['name']} is not in run.py"
                for w in spec["workloads"] if w["name"] not in WORKLOADS]
    for workload in WORKLOADS:
        for trace in (0, 1):
            record = run(workload, seed=0, seconds=0, trace=bool(trace), smoke=True)
            print_report(record)
            result = record["result"]
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{workload} trace={trace}: metrics {got} != {wanted[trace]}")
            if not result["correct"]:
                problems.append(f"{workload} trace={trace}: not correct")
    for problem in problems:
        print(f"SMOKE FAILED: {problem}")
    print("smoke ok" if not problems else "smoke failed")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny sizes and check the metric names")
    args = parser.parse_args()
    if not (SRC / "triplesieve" / "__init__.py").is_file():
        sys.stderr.write(f"no package source at {SRC}/triplesieve; run from a checkout\n")
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        record = run(workload, args.seed, args.seconds, bool(args.trace))
        print_report(record)
        print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
