"""One traced walk over triplesieve's layers, timed from outside the package.

run.py starts this in a fresh interpreter, with the checkout's ``src/`` as the
only package path and one JSON argument:

    {"pi_size": int, "d_size": int, "cn": int, "threads": int, "argvs": [[...], ...]}

The walk calls each module's public functions bottom-up (sieve curves and
integrals before the constants and terms built on them, the engine's kernel
probes before its counters, the CLI last with every cache warm), so each span
holds its own layer's work.  A few module-level references are wrapped to
record nested spans and exact work counts: the prime table, the integrands of
the named displays, and the Omega kernel when the engine has one.  Spans are
kept in memory and printed, with the counts and the CLI outputs, as one JSON
line when the walk ends.  Nothing in the package is modified on disk.
"""

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402  (imports after T0 are part of the walk)
import dataclasses  # noqa: E402
import functools  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import tracemalloc  # noqa: E402

SEGMENT_SPAN = 1 << 20  # fixed, so the probe keeps its meaning when SEGMENT_CAP changes
SEGMENT_PROBES = {"near": 10**8, "far": 10**10 - SEGMENT_SPAN}
SEGMENT_REPS = 3
NAMED_DISPLAYS = ("G", "g", "H", "h", "J", "K", "E")
EULER_TOL = 1e-6  # the tolerance the CLI and the predictors request


class Tracer:
    """Spans (name, start, end, parent) recorded on the main thread."""

    def __init__(self) -> None:
        self.spans = [{"id": 0, "name": "walk", "parent": None, "start": 0.0, "end": None}]
        self.stack = [0]
        self.main = threading.main_thread()

    @contextlib.contextmanager
    def span(self, name, **facts):
        rec = {"id": len(self.spans), "name": name, "parent": self.stack[-1],
               "start": time.perf_counter() - T0, "end": None, **facts}
        self.spans.append(rec)
        self.stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - T0
            self.stack.pop()

    def top_level(self):
        """Name of the outermost open span below the walk, or None."""
        return self.spans[self.stack[1]]["name"] if len(self.stack) > 1 else None

    def finish(self):
        self.spans[0]["end"] = time.perf_counter() - T0
        return self.spans


def wrap_prime_tables(tr, modules):
    """Record every prime-table request as a 'primes.table' span."""
    for mod in modules:
        original = getattr(mod, "primes_up_to", None)
        if original is None:
            continue

        @functools.wraps(original)
        def traced(n, *args, _original=original, **kwargs):
            if threading.current_thread() is not tr.main:
                return _original(n, *args, **kwargs)
            with tr.span("primes.table", n=int(n)) as rec:
                table = _original(n, *args, **kwargs)
            rec["primes"] = len(table)
            return table

        setattr(mod, "primes_up_to", traced)


def count_named_integrands(quadrature, np):
    """Count integrand points evaluated for the named displays."""
    evals = [0]
    original = quadrature.named_integral_specs
    replaced = {}

    def counting(integrand):
        def counted(*args):
            out = integrand(*args)
            evals[0] += int(np.size(out))
            return out
        return counted

    def specs(name):
        if name not in replaced:
            replaced[name] = tuple(dataclasses.replace(s, integrand=counting(s.integrand))
                                   for s in original(name))
        return replaced[name]

    quadrature.named_integral_specs = specs
    return evals


def count_omega_blocks(tr, engine):
    """Segments and integers sieved, per top-level span; None if the kernel moved."""
    kernel = getattr(engine, "_omega_block", None)
    if kernel is None:
        return None
    counts = {}
    lock = threading.Lock()

    @functools.wraps(kernel)
    def counted(*args, **kwargs):
        omegas = kernel(*args, **kwargs)
        with lock:
            entry = counts.setdefault(tr.top_level(), {"segments": 0, "integers": 0})
            entry["segments"] += 1
            entry["integers"] += len(omegas)
        return omegas

    engine._omega_block = counted
    return counts


def walk(cfg):
    tr = Tracer()
    with tr.span("import.numpy"):
        import numpy as np
    with tr.span("import.package"):
        import triplesieve  # noqa: F401
    with tr.span("import.cli"):
        from triplesieve import cli
    from triplesieve import constants, engine, pipeline, primes, quadrature, sieve_functions

    wrap_prime_tables(tr, (primes, constants, engine))
    nested_evals = count_named_integrands(quadrature, np)
    omega_blocks = count_omega_blocks(tr, engine)
    fn_slots = sorted({float(slot["fn"]) for term in pipeline.load_terms().values()
                       for slot in (term.brace["slot1"], term.brace["slot2"]) if "fn" in slot})

    with tr.span("sieve_functions.buchstab_table"):
        sieve_functions.buchstab_w(3.0)
    with tr.span("sieve_functions.curves"):
        for s in fn_slots:
            sieve_functions.upper_F0(s)
            sieve_functions.lower_f0(s)
    with tr.span("quadrature.named"):
        for name in NAMED_DISPLAYS:
            quadrature.named_integral_value(name)
    with tr.span("quadrature.chain"):
        quadrature.chain_value(quadrature.ChainFamily(), quadrature.CHAIN_K_MIN)
    with tr.span("constants.C2"):
        constants.constant_C2(EULER_TOL)
    with tr.span("constants.C3"):
        c3 = constants.constant_C3(EULER_TOL)
    with tr.span("constants.C0"):
        constants.constant_C0()
    with tr.span("constants.E"):
        constants.coefficient_E()
    with tr.span("constants.L"):
        constants.coefficient_L()
    with tr.span("constants.CN"):
        constants.singular_series_CN(cfg["cn"])
    with tr.span("pipeline.terms"):
        for label in pipeline.TERM_LABELS:
            pipeline.term_coefficient(label)
    with tr.span("pipeline.report"):
        pipeline.verification_report()

    for label, lo in SEGMENT_PROBES.items():
        for _ in range(SEGMENT_REPS):
            with tr.span(f"engine.segment.{label}", integers=SEGMENT_SPAN):
                engine.sieve_omega(lo, lo + SEGMENT_SPAN)
    threads = str(cfg["threads"])
    os.environ["TRIPLESIEVE_THREADS"] = "1"
    with tr.span("engine.count.t1"):
        single = engine.count_pi_1ab(cfg["pi_size"], 1, 1)
    os.environ["TRIPLESIEVE_THREADS"] = threads
    with tr.span("engine.count.tN"):
        forward = engine.count_pi_1ab(cfg["pi_size"], 1, 1)
    with tr.span("engine.mirror"):
        mirror = engine.count_D_1ab(cfg["d_size"], 2, 2)
    with tr.span("engine.mirror_peak"):
        tracemalloc.start()
        try:
            engine.count_D_1ab(cfg["d_size"], 2, 2)
            mirror_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # the CLI with caches warm: counts already made above are served from memory,
    # so the span holds argument parsing, rendering and emitting
    made = {("pi_1ab", cfg["pi_size"], 1, 1): forward, ("D_1ab", cfg["d_size"], 2, 2): mirror}
    for kind in ("pi_1ab", "D_1ab"):
        original = getattr(engine, f"count_{kind}")

        def served(size, a, b, *args, _kind=kind, _original=original, **kwargs):
            key = (_kind, int(size), int(a), int(b))
            return made[key] if key in made else _original(size, a, b, *args, **kwargs)

        setattr(engine, f"count_{kind}", served)
    outputs = []
    for argv in cfg["argvs"]:
        buf = io.StringIO()
        with tr.span("cli.main"), contextlib.redirect_stdout(buf):
            rc = cli.main(list(argv))
        outputs.append({"argv": argv, "rc": rc, "stdout": buf.getvalue()})

    spans = tr.finish()
    return {
        "spans": spans,
        "nested_evals": nested_evals[0],
        "omega_blocks": omega_blocks,
        "C3_truncation_prime": c3.truncation_prime,
        "mirror_peak_bytes": mirror_peak,
        "counts": {"pi_1ab_t1": single.count, "pi_1ab_tN": forward.count,
                   "D_1ab": mirror.count},
        "cli": outputs,
    }


if __name__ == "__main__":
    print(json.dumps(walk(json.loads(sys.argv[1]))))
