"""Command-line driver: verification, counting, ratio scans, tabulation.

Subcommands
    verify      recompute every published constant, emit direction-aware rows
    count       one pattern-counting query (pi_1ab, D_1ab, pi_1r, D_1r, D_sr)
    ratio       counts and count/predictor ratios at ascending checkpoints
    functions   tabulate F0, f0 or w at given points
    constants   the Euler products and aggregated constants

Reports are CSV (default) or JSON built from identical pre-formatted string
rows, so the two formats carry the same values field for field.  Output is
deterministic; the timestamp header is the only varying line and is dropped
with --no-timestamp.  Exit codes: 0 clean, 1 usage (argparse errors included)
or I/O failure, 2 flagged rows / out-of-domain points.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import io
import math
import os
import sys
import tempfile
from collections.abc import Callable
from datetime import datetime, timezone
from typing import NoReturn

# constants, pipeline and sieve_functions (and json) are imported by the commands
# that use them, so that count and ratio load only the engine
from . import engine
from .errors import CapacityError, DomainError, EvaluationError

SCHEMA = 1


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _render(command: str, columns: list[str], rows: list[dict[str, str]],
            fmt: str, timestamp: bool) -> str:
    if fmt == "json":
        import json

        doc: dict = {"schema": SCHEMA, "command": command}
        if timestamp:
            doc["generated"] = datetime.now(timezone.utc).isoformat()
        doc["columns"] = columns
        doc["rows"] = rows
        return json.dumps(doc, indent=2) + "\n"
    buf = io.StringIO()
    if timestamp:
        buf.write(f"# generated {datetime.now(timezone.utc).isoformat()}\n")
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        if sys.stdout is None:  # started with its stdout closed
            raise OSError("standard output is closed")
        sys.stdout.write(text)
        return
    # the errors name the path given, not the temporary file that replaces it
    if os.path.isdir(out_path):  # the temporary file would go to its parent
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), out_path)
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(out_path)),
                                   prefix=".triplesieve-")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, out_path) from None
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, out_path)  # no partial files on failure
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="write the report here (atomic)")
    p.add_argument("--no-timestamp", action="store_true",
                   help="suppress the generated-at header for byte-identical runs")


def _parse_tolerances(items: list[str]) -> tuple[float | None, dict[str, float]]:
    """The default and per-label tolerances; the report rejects an unknown label."""
    default = None
    overrides: dict[str, float] = {}
    for item in items:
        if "=" in item:
            label, _, pct = item.partition("=")
            overrides[label] = _fraction(pct)
        else:
            default = _fraction(item)
    return default, overrides


def _fraction(pct: str) -> float:
    """A --tolerance percentage as a fraction: finite and at least 0."""
    value = float(pct) / 100.0
    if not 0 <= value < math.inf:  # also rejects nan
        raise DomainError(f"tolerance must be a finite percentage >= 0, got {pct.strip()!r}")
    return value


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import pipeline

    default_tol, overrides = _parse_tolerances(args.tolerance)
    checks = pipeline.verification_report(
        tolerance=0.01 if default_tol is None else default_tol,
        overrides=overrides,
        use_paper_values=args.paper_values,
    )
    columns = ["label", "computed", "paper", "direction", "rel_diff", "verdict"]
    rows = [
        {
            "label": c.label,
            "computed": _fmt(c.computed),
            "paper": _fmt(c.paper),
            "direction": c.direction,
            "rel_diff": _fmt(c.rel_diff),
            "verdict": c.verdict,
        }
        for c in checks
    ]
    _emit(_render("verify", columns, rows, args.format, not args.no_timestamp), args.out)
    return 0 if all(c.passed for c in checks) else 2


_COUNT_COLUMNS = ["kind", "size", "a", "b", "s", "r", "count", "predicted", "ratio"]


def _count_row(res: engine.TripleCountResult) -> dict[str, str]:
    row = {c: "" for c in _COUNT_COLUMNS}
    row.update(kind=res.kind, size=str(res.size), count=str(res.count),
               predicted=_fmt(res.predicted), ratio=_fmt(res.ratio))
    for key, val in res.params.items():
        row[key] = str(val)
    return row


def _cmd_count(args: argparse.Namespace) -> int:
    engine.kind_params(args.kind, args.params)  # arity errors as usage errors, not TypeError
    res = getattr(engine, f"count_{args.kind}")(args.size, *args.params)
    text = _render("count", _COUNT_COLUMNS, [_count_row(res)],
                   args.format, not args.no_timestamp)
    _emit(text, args.out)
    return 0


def integer(token: str) -> int:
    """An integer argument, also in exponent form such as 1e6.  Any other token
    (100.5, inf, nan, abc) raises ValueError: a usage error both as an argparse
    type and under main."""
    try:
        return int(token)
    except ValueError:
        value = float(token)  # not a number at all: a ValueError itself
    if not value.is_integer():  # also rejects inf and nan
        raise ValueError(f"expected an integer, got {token.strip()!r}")
    return int(value)


def _listed(text: str, parse: Callable[[str], float], name: str, kind: str) -> list:
    """The non-blank comma-separated tokens of option ``name``, each through
    ``parse``; at least one."""
    values = []
    for token in filter(str.strip, text.split(",")):
        try:
            values.append(parse(token))
        except ValueError:
            raise DomainError(f"{name} must be {kind}, got {token.strip()!r}") from None
    if not values:
        raise DomainError(f"{name} must hold at least one value, got {text!r}")
    return values


def _cmd_ratio(args: argparse.Namespace) -> int:
    checkpoints = _listed(args.checkpoints, integer, "checkpoints", "integers")
    results = engine.ratio_scan(args.kind, args.params, checkpoints)
    text = _render("ratio", _COUNT_COLUMNS, [_count_row(r) for r in results],
                   args.format, not args.no_timestamp)
    _emit(text, args.out)
    return 0


def _cmd_functions(args: argparse.Namespace) -> int:
    from .sieve_functions import buchstab_w, lower_f0, upper_F0

    evaluators = {"F0": upper_F0, "f0": lower_f0, "w": buchstab_w}
    fn = evaluators[args.which]
    rows = []
    failed = False
    for point in _listed(args.points, float, "points", "numbers"):
        row = {"function": args.which, "point": _fmt(point), "value": "", "error": ""}
        try:
            row["value"] = _fmt(fn(point))
        except DomainError as exc:  # the point as given: 1e308 in six decimals has 309 digits
            row["point"], row["error"] = repr(point), str(exc)
            failed = True
        rows.append(row)
    text = _render("functions", ["function", "point", "value", "error"], rows,
                   args.format, not args.no_timestamp)
    _emit(text, args.out)
    return 2 if failed else 0


def _cmd_constants(args: argparse.Namespace) -> int:
    from . import constants

    requested = args.names or ["C2", "C3", "C0"]
    rows = []
    for name in requested:
        row = {"label": name, "value": "", "truncation_prime": "", "tail_bound": ""}
        if name == "C2" or name == "C3":
            res = (constants.constant_C2 if name == "C2" else constants.constant_C3)()
            row.update(value=f"{res.value:.15g}", truncation_prime=str(res.truncation_prime),
                       tail_bound=f"{res.tail_bound:.3e}")
        elif name == "C0":
            row["value"] = f"{constants.constant_C0():.15g}"
        elif name.startswith("CN="):
            n = integer(name.partition("=")[2])
            row["label"] = f"CN={n}"
            row["value"] = f"{constants.singular_series_CN(n):.15g}"
        else:
            raise DomainError(f"unknown constant {name!r}; use C2, C3, C0 or CN=<N>")
        rows.append(row)
    text = _render("constants", ["label", "value", "truncation_prime", "tail_bound"],
                   rows, args.format, not args.no_timestamp)
    _emit(text, args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse with the CLI's exit codes: a usage error exits 1, since 2 means flagged."""

    def error(self, message: str):
        self.exit(1, f"{self.format_usage()}{self.prog}: error: {message}\n")

    def _print_message(self, message: str, file=None) -> None:
        # argparse drops an OSError from this write, which with unbuffered streams
        # would make --help into a full stdout exit 0; main reports it instead
        file = file or sys.stderr
        if message and file is not None:
            file.write(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="triplesieve",
        description="Recompute the weighted-sieve constants for (p, p+2, p+6) "
                    "almost-prime triples and count them at desk scale.",
    )
    # optional, so that an unknown option is reported before a missing command
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("verify", help="recompute and check every published constant")
    p.add_argument("--tolerance", action="append", default=[], metavar="[LABEL=]PCT",
                   help="relative tolerance in percent, globally or per label")
    p.add_argument("--paper-values", action="store_true",
                   help="substitute the published values (report plumbing identity)")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("count", help="one counting query")
    p.add_argument("kind", choices=sorted(engine.KINDS))
    p.add_argument("size", type=integer)
    p.add_argument("params", type=int, nargs="*")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("ratio", help="counts vs predictor at ascending checkpoints")
    p.add_argument("kind", choices=sorted(engine.KINDS))
    p.add_argument("params", type=int, nargs="*")
    p.add_argument("--checkpoints", required=True, metavar="x1,x2,...")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_ratio)

    p = sub.add_parser("functions", help="tabulate a sieve curve at given points")
    p.add_argument("which", choices=("F0", "f0", "w"))
    p.add_argument("--points", required=True, metavar="p1,p2,...",
                   help="comma-separated points; write --points=-1,3 when the first is negative")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_functions)

    p = sub.add_parser("constants", help="Euler products and aggregated constants")
    p.add_argument("names", nargs="*", metavar="C2|C3|C0|CN=<N>")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_constants)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.error("the following arguments are required: command")
        return args.func(args)
    except (DomainError, CapacityError, EvaluationError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        sys.stderr.write(parser.format_usage())
        return 1
    except OSError as exc:
        with contextlib.suppress(OSError):  # stderr may be what failed
            sys.stderr.write(f"i/o error: {exc}\n")
        return 1


def run() -> NoReturn:
    """The process entry of ``python -m triplesieve`` and the console script.

    Exits with main's code, or argparse's, once stdout and stderr are flushed.
    A stream that fails only at the flush (a full disk, a pipe whose reader has
    gone) makes the code 1, with an i/o error line."""
    try:
        code = main()
    except SystemExit as exc:  # argparse: a usage error exits 1, --help 0
        code = exc.code or 0
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except OSError as exc:
        with contextlib.suppress(OSError):  # stderr may be what failed
            os.write(2, f"i/o error: {exc}\n".encode())
        code = 1
    # Leave without interpreter finalisation: its last garbage-collection pass over
    # every numpy object and the module teardown only free memory, which the kernel
    # takes back at exit anyway.  Nothing is left to close: forked workers are
    # reaped, --out is written and closed, and the package registers no atexit
    # handler.  An exception that escapes main propagates and never gets here.
    os._exit(code)


if __name__ == "__main__":
    run()
