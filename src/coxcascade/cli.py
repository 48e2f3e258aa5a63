"""Command-line front end.

Subcommands expose the probability evaluators (``pmf``, ``cdf``, ``tail``,
``parity``), the block-size rule (``blocksize``), the error-pattern
sampler (``sample``), the protocol simulator (``reconcile``) and the
validation suites (``validate``).  Each command renders one plain result
here: ``reconcile`` its header fields and the :class:`ReconcileOutcome`'s
fields, in order, as JSON; ``validate`` the sorted :class:`CheckRecord`
list of :func:`run_suites` as the text report and the records CSV, and
exits 1 iff a record failed.  Identical invocations, seed included,
produce byte-identical output.

Numeric rendering is fixed: JSON is written by :func:`json.dumps`, whose
floats are the shortest text that reads back as the same double, and CSV
floats have 12 significant digits.  Exit codes: 0 success, 1 validation
failure, 2 usage or parameter error.  A bad flag is reported by argparse:
a usage block, then one ``coxcascade <command>: error: …`` line.  Every
other refusal is that one stderr line alone: an evaluator that refuses its
input, whose series does not converge, overflows or turns ``nan``, or
whose value overflows or is no probability, a non-finite float bound for
JSON, a request too large to allocate, a bad ``COXCASCADE_SEED``, an
output path that cannot be written and two outputs that name one
destination (one file, or ``-`` for stdout twice).  Outputs are checked
and opened before a command computes anything, so those last two refusals
come at once.  The default seed is 24301 and can be overridden with the
``COXCASCADE_SEED`` environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
from contextlib import ExitStack, contextmanager
from dataclasses import asdict, astuple
from typing import Iterable, Sequence

from .error_model import (
    GammaIntensity,
    TimeUnitLayout,
    cdf,
    p_odd,
    p_odd_finite,
    pmf,
    recommend_block_size,
    sample_error_pattern,
    sample_process,
    tail,
)
from .reconciliation import (
    CascadeConfig,
    Transcript,
    make_key_pair,
    reconcile,
)
from .special_functions import SeriesNonConvergence
from .validation import SUITES, CheckRecord, run_suites

DEFAULT_SEED = 24301

CSV_DIGITS = 12


def _default_seed() -> int:
    raw = os.environ.get("COXCASCADE_SEED")
    if raw is None:
        return DEFAULT_SEED
    msg = f"COXCASCADE_SEED must be a nonnegative integer, got {raw!r}"
    try:
        seed = int(raw)
    except ValueError:
        raise ValueError(msg) from None
    if seed < 0:
        raise ValueError(msg)
    return seed


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, f".{CSV_DIGITS}g")
    return str(v)


def _same_destination(path: str, other: str) -> bool:
    if "-" in (path, other):
        return path == other
    if os.path.realpath(path) == os.path.realpath(other):
        return True
    try:
        return os.path.samefile(path, other)
    except OSError:  # one of them does not exist yet
        return False


def _open_output(path: str, created: list[str]):
    """Open ``path`` for appending; note it in ``created`` if it is new."""
    try:
        fh = open(path, "x", newline="\n")
    except FileExistsError:
        return open(path, "a", newline="\n")
    created.append(path)
    return fh


@contextmanager
def _outputs(*paths: str | None):
    """Open every output destination before the work that fills it.

    Path ``-`` is stdout; a ``None`` path is an output not asked for, and
    is dropped.  Yields ``emit(*texts)``, which writes one rendered text
    to each remaining path in order.  No two paths may name one
    destination: not one file, and not stdout twice.  Every file is
    opened, without truncating it, before the work starts; if a path
    cannot be opened, or the work or a write raises, the files this call
    created are removed again, so the command fails with every file as it
    was.  ``emit`` truncates a regular file just before writing it, as
    ``open(path, "w")`` would.
    """
    paths = [path for path in paths if path is not None]
    for i, path in enumerate(paths):
        for other in paths[:i]:
            if _same_destination(path, other):
                raise ValueError(f"two outputs name the same file: {other!r} and {path!r}")
    created: list[str] = []

    def emit(*texts: str) -> None:
        for fh, text in zip(handles, texts, strict=True):
            if fh is not sys.stdout and stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate(0)
            fh.write(text)

    with ExitStack() as stack:
        try:
            handles = [
                sys.stdout if path == "-" else stack.enter_context(_open_output(path, created))
                for path in paths
            ]
            yield emit
        except BaseException:
            stack.close()
            for path in created:
                os.remove(path)
            raise


def _table_text(header: Sequence[str], rows: Iterable[Sequence], fmt: str) -> str:
    if fmt == "json":
        payload = [dict(zip(header, row)) for row in rows]
        return json.dumps(payload, allow_nan=False) + "\n"
    lines = [",".join(header)]
    lines.extend(",".join(_csv_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _report_text(records: Sequence[CheckRecord]) -> str:
    """The validation report: one line per record, then the tally."""
    lines = [
        f"{'PASS' if r.passed else 'FAIL'}  {r.name} [{r.params}]  "
        f"analytic={r.analytic:.12g} oracle={r.oracle:.12g} |dev|={r.abs_dev:.3g} "
        f"rel={r.rel_dev:.3g} tol={r.tolerance:.3g}"
        for r in records
    ]
    failed = sum(not r.passed for r in records)
    lines.append(f"{len(records)} checks, {failed} failed")
    return "\n".join(lines) + "\n"


def _parse_range(text: str) -> range:
    """'0..25' (inclusive) or a single nonnegative integer."""
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected N or LO..HI, got {text!r}")
    if lo < 0 or hi < lo:
        raise argparse.ArgumentTypeError(f"range bounds must satisfy 0 <= lo <= hi: {text!r}")
    return range(lo, hi + 1)


def _positive_float(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not v > 0.0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text!r}")
    return v


def _int_at_least(lo: int):
    """An argparse type: an integer no smaller than ``lo``."""

    def parse(text: str) -> int:
        try:
            v = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if v < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {text!r}")
        return v

    return parse


_positive_int = _int_at_least(1)
_nonneg_int = _int_at_least(0)


def _block_size(text: str) -> int | str:
    if text == "auto":
        return "auto"
    return _positive_int(text)


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--a", type=_positive_float, required=True,
                   help="gamma shape of the error intensity")
    p.add_argument("--b", type=_positive_float, required=True,
                   help="gamma rate of the error intensity")


# The table commands: name -> (help, range help, header, row function).
# The header's first column names the range flag.  Row functions look their
# evaluators up in this module at call time, so a replaced module attribute
# (as in a test) takes effect.
_TABLES = {
    "pmf": ("error-count probabilities per time unit", None,
            ("k", "probability"), lambda k, g: (k, pmf(k, g))),
    "cdf": ("probability of at most m errors", None,
            ("m", "probability"), lambda m, g: (m, cdf(m, g))),
    "tail": ("probability of more than m errors", None,
             ("m", "probability"), lambda m, g: (m, tail(m, g))),
    "parity": ("odd-error-count probabilities",
               "half-lengths: rows cover strings of length 2m+1",
               ("m", "p_odd_finite", "p_odd_limit"),
               lambda m, g: (m, p_odd_finite(m, g), p_odd(g))),
}


def build_parser() -> argparse.ArgumentParser:
    """The command table: each subparser binds its handler as ``run``."""
    parser = argparse.ArgumentParser(
        prog="coxcascade",
        description="Error-scattering model and reconciliation simulator for QKD raw keys",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (help_text, range_help, header, _) in _TABLES.items():
        p = sub.add_parser(name, help=help_text)
        _add_model_args(p)
        p.add_argument(f"--{header[0]}", type=_parse_range, required=True,
                       metavar="N|LO..HI", help=range_help)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", default="-", metavar="PATH",
                       help="output file, '-' for stdout (default)")
        p.set_defaults(run=_cmd_table)

    p = sub.add_parser("blocksize", help="recommended initial block size")
    _add_model_args(p)
    p.add_argument("--f", type=_positive_int, required=True,
                   help="bits per time unit")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--output", default="-", metavar="PATH")
    p.set_defaults(run=_cmd_blocksize)

    p = sub.add_parser("sample", help="sample an error pattern and intensity trace")
    _add_model_args(p)
    p.add_argument("--f", type=_positive_int, required=True)
    p.add_argument("--n", type=_positive_int, required=True, help="key length in bits")
    p.add_argument("--seed", type=_nonneg_int, default=None)
    p.add_argument("--trace-out", default="-", metavar="PATH",
                   help="per-unit intensity trace CSV ('-' for stdout)")
    p.add_argument("--pattern-out", default=None, metavar="PATH",
                   help="error-position list, one index per line ('-' for stdout)")
    p.set_defaults(run=_cmd_sample)

    p = sub.add_parser("reconcile", help="simulate a reconciliation run")
    _add_model_args(p)
    p.add_argument("--f", type=_positive_int, required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--seed", type=_nonneg_int, default=None)
    p.add_argument("--variant", choices=("bbbss", "cascade"), default="bbbss")
    p.add_argument("--block-size", type=_block_size, default="auto",
                   help="initial block size, or 'auto' (default)")
    p.add_argument("--passes", type=_positive_int, default=4)
    p.add_argument("--growth", type=_int_at_least(2), default=2,
                   help="block-size multiplier per pass (>= 2)")
    p.add_argument("--successes", type=_positive_int, default=20,
                   help="consecutive agreeing subset rounds required to stop")
    p.add_argument("--output", default="-", metavar="PATH", help="outcome JSON")
    p.add_argument("--transcript-out", default=None, metavar="PATH",
                   help="public-channel event ledger, one event per line")
    p.set_defaults(run=_cmd_reconcile)

    p = sub.add_parser("validate", help="run oracle and Monte Carlo suites")
    p.add_argument("--suite", action="append", default=None,
                   choices=sorted(SUITES) + ["all"],
                   help="suite to run (repeatable; default all)")
    p.add_argument("--output", default=None, metavar="PATH",
                   help="also write machine-readable records CSV "
                        "('-' for stdout, after the report)")
    p.set_defaults(run=_cmd_validate)

    return parser


def _cmd_table(args) -> int:
    _, _, header, row = _TABLES[args.command]
    with _outputs(args.output) as emit:
        g = GammaIntensity(args.a, args.b)
        rows = [row(x, g) for x in getattr(args, header[0])]
        emit(_table_text(header, rows, args.format))
    return 0


def _cmd_blocksize(args) -> int:
    with _outputs(args.output) as emit:
        g = GammaIntensity(args.a, args.b)
        layout = TimeUnitLayout(args.f)
        n = recommend_block_size(layout, g)
        expected = n * g.a / g.b / args.f
        rationale = (
            f"expected errors per {n}-bit block = n*(a/b)/f = "
            f"{format(expected, '.12g')} (target 1)"
        )
        if args.format == "json":
            emit(json.dumps({"block_size": n, "rationale": rationale}, allow_nan=False) + "\n")
        else:
            emit(f"{n}\n{rationale}\n")
    return 0


def _cmd_sample(args) -> int:
    with _outputs(args.trace_out, args.pattern_out) as emit:
        seed = args.seed if args.seed is not None else _default_seed()
        g = GammaIntensity(args.a, args.b)
        layout = TimeUnitLayout(args.f)
        sample = sample_process(args.n, layout, g, seed)
        header = ("unit_index", "lambda", "errors_in_unit")
        rows = [
            (u, float(sample.unit_intensities[u]), int(sample.unit_counts[u]))
            for u in range(len(sample.unit_counts))
        ]
        texts = [_table_text(header, rows, "csv")]
        if args.pattern_out is not None:
            texts.append("".join(f"{p}\n" for p in sample.pattern.positions))
        emit(*texts)
    return 0


def _cmd_reconcile(args) -> int:
    with _outputs(args.output, args.transcript_out) as emit:
        seed = args.seed if args.seed is not None else _default_seed()
        g = GammaIntensity(args.a, args.b)
        layout = TimeUnitLayout(args.f)
        # deterministic sub-seeds: seed for the pattern, +1 key bits, +2 protocol
        pattern = sample_error_pattern(args.n, layout, g, seed)
        pair = make_key_pair(args.n, pattern, seed + 1)
        config = CascadeConfig(
            initial_block_size=args.block_size,
            num_passes=args.passes,
            block_growth=args.growth,
            termination_successes=args.successes,
            variant=args.variant,
            seed=seed + 2,
        ).resolve(layout, g)
        transcript = Transcript()
        outcome = reconcile(pair, config, transcript)
        payload = {
            "n": args.n,
            "planted_errors": len(pattern),
            "block_size": config.initial_block_size,
            "variant": config.variant,
            "seed": seed,
            **asdict(outcome),
        }
        texts = [json.dumps(payload, allow_nan=False) + "\n"]
        if args.transcript_out is not None:
            texts.append("".join(line + "\n" for line in transcript.to_lines()))
        emit(*texts)
    return 0


def _cmd_validate(args) -> int:
    # --output - appends the records to the report: one stdout output
    records_path = None if args.output == "-" else args.output
    with _outputs("-", records_path) as emit:
        records = run_suites(args.suite if args.suite else ["all"])
        texts = [_report_text(records)]
        if args.output is not None:
            texts.append(_table_text(CheckRecord.FIELDS, map(astuple, records), "csv"))
        if records_path is None:  # no records, or records after the report on stdout
            texts = ["".join(texts)]
        emit(*texts)
    return 0 if all(r.passed for r in records) else 1


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (SeriesNonConvergence, ValueError, OverflowError, MemoryError, OSError) as exc:
        # a MemoryError may carry no message
        sys.stderr.write(f"coxcascade {args.command}: error: {str(exc) or type(exc).__name__}\n")
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
