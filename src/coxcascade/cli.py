"""Command-line front end.

Subcommands expose the probability evaluators (``pmf``, ``cdf``, ``tail``,
``parity``), the block-size rule (``blocksize``), the error-pattern
sampler (``sample``), the protocol simulator (``reconcile``) and the
validation suites (``validate``).  Identical invocations, seed included,
produce byte-identical output.

Numeric rendering is fixed: 17 significant digits in JSON output, 12 in
CSV.  Exit codes: 0 success, 1 validation failure, 2 usage or parameter
error.  A bad flag is reported by argparse: a usage block, then one
``coxcascade <command>: error: …`` line.  Every other refusal is that one
stderr line alone: an evaluator that refuses its input, whose series does
not converge or overflows or whose value overflows, a bad
``COXCASCADE_SEED``, an output path that cannot be written and two
outputs that name one destination (one file, or ``-`` for stdout twice).  The
default seed is 24301 and can be overridden with the ``COXCASCADE_SEED``
environment variable.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
from contextlib import ExitStack
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

JSON_DIGITS = 17
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


def render_json(obj) -> str:
    """Serialize to JSON with floats at a fixed significant-digit count."""
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format(obj, f".{JSON_DIGITS}g")
    if isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(obj, dict):
        inner = ", ".join(f'{render_json(str(k))}: {render_json(v)}' for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(render_json(v) for v in obj) + "]"
    if obj is None:
        return "null"
    raise TypeError(f"cannot render {type(obj).__name__} as JSON")


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


def _emit(*outputs: tuple[str, str]) -> None:
    """Write each rendered ``(text, path)`` in order; path ``-`` is stdout.

    No two outputs may name one destination: not one file, and not stdout
    twice.  Every file is opened, without truncating it, before anything is
    written; if a path cannot be opened, the files this call created are
    removed again, so the command fails with nothing on stdout and every
    file as it was.  A regular file is then truncated just before it is
    written, as ``open(path, "w")`` would.
    """
    paths = [path for _, path in outputs]
    for i, path in enumerate(paths):
        for other in paths[:i]:
            if _same_destination(path, other):
                raise ValueError(f"two outputs name the same file: {other!r} and {path!r}")
    created: list[str] = []
    with ExitStack() as stack:
        try:
            handles = [
                sys.stdout if path == "-" else stack.enter_context(_open_output(path, created))
                for _, path in outputs
            ]
        except OSError:
            stack.close()
            for path in created:
                os.remove(path)
            raise
        for (text, _), fh in zip(outputs, handles):
            if fh is not sys.stdout and stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate(0)
            fh.write(text)


def _table_text(header: Sequence[str], rows: Iterable[Sequence], fmt: str) -> str:
    if fmt == "json":
        payload = [dict(zip(header, row)) for row in rows]
        return render_json(payload) + "\n"
    lines = [",".join(header)]
    lines.extend(",".join(_csv_cell(v) for v in row) for row in rows)
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
    g = GammaIntensity(args.a, args.b)
    rows = [row(x, g) for x in getattr(args, header[0])]
    _emit((_table_text(header, rows, args.format), args.output))
    return 0


def _cmd_blocksize(args) -> int:
    g = GammaIntensity(args.a, args.b)
    layout = TimeUnitLayout(args.f)
    n = recommend_block_size(layout, g)
    expected = n * g.a / g.b / args.f
    rationale = (
        f"expected errors per {n}-bit block = n*(a/b)/f = "
        f"{format(expected, '.12g')} (target 1)"
    )
    if args.format == "json":
        _emit((render_json({"block_size": n, "rationale": rationale}) + "\n", args.output))
    else:
        _emit((f"{n}\n{rationale}\n", args.output))
    return 0


def _cmd_sample(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    g = GammaIntensity(args.a, args.b)
    layout = TimeUnitLayout(args.f)
    sample = sample_process(args.n, layout, g, seed)
    header = ("unit_index", "lambda", "errors_in_unit")
    rows = [
        (u, float(sample.unit_intensities[u]), int(sample.unit_counts[u]))
        for u in range(len(sample.unit_counts))
    ]
    outputs = [(_table_text(header, rows, "csv"), args.trace_out)]
    if args.pattern_out is not None:
        pattern_text = "".join(f"{p}\n" for p in sample.pattern.positions)
        outputs.append((pattern_text, args.pattern_out))
    _emit(*outputs)
    return 0


def _cmd_reconcile(args) -> int:
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
        "final_length": outcome.final_length,
        "residual_error_count": outcome.residual_error_count,
        "leaked_parities": outcome.leaked_parities,
        "deleted_bits": outcome.deleted_bits,
        "corrections_made": transcript.corrections_made,
        "passes_executed": outcome.passes_executed,
        "subset_rounds": outcome.subset_rounds,
        "success": outcome.success,
    }
    outputs = [(render_json(payload) + "\n", args.output)]
    if args.transcript_out is not None:
        text = "".join(line + "\n" for line in transcript.to_lines())
        outputs.append((text, args.transcript_out))
    _emit(*outputs)
    return 0


def _cmd_validate(args) -> int:
    names = args.suite if args.suite else ["all"]
    report = run_suites(names)
    text = report.to_text() + "\n"
    outputs = []
    if args.output is not None:
        rows = [r.to_row() for r in report.sorted_records()]
        records = _table_text(CheckRecord.FIELDS, rows, "csv")
        if args.output == "-":
            text += records
        else:
            outputs.append((records, args.output))
    _emit((text, "-"), *outputs)
    return 0 if report.all_passed else 1


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (SeriesNonConvergence, ValueError, OverflowError, OSError) as exc:
        sys.stderr.write(f"coxcascade {args.command}: error: {exc}\n")
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
