"""Command-line driver: every operation, emitting text, CSV, JSON, or SVG.

Each subcommand computes its result once, and one writer renders the
form ``--format`` names, to stdout or to ``--out``.  The table commands
(``alpha-scan``, ``sigma3``, ``sigma-n`` and ``verify``) have no text form
of their own, so ``--format text`` prints their CSV table.  Summaries on
stderr follow the text and CSV forms only; the JSON form carries them in
its payload.  ``render`` writes SVG.

``main`` builds only the parser path its argv names, from one command
table; any other argv (``-h``, no command, an unknown name) gets the full
parser, so help and error text are the same either way.

Exit codes: 0 success (help included), 1 invalid input, 2 internal
failure, 3 when a ``verify`` subcommand records a violated row.  Every
output is deterministic for a fixed command line (and seed), whatever the
worker count or environment, so each can be pinned byte-for-byte.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import traceback
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from . import cantor as cantor_mod
from . import gasket as gasket_mod
from . import render as render_mod
from . import search as search_mod
from . import trapezoid as trap_mod
from .exact import measure
from .permutations import (
    MAX_DIGIT_SWAP_ORDER,
    Permutation,
    composite_permutation,
    composite_plan,
    digit_swap_permutation,
    identity,
    reversal,
)

VERIFY_FAILED = 3


class CliError(Exception):
    """Invalid input; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse would sys.exit(2)
        raise CliError(message)


@dataclass
class _Output:
    """One command's result in every form it has; ``_write`` renders it."""

    header: list[str] | None = None
    rows: list[list[str]] | None = None
    payload: object = None
    text: str | None = None  # None: the text form is the CSV table
    notes: tuple[str, ...] = ()  # stderr lines, after the text and CSV forms
    code: int = 0


def _decimal(value) -> str:
    return f"{float(value):.15g}"


def _ratio(value: Fraction) -> list[str]:
    """The numerator, denominator and decimal cells of an exact value."""
    return [str(value.numerator), str(value.denominator), _decimal(value)]


def _fit_payload(fit: gasket_mod.DecayFit | None) -> dict | None:
    return None if fit is None else {"c": fit.c, "p": fit.p, "residual": fit.residual}


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise CliError(f"cannot parse rational {text!r}") from None


def _parse_double(text: str) -> float:
    try:
        return float(_parse_rational(text))
    except OverflowError:
        raise CliError(f"{text!r} is too large for a double") from None


def _parse_perm(text: str, n: int) -> Permutation:
    if text == "identity":
        return identity(n)
    if text == "reversal":
        return reversal(n)
    if text == "composite":
        return composite_permutation(n)
    if text.startswith("digit-swap:"):
        order = text.split(":", 1)[1]
        # refused before 3^M is formed, which at M = 10^7 alone takes minutes
        if not (order.isdecimal() and int(order) <= MAX_DIGIT_SWAP_ORDER):
            raise CliError(f"digit-swap:M needs an integer M from 0 to {MAX_DIGIT_SWAP_ORDER}, got {order!r}")
        m = int(order)
        if 3**m != n:
            raise CliError(f"digit-swap:{m} needs n = 3^{m} = {3 ** m}, got n = {n}")
        return digit_swap_permutation(m)
    perm = Permutation.parse(text)
    if len(perm) != n:
        raise CliError(f"permutation length {len(perm)} != n {n}")
    return perm


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise CliError(f"cannot parse integer list {text!r}") from None


def _write(args, result: _Output) -> int:
    """Render ``result`` in the requested format; return its exit code."""
    fmt = getattr(args, "format", "text")  # render has no --format: SVG text
    if fmt == "json":
        text = json.dumps(result.payload, indent=2) + "\n"
    elif fmt == "csv" or result.text is None:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(result.header)
        writer.writerows(result.rows)
        text = buffer.getvalue()
    else:
        text = result.text
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    if fmt != "json":
        for note in result.notes:
            print(note, file=sys.stderr)
    return result.code


# ---------------------------------------------------------------- subcommands


def _cmd_area(args) -> _Output:
    trap_mod.check_area_n(args.n)  # before a permutation of size n is built
    spec = trap_mod.TrapezoidSpec(args.n, _parse_perm(args.perm, args.n))
    value = trap_mod.area(spec)
    return _Output(
        header=["n", "perm", "area_num", "area_den", "area_decimal"],
        rows=[[str(args.n), str(spec.sigma), *_ratio(value)]],
        payload={"n": args.n, "perm": str(spec.sigma), "area": str(value), "area_decimal": _decimal(value)},
        text=f"{value} ≈ {float(value):.6f}\n",
    )


def _cmd_slice(args) -> _Output:
    spec = trap_mod.TrapezoidSpec(args.n, _parse_perm(args.perm, args.n))
    y = _parse_rational(args.y)
    union = trap_mod.slice_at(spec, y)
    total = measure(union)
    parts = " ∪ ".join(f"[{p.lo}, {p.hi}]" for p in union.parts) or "(empty)"
    return _Output(
        header=["part", "lo_num", "lo_den", "hi_num", "hi_den"],
        rows=[
            [str(i), str(p.lo.numerator), str(p.lo.denominator), str(p.hi.numerator), str(p.hi.denominator)]
            for i, p in enumerate(union.parts)
        ],
        payload={
            "n": args.n,
            "perm": str(spec.sigma),
            "y": str(y),
            "parts": [[str(p.lo), str(p.hi)] for p in union.parts],
            "measure": str(total),
            "measure_decimal": _decimal(total),
        },
        text=f"{parts}\nmeasure {total} ≈ {float(total):.6f}\n",
    )


_ALPHA_COLUMNS = ["n", "alpha_num", "alpha_den", "alpha_decimal", "argmin", "mode", "perms_evaluated"]


def _record_row(record: search_mod.AlphaRecord) -> list[str]:
    return [str(record.n), *_ratio(record.alpha), str(record.argmin), record.mode, str(record.perms_evaluated)]


def _record_payload(record: search_mod.AlphaRecord) -> dict:
    return {
        "n": record.n,
        "alpha": str(record.alpha),
        "alpha_decimal": _decimal(record.alpha),
        "argmin": str(record.argmin),
        "mode": record.mode,
        "perms_evaluated": record.perms_evaluated,
    }


def _cmd_alpha(args) -> _Output:
    if args.heuristic:
        record = search_mod.alpha_heuristic(args.n, budget=args.budget, seed=args.seed)
    else:
        record = search_mod.alpha_exhaustive(args.n, workers=args.workers, force=args.force)
    return _Output(
        header=_ALPHA_COLUMNS,
        rows=[_record_row(record)],
        payload=_record_payload(record),
        text=f"alpha({record.n}) = {record.alpha} ≈ {float(record.alpha):.6f} "
        f"argmin {record.argmin} ({record.mode}, {record.perms_evaluated} evaluated)\n",
    )


def _cmd_alpha_scan(args) -> _Output:
    report = search_mod.alpha_scan(
        args.max_n,
        exhaustive_limit=args.exhaustive_limit,
        budget=args.budget,
        seed=args.seed,
        workers=args.workers,
    )
    fit = report.upper_bound_fit
    notes = [f"monotonicity violated: alpha({b}) > alpha({a})" for a, b in report.violations]
    if not notes:
        notes.append("monotonicity: no violations among exact values")
    notes += [f"c-estimate n={n}: alpha*log(n) = {value:.6f}" for n, value in report.c_estimates]
    if fit is not None:
        notes.append(f"upper-bound fit vs log(n): p={fit.p:.6f} c={fit.c:.6f} residual={fit.residual:.3g}")
    return _Output(
        header=_ALPHA_COLUMNS,
        rows=[_record_row(r) for r in report.records],
        payload={
            "records": [_record_payload(r) for r in report.records],
            "monotonicity_violations": [list(v) for v in report.violations],
            "c_estimates": [{"n": n, "alpha_times_log_n": value} for n, value in report.c_estimates],
            "upper_bound_fit": _fit_payload(fit),
        },
        notes=tuple(notes),
    )


def _cmd_sigma3(args) -> _Output:
    if args.max_m < 1:
        raise CliError(f"--max-m must be at least 1, got {args.max_m}")
    # refused before any area; capping the exponent keeps the check cheap
    if 3 ** min(args.max_m, 63) > trap_mod.SLOPE_MAX_N:
        raise CliError(
            f"--max-m {args.max_m} reaches n = 3^{args.max_m}, "
            f"above {trap_mod.SLOPE_MAX_N}, the largest n exact area accepts"
        )
    rows = []
    entries = []
    pairs = []
    for m in range(1, args.max_m + 1):
        value = trap_mod.area(trap_mod.TrapezoidSpec(3**m, digit_swap_permutation(m)))
        pairs.append((m, float(value)))
        rows.append([str(m), str(3**m), *_ratio(value)])
        entries.append(
            {"m": m, "n": 3**m, "area": f"{value.numerator}/{value.denominator}", "area_decimal": _decimal(value)}
        )
    fit = gasket_mod.decay_fit(pairs) if len(pairs) >= 3 else None
    return _Output(
        header=["m", "n", "area_num", "area_den", "area_decimal"],
        rows=rows,
        payload={"rows": entries, "fit": _fit_payload(fit)},
        notes=() if fit is None else (f"decay fit: p={fit.p:.6f} c={fit.c:.6f} residual={fit.residual:.3g}",),
    )


def _cmd_sigma_n(args) -> _Output:
    plan = composite_plan(args.n)
    lhs, rhs = trap_mod.weighted_sum_identity(args.n)
    digits = "".join(str(d) for d in plan.digits)
    return _Output(
        header=["n", "digits_base3", "lhs_num", "lhs_den", "rhs_num", "rhs_den", "equal"],
        rows=[
            [
                str(args.n),
                digits,
                str(lhs.numerator),
                str(lhs.denominator),
                str(rhs.numerator),
                str(rhs.denominator),
                str(lhs == rhs).lower(),
            ]
        ],
        payload={
            "n": args.n,
            "digits_base3": digits,
            "blocks": [{"size": size, "count": count} for size, count in plan.blocks],
            "perm": str(composite_permutation(args.n)),
            "lhs": str(lhs),
            "rhs": str(rhs),
            "lhs_decimal": _decimal(lhs),
            "equal": lhs == rhs,
        },
    )


def _cmd_cantor(args) -> _Output:
    t = _parse_rational(args.t)
    closed = cantor_mod.cantor_measure_closed(t)
    spec = cantor_mod.DigitSetSpec(args.depth, (Fraction(0), Fraction(1), t))
    partial = measure(cantor_mod.partial_cantor(spec))
    excess = partial - closed
    return _Output(
        header=[
            "t_num",
            "t_den",
            "depth",
            "closed_num",
            "closed_den",
            "closed_decimal",
            "partial_num",
            "partial_den",
            "partial_decimal",
        ],
        rows=[[str(t.numerator), str(t.denominator), str(args.depth), *_ratio(closed), *_ratio(partial)]],
        payload={
            "t": str(t),
            "depth": args.depth,
            "closed": str(closed),
            "closed_decimal": _decimal(closed),
            "partial": str(partial),
            "partial_decimal": _decimal(partial),
            "excess_decimal": _decimal(excess),
        },
        text=f"closed-form measure: {closed} ≈ {float(closed):.6f}\n"
        f"depth-{args.depth} partial measure: {partial} ≈ {float(partial):.6f}\n"
        f"excess: {excess} ≈ {float(excess):.6g}\n",
    )


def _cmd_slice_measure(args) -> _Output:
    t = _parse_rational(args.t)
    value = cantor_mod.slice_measure_closed(t)
    return _Output(
        header=["t_num", "t_den", "measure_num", "measure_den", "measure_decimal"],
        rows=[[str(t.numerator), str(t.denominator), *_ratio(value)]],
        payload={"t": str(t), "measure": str(value), "measure_decimal": _decimal(value)},
        text=f"{value} ≈ {float(value):.6f}\n",
    )


def _cmd_favard(args) -> _Output:
    value = gasket_mod.favard(gasket_mod.GasketSpec(args.depth), args.quad_points)
    return _Output(
        header=["depth", "quad_points", "favard"],
        rows=[[str(args.depth), str(args.quad_points), _decimal(value)]],
        payload={"depth": args.depth, "quad_points": args.quad_points, "favard": value},
        text=f"favard(depth={args.depth}, points={args.quad_points}) = {value:.12f}\n",
    )


def _verify_output(header: list[str], rows: list[list[str]], failed: bool) -> _Output:
    # the JSON form keeps every cell as the string the CSV form writes
    return _Output(
        header=header,
        rows=rows,
        payload=[dict(zip(header, row)) for row in rows],
        code=VERIFY_FAILED if failed else 0,
    )


def _cmd_verify_lemma1(args) -> _Output:
    depths = _parse_int_list(args.depths)
    points = args.t_points
    if points < 2:
        raise CliError("need at least 2 grid points")
    grid = [Fraction(k, points - 1) for k in range(points)]
    rows = [row for depth in depths for row in gasket_mod.lemma1_check(depth, grid)]
    return _verify_output(
        ["depth", "t_num", "t_den", "t_decimal", "lhs_num", "lhs_den", "lhs_decimal", "rhs", "ratio", "ok"],
        [
            [
                str(row.depth),
                *_ratio(row.t),
                *_ratio(row.lhs),
                _decimal(row.rhs),
                _decimal(row.ratio),
                str(row.ok).lower(),
            ]
            for row in rows
        ],
        not all(row.ok for row in rows),
    )


def _cmd_verify_lemma2(args) -> _Output:
    p = _parse_double(args.p)
    n_values = [_parse_double(part) for part in args.n_values.split(",")]
    rows = gasket_mod.lemma2_check(p, n_values)
    return _verify_output(
        ["p", "n", "integral", "bound", "ratio", "ok"],
        [[*map(_decimal, (p, row.n, row.integral, row.bound, row.ratio)), str(row.ok).lower()] for row in rows],
        not all(row.ok for row in rows),
    )


def _cmd_verify_weighted_sum(args) -> _Output:
    lhs, rhs = trap_mod.weighted_sum_identity(args.n)
    ok = lhs == rhs
    header = ["n", "lhs_num", "lhs_den", "lhs_decimal", "rhs_num", "rhs_den", "rhs_decimal", "ok"]
    row = [str(args.n), *_ratio(lhs), *_ratio(rhs), str(ok).lower()]
    # one check, so the JSON form is one object rather than a list of rows
    return _Output(header=header, rows=[row], payload=dict(zip(header, row)), code=0 if ok else VERIFY_FAILED)


def _cmd_render(args) -> _Output:
    if args.target == "trapezoid":
        spec = trap_mod.TrapezoidSpec(args.n, _parse_perm(args.perm, args.n))
        return _Output(text=render_mod.trapezoid_svg(spec))
    return _Output(text=render_mod.gasket_svg(gasket_mod.GasketSpec(args.depth)))


# --------------------------------------------------------------------- parser


def _arg(*flags: str, **kwargs) -> tuple[tuple[str, ...], dict]:
    """The flags and keywords of one ``add_argument`` call."""
    return flags, kwargs


def _common(default_format: str) -> tuple:
    return (
        _arg("--format", choices=("text", "csv", "json"), default=default_format),
        _arg("--out", "-o", default=None, help="output path (default stdout)"),
    )


# The command table: one entry per command and per verify/render check,
# name -> (help or None, arguments, handler).  verify and render give the
# dest and the table of their checks in place of a handler.
_COMMANDS = {
    "area": ("exact trapezoid area", [
        _arg("--n", type=int, required=True),
        _arg("--perm", required=True, help='"1,3,2", identity, reversal, composite, digit-swap:M'),
        *_common("text"),
    ], _cmd_area),
    "slice": ("exact horizontal slice", [
        _arg("--n", type=int, required=True),
        _arg("--perm", required=True),
        _arg("--y", required=True, help="height in [0,1], e.g. 1/2"),
        *_common("text"),
    ], _cmd_slice),
    "alpha": ("minimum area over permutations", [
        _arg("--n", type=int, required=True),
        _arg("--heuristic", action="store_true"),
        _arg("--budget", type=int, default=2000),
        _arg("--seed", type=int, default=0),
        _arg("--workers", type=int, default=None),
        _arg("--force", action="store_true", help="lift the exhaustive n guard"),
        *_common("json"),
    ], _cmd_alpha),
    "alpha-scan": ("alpha table for n = 1..max-n", [
        _arg("--max-n", type=int, required=True),
        _arg("--exhaustive-limit", type=int, default=8),
        _arg("--budget", type=int, default=2000),
        _arg("--seed", type=int, default=0),
        _arg("--workers", type=int, default=None),
        *_common("csv"),
    ], _cmd_alpha_scan),
    "sigma3": ("areas of the 3^m digit-swap family", [
        _arg("--max-m", type=int, default=4),
        *_common("csv"),
    ], _cmd_sigma3),
    "sigma-n": ("composite permutation and its block identity", [
        _arg("--n", type=int, required=True),
        *_common("json"),
    ], _cmd_sigma_n),
    "cantor": ("closed-form vs partial Cantor measures", [
        _arg("--t", required=True),
        _arg("--depth", type=int, default=8),
        *_common("text"),
    ], _cmd_cantor),
    "slice-measure": ("closed-form slice measure at height t", [
        _arg("--t", required=True),
        *_common("text"),
    ], _cmd_slice_measure),
    "favard": ("direction-averaged gasket projection measure", [
        _arg("--depth", type=int, required=True),
        _arg("--quad-points", type=int, default=4096),
        *_common("text"),
    ], _cmd_favard),
    "verify": ("inequality and identity checks", [], ("check", {
        "lemma1": ("slice measure vs projection bound", [
            _arg("--depths", default="1,2,3,4", help="comma-separated depths"),
            _arg("--t-points", type=int, default=11, help="uniform grid size on [0,1]"),
            *_common("csv"),
        ], _cmd_verify_lemma1),
        "lemma2": ("singular integral growth ratios", [
            _arg("--p", default="1/2"),
            _arg("--n-values", default="5,10,20,40"),
            *_common("csv"),
        ], _cmd_verify_lemma2),
        "weighted-sum": ("composite block identity, both sides", [
            _arg("--n", type=int, required=True),
            *_common("csv"),
        ], _cmd_verify_weighted_sum),
    })),
    "render": ("SVG figures", [], ("target", {
        "trapezoid": (None, [
            _arg("--n", type=int, required=True),
            _arg("--perm", required=True),
            _arg("--out", "-o", default=None),
        ], _cmd_render),
        "gasket": (None, [_arg("--depth", type=int, required=True), _arg("--out", "-o", default=None)], _cmd_render),
    })),
}


def _add_commands(parser: argparse.ArgumentParser, dest: str, table: dict, argv: Sequence[str]) -> None:
    sub = parser.add_subparsers(dest=dest, required=True, parser_class=_Parser)
    for name in argv[:1] if argv and argv[0] in table else table:
        help_text, arguments, run = table[name]
        p = sub.add_parser(name, **({} if help_text is None else {"help": help_text}))
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
        if isinstance(run, tuple):
            _add_commands(p, *run, argv[1:])
        else:
            p.set_defaults(func=run)


def build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    """The parser of every command, or of only the path ``argv`` names.

    ``argv[0]``, and under ``verify`` and ``render`` ``argv[1]``, picks one
    table entry when it names one: a run reads no other parser, and building
    them all takes milliseconds.  Any other ``argv`` (none, ``-h``, an
    unknown or abbreviated name, an option first) builds every entry.
    """
    parser = _Parser(prog="trapmeasure", description=__doc__)
    _add_commands(parser, "command", _COMMANDS, argv)
    return parser


def main(argv: list[str] | None = None) -> int:
    # exact values print in full: the digit-swap area at m = 9 has integers
    # of over 8,000 digits, past Python's default limit of 4,300; the
    # caller's limit is restored on the way out
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv).parse_args(argv)
        return _write(args, args.func(args))
    except SystemExit as exc:  # argparse exits 0 once it has printed help
        return exc.code
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    app()
