"""Command-line front end.

Subcommands: solve, matrix, verify, eval, transform. Input is a
recurrence file in the DSL (or '-' for stdin). The default truncation
order is 6. All output is deterministic for fixed input, flags, and seed.

Output contract: main reads and parses the input once and runs the
command, which returns its report; main writes the report (JSON with
--format json, text lines otherwise) to stdout, or to the --output path.
An error goes to stderr as one line. Exit codes: 0 success; 1 a parse
error, an input that cannot be read (the recurrence, --matrix-a or
--solution file) or an --output path that cannot be written; 2 a
solver-stage error; 3 verification failure. A transform whose shift
search fails exits 2 and still reports the candidates it tried.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
from typing import Optional, Sequence

from .embedding import MonomialBasis, build_transition
from .errors import CarlemanError, ParseError, ShiftNotFoundError
from .parser import parse_system, pretty_print
from .scalars import (Mode, format_scalar, format_vector, parse_scalar_text,
                      scalar_from_json, scalar_to_json)
from .solver import (ClosedFormSolution, SolveOptions, eval_direct,
                     history_to_reduced_state, reduced_variable_names,
                     resolve_shift, resolve_transform, solve, verify)
from .systems import reduce_depth

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_SOLVER = 2
EXIT_VERIFY = 3

_DEFAULT_ORDER = 6


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("input", help="recurrence file in the DSL, or - for stdin")
    sub.add_argument("--order", type=int, default=_DEFAULT_ORDER,
                     help=f"truncation degree (default {_DEFAULT_ORDER})")
    sub.add_argument("--mode", choices=("exact", "float"), default="exact")
    sub.add_argument("--seed", type=int, default=0,
                     help="seed for float-mode root finding")
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.add_argument("--output", default=None,
                     help="write the report to this path instead of stdout")
    sub.add_argument("--shift", default=None,
                     help="auto, none, or comma-separated offset values")
    sub.add_argument("--matrix-a", default=None, dest="matrix_a",
                     help="triangularizing matrix: inline JSON or a path to a "
                          "JSON file")


def _build_argparser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carleman",
        description="closed-form solutions of polynomial recurrences")
    subs = parser.add_subparsers(dest="command", required=True)

    p_solve = subs.add_parser("solve", help="emit the closed-form solution")
    _add_common_flags(p_solve)

    p_matrix = subs.add_parser(
        "matrix", help="emit the truncated transition matrix")
    _add_common_flags(p_matrix)

    p_verify = subs.add_parser(
        "verify", help="check closed-form coefficients against iteration")
    _add_common_flags(p_verify)
    p_verify.add_argument("--solution", default=None,
                          help="verify this stored solution JSON instead of "
                               "re-solving")
    p_verify.add_argument("--max-power", type=int, default=5, dest="max_power",
                          help="largest step index compared (default 5)")
    p_verify.add_argument("--tolerance", type=float, default=1e-8,
                          help="float-mode relative tolerance (finite, >= 0)")

    p_eval = subs.add_parser(
        "eval", help="evaluate the trajectory directly and via the closed form")
    _add_common_flags(p_eval)
    p_eval.add_argument("--index", type=int, required=True,
                        help="step to evaluate")
    p_eval.add_argument("--z0", required=True,
                        help="comma-separated history: all variables at step "
                             "0, then step 1, ... (depth*k values)")

    p_transform = subs.add_parser(
        "transform", help="report fixed points, admissibility, and the "
                          "transformed system")
    _add_common_flags(p_transform)
    return parser


def _joined_values(argv: Sequence[str]) -> list:
    """argv with each --shift or --z0 value that starts with '-' and a
    digit or '.' joined to its flag: argparse reads -1/2 as an option."""
    out: list = []
    for token in argv:
        if out and out[-1] in ("--shift", "--z0") and re.match(r"-[\d.]", token):
            token = out.pop() + "=" + token
        out.append(token)
    return out


def _read_text(path: str, stdin: bool = False) -> str:
    """The UTF-8 text of a file, or of stdin for '-' when stdin is set.
    Text that is not UTF-8 raises OSError, as a missing file does."""
    try:
        if stdin and path == "-":
            buffer = getattr(sys.stdin, "buffer", None)  # a StringIO has none
            return buffer.read().decode("utf-8") if buffer else sys.stdin.read()
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise OSError(f"{path!r} is not UTF-8 text: {exc}") from None


def _parse_shift_flag(raw: Optional[str], mode: Mode):
    if raw is None or raw == "auto":
        return "auto"
    if raw == "none":
        return "none"
    return [parse_scalar_text(mode, piece) for piece in raw.split(",")]


def _read_json(text: str, what: str):
    """json.loads; an integer past Python's digit limit is reported by its
    length."""
    def integer(digits: str) -> int:
        try:
            return int(digits)
        except ValueError:
            count = len(digits.lstrip("-"))
            raise CarlemanError(f"{what}: number too long ({count} digits)") from None
    try:
        return json.loads(text, parse_int=integer)
    except ValueError as exc:
        raise CarlemanError(f"{what} is not valid JSON: {exc}") from exc


def _parse_matrix_flag(raw: Optional[str], mode: Mode):
    if raw is None:
        return None
    text = raw.strip()
    if not text.startswith("["):
        text = _read_text(text)
    data = _read_json(text, "--matrix-a")
    if (not isinstance(data, list) or not data
            or any(not isinstance(row, list) for row in data)):
        raise CarlemanError("--matrix-a must be a JSON list of rows")
    return [[scalar_from_json(mode, x) for x in row] for row in data]


def _options_from_args(args) -> SolveOptions:
    mode = Mode(args.mode)
    if args.order < 1:
        raise CarlemanError(f"--order must be >= 1, got {args.order}")
    return SolveOptions(
        order=args.order,
        mode=mode,
        shift=_parse_shift_flag(args.shift, mode),
        matrix=_parse_matrix_flag(args.matrix_a, mode),
        seed=args.seed,
    )


def _emit(report, args) -> None:
    """Write a JSON payload or a list of text lines where args send it."""
    text = (json.dumps(report, indent=2) if args.format == "json"
            else "\n".join(report)) + "\n"
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)


def _vector_json(values) -> list:
    return [scalar_to_json(x) for x in values]


def _matrix_inline(rows) -> str:
    return "[" + ", ".join(map(format_vector, rows)) + "]"


# -- subcommands -----------------------------------------------------------------
# Each takes (args, opts, system, names) and returns (report, exit code): a
# JSON payload under --format json, a list of text lines otherwise.


def _cmd_solve(args, opts, system, names):
    solution = solve(system, opts, names=names)
    if args.format == "json":
        return solution.to_json(), EXIT_OK
    return [f"order: {solution.order}",
            f"mode: {solution.mode.value}",
            "shift: " + format_vector(solution.transform.offset),
            "matrix: " + _matrix_inline(solution.transform.matrix),
            solution.render_text().rstrip("\n")], EXIT_OK


def _cmd_matrix(args, opts, system, names):
    if args.shift is None:
        opts.shift = "none"  # show the matrix of the system as written
    _reduced, transformed, _combined = resolve_transform(
        system, opts, require_shifted=False)
    basis = MonomialBasis(transformed.k, opts.order)
    transition = build_transition(transformed, basis)
    triangular = transition.is_triangular
    if args.format == "json":
        payload = transition.to_json()
        payload["triangular"] = triangular
        payload["eigenvalues"] = (_vector_json(transition.diagonal())
                                  if triangular else None)
        return payload, EXIT_OK
    lines = [f"k: {basis.k}",
             f"order: {basis.order}",
             f"size: {len(transition.rows)}",
             f"triangular: {str(triangular).lower()}"]
    if triangular:
        lines.append("eigenvalues: " + ", ".join(
            format_scalar(x) for x in transition.diagonal()))
    lines.extend(f"{list(mono)}: {format_vector(row)}"
                 for mono, row in zip(basis.monomials, transition.dense_rows()))
    return lines, EXIT_OK


def _cmd_verify(args, opts, system, names):
    if args.solution is not None:
        data = _read_json(_read_text(args.solution), "solution file")
        solution = ClosedFormSolution.from_json(data)
    else:
        solution = solve(system, opts, names=names)
    report = verify(solution, system, max_power=args.max_power,
                    tol=args.tolerance)
    code = EXIT_OK if report.passed else EXIT_VERIFY
    return (report.to_json() if args.format == "json"
            else [report.describe()]), code


def _cmd_eval(args, opts, system, names):
    history = [parse_scalar_text(opts.mode, piece)
               for piece in args.z0.split(",")]
    index = args.index
    if index < 0:
        raise CarlemanError(f"--index must be >= 0, got {index}")
    direct = eval_direct(system, index, history)
    k, depth = system.k, system.depth
    if index < depth - 1:
        closed = list(history[index * k:(index + 1) * k])
    else:
        solution = solve(system, opts, names=names)
        state = history_to_reduced_state(system, history)
        closed = solution.evaluate(index - (depth - 1), state)[:k]
    rows = [(names[l], direct[l], closed[l], float(abs(direct[l] - closed[l])))
            for l in range(k)]
    if args.format == "json":
        return {"index": index, "variables": [{
            "name": name,
            "direct": scalar_to_json(d),
            "closed": scalar_to_json(c),
            "difference": diff,
        } for name, d, c, diff in rows]}, EXIT_OK
    return [f"{name}[{index}]: direct={format_scalar(d)} "
            f"closed={format_scalar(c)} |diff|={diff:.3g}"
            for name, d, c, diff in rows], EXIT_OK


def _candidates_json(trail, with_collisions: bool = False) -> list:
    out = []
    for cand in trail:
        report = cand.report
        entry = {
            "shift": _vector_json(cand.offset),
            "admissible": report.passed if report is not None else None,
            "note": cand.note or None,
            "advisories": list(report.advisories) if report is not None else [],
        }
        if with_collisions:
            entry["collisions"] = [{
                "monomials": [list(mono_a), list(mono_b)],
                "value": scalar_to_json(value),
            } for mono_a, mono_b, value in (report.collisions
                                            if report is not None else ())]
        out.append(entry)
    return out


def _candidates_text(trail, auto_failure: Optional[CarlemanError]) -> list:
    lines = ["candidates:"]
    reason = str(auto_failure or "")
    if not trail:
        lines.append(f"  (none: {reason})" if reason else "  (none)")
    for cand in trail:
        offset_text = format_vector(cand.offset)
        if cand.report is None:
            lines.append(f"  shift {offset_text}: unavailable ({cand.note})")
            continue
        status = "PASS" if cand.report.passed else "FAIL"
        eigs = ", ".join(format_scalar(x) for x in cand.report.eigenvalues)
        lines.append(f"  shift {offset_text}: {status} (eigenvalues {eigs})")
        lines.extend(cand.report.notes("    "))
    return lines


def _cmd_transform(args, opts, system, names):
    # candidate listing always follows the auto policy, even when the
    # final transform is pinned by --shift
    auto_failure = None
    try:
        offset, trail = resolve_shift(reduce_depth(system),
                                      dataclasses.replace(opts, shift="auto"))
    except CarlemanError as exc:
        auto_failure, trail = exc, getattr(exc, "trail", [])
    try:
        if opts.shift == "auto":
            if auto_failure is not None:
                raise auto_failure
            # the offset the probe chose, so the auto search runs once
            opts = dataclasses.replace(opts, shift=offset)
        _reduced, transformed, combined = resolve_transform(system, opts)
    except ShiftNotFoundError as exc:
        # the refused candidates, each with its collisions, are the report
        # a failing shift search needs; the error itself goes to stderr
        exc.report = (
            {"candidates": _candidates_json(trail, with_collisions=True)}
            if args.format == "json" else _candidates_text(trail, auto_failure))
        raise

    reduced_names = list(reduced_variable_names(system, names))
    if args.format == "json":
        return {
            "candidates": _candidates_json(trail),
            "shift": _vector_json(combined.offset),
            "matrix": [_vector_json(row) for row in combined.matrix],
            "system": pretty_print(transformed, reduced_names),
        }, EXIT_OK
    return _candidates_text(trail, auto_failure) + [
        f"chosen shift: {format_vector(combined.offset)}",
        "matrix: " + _matrix_inline(combined.matrix),
        "transformed system:",
        pretty_print(transformed, reduced_names).rstrip("\n")], EXIT_OK


_COMMANDS = {
    "solve": _cmd_solve,
    "matrix": _cmd_matrix,
    "verify": _cmd_verify,
    "eval": _cmd_eval,
    "transform": _cmd_transform,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = _joined_values(sys.argv[1:] if argv is None else argv)
    args = _build_argparser().parse_args(argv)
    report, error = None, None
    try:
        opts = _options_from_args(args)
        text = _read_text(args.input, stdin=True)
        system, names = parse_system(text, opts.mode)
        report, code = _COMMANDS[args.command](args, opts, system, names)
    except ParseError as exc:
        code, error = EXIT_PARSE, f"parse error: {exc}"
    except OSError as exc:
        code, error = EXIT_PARSE, f"cannot read input: {exc}"
    except CarlemanError as exc:
        # a refused transform carries the candidates it tried
        report = getattr(exc, "report", None)
        code, error = EXIT_SOLVER, f"error: {exc}"
    if report is not None:
        try:
            _emit(report, args)
        except OSError as exc:
            code, error = EXIT_PARSE, f"cannot write output: {exc}"
    if error is not None:
        sys.stderr.write(error + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
