"""Command-line front end.

Subcommands: solve, matrix, verify, eval, transform. Input is a
recurrence file in the DSL (or '-' for stdin). Exit codes: 0 success,
1 parse error, 2 solver-stage error, 3 verification failure.

The default truncation order is 6. All output is deterministic for
fixed input, flags, and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .embedding import MonomialBasis, build_transition
from .errors import CarlemanError, ParseError, ShiftNotFoundError
from .parser import parse_system, pretty_print
from .scalars import Mode, format_scalar, parse_scalar_text, scalar_from_json, \
    scalar_to_json
from .solver import (ClosedFormSolution, SolveOptions, eval_direct,
                     history_to_reduced_state,
                     reduced_variable_names, resolve_shift, resolve_transform,
                     solve, verify)
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
                          help="float-mode relative tolerance")

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


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


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
        with open(text, "r", encoding="utf-8") as handle:
            text = handle.read()
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


def _emit(text: str, output: Optional[str]) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)


def _load_system(args, mode: Mode):
    source = _read_input(args.input)
    return parse_system(source, mode)


def _vector_json(values) -> list:
    return [scalar_to_json(x) for x in values]


def _vector_inline(values) -> str:
    return "[" + ", ".join(format_scalar(x) for x in values) + "]"


def _matrix_inline(rows) -> str:
    return "[" + ", ".join(_vector_inline(row) for row in rows) + "]"


# -- subcommands -----------------------------------------------------------------


def _cmd_solve(args) -> int:
    opts = _options_from_args(args)
    system, names = _load_system(args, opts.mode)
    solution = solve(system, opts, names=names)
    if args.format == "json":
        text = json.dumps(solution.to_json(), indent=2) + "\n"
    else:
        lines = [
            f"order: {solution.order}",
            f"mode: {solution.mode.value}",
            "shift: " + _vector_inline(solution.transform.offset),
            "matrix: " + _matrix_inline(solution.transform.matrix),
            solution.render_text().rstrip("\n"),
        ]
        text = "\n".join(lines) + "\n"
    _emit(text, args.output)
    return EXIT_OK


def _cmd_matrix(args) -> int:
    opts = _options_from_args(args)
    if args.shift is None:
        opts.shift = "none"  # show the matrix of the system as written
    system, _names = _load_system(args, opts.mode)
    _reduced, transformed, _combined = resolve_transform(
        system, opts, require_shifted=False)
    basis = MonomialBasis(transformed.k, opts.order)
    transition = build_transition(transformed, basis)
    triangular = transition.is_triangular
    payload = transition.to_json()
    payload["triangular"] = triangular
    payload["eigenvalues"] = (_vector_json(transition.diagonal())
                              if triangular else None)
    if args.format == "json":
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [
            f"k: {payload['k']}",
            f"order: {payload['N']}",
            f"size: {len(transition.rows)}",
            f"triangular: {str(triangular).lower()}",
        ]
        if triangular:
            lines.append("eigenvalues: " + ", ".join(
                format_scalar(x) for x in transition.diagonal()))
        for mono, row in zip(basis.monomials, transition.dense_rows()):
            cells = ", ".join(format_scalar(x) for x in row)
            lines.append(f"{list(mono)}: [{cells}]")
        text = "\n".join(lines) + "\n"
    _emit(text, args.output)
    return EXIT_OK


def _cmd_verify(args) -> int:
    opts = _options_from_args(args)
    system, names = _load_system(args, opts.mode)
    if args.solution is not None:
        with open(args.solution, "r", encoding="utf-8") as handle:
            data = _read_json(handle.read(), "solution file")
        solution = ClosedFormSolution.from_json(data)
    else:
        solution = solve(system, opts, names=names)
    report = verify(solution, system, max_power=args.max_power,
                    tol=args.tolerance)
    if args.format == "json":
        text = json.dumps(report.to_json(), indent=2) + "\n"
    else:
        text = report.describe() + "\n"
    _emit(text, args.output)
    return EXIT_OK if report.passed else EXIT_VERIFY


def _cmd_eval(args) -> int:
    opts = _options_from_args(args)
    system, names = _load_system(args, opts.mode)
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
    if args.format == "json":
        payload = {
            "index": index,
            "variables": [{
                "name": names[l],
                "direct": scalar_to_json(direct[l]),
                "closed": scalar_to_json(closed[l]),
                "difference": float(abs(direct[l] - closed[l])),
            } for l in range(k)],
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = []
        for l in range(k):
            diff = float(abs(direct[l] - closed[l]))
            lines.append(f"{names[l]}[{index}]: direct={format_scalar(direct[l])} "
                         f"closed={format_scalar(closed[l])} |diff|={diff:.3g}")
        text = "\n".join(lines) + "\n"
    _emit(text, args.output)
    return EXIT_OK


def _candidates_json(trail, with_collisions: bool = False) -> list:
    out = []
    for cand in trail:
        entry = {
            "shift": _vector_json(cand.offset),
            "admissible": (cand.report.passed
                           if cand.report is not None else None),
            "note": cand.note or None,
            "advisories": (list(cand.report.advisories)
                           if cand.report is not None else []),
        }
        if with_collisions:
            entry["collisions"] = [{
                "monomials": [list(mono_a), list(mono_b)],
                "value": scalar_to_json(value),
            } for mono_a, mono_b, value in (cand.report.collisions
                                            if cand.report is not None
                                            else ())]
        out.append(entry)
    return out


def _candidates_text(trail, auto_error: Optional[str]) -> list:
    lines = ["candidates:"]
    if not trail:
        lines.append(f"  (none: {auto_error})" if auto_error else "  (none)")
    for cand in trail:
        offset_text = _vector_inline(cand.offset)
        if cand.report is None:
            lines.append(f"  shift {offset_text}: unavailable ({cand.note})")
            continue
        status = "PASS" if cand.report.passed else "FAIL"
        eigs = ", ".join(format_scalar(x) for x in cand.report.eigenvalues)
        lines.append(f"  shift {offset_text}: {status} (eigenvalues {eigs})")
        for mono_a, mono_b, value in cand.report.collisions:
            lines.append(f"    collision: {tuple(mono_a)} and {tuple(mono_b)} "
                         f"both give {format_scalar(value)}")
        for note in cand.report.advisories:
            lines.append(f"    advisory: {note}")
    return lines


def _cmd_transform(args) -> int:
    opts = _options_from_args(args)
    system, names = _load_system(args, opts.mode)
    reduced = reduce_depth(system)
    reduced_names = list(reduced_variable_names(system, names))

    # candidate listing always follows the auto policy, even when the
    # final transform is pinned by --shift
    probe = SolveOptions(order=opts.order, mode=opts.mode, shift="auto",
                         matrix=opts.matrix, seed=opts.seed)
    try:
        _offset, trail = resolve_shift(reduced, probe)
        auto_error = None
    except ShiftNotFoundError as exc:
        trail = exc.trail
        auto_error = str(exc)
    except CarlemanError as exc:
        trail = []
        auto_error = str(exc)

    try:
        _reduced, transformed, combined = resolve_transform(system, opts)
    except ShiftNotFoundError:
        # the refused candidates, each with its collisions, are the report
        # a failing shift search needs; the error itself goes to stderr
        if args.format == "json":
            payload = {"candidates": _candidates_json(trail,
                                                      with_collisions=True)}
            _emit(json.dumps(payload, indent=2) + "\n", args.output)
        else:
            _emit("\n".join(_candidates_text(trail, auto_error)) + "\n",
                  args.output)
        raise

    if args.format == "json":
        payload = {
            "candidates": _candidates_json(trail),
            "shift": _vector_json(combined.offset),
            "matrix": [_vector_json(row) for row in combined.matrix],
            "system": pretty_print(transformed, reduced_names),
        }
        text = json.dumps(payload, indent=2) + "\n"
        _emit(text, args.output)
        return EXIT_OK

    lines = _candidates_text(trail, auto_error)
    lines.append(f"chosen shift: {_vector_inline(combined.offset)}")
    lines.append("matrix: " + _matrix_inline(combined.matrix))
    lines.append("transformed system:")
    lines.append(pretty_print(transformed, reduced_names).rstrip("\n"))
    text = "\n".join(lines) + "\n"
    _emit(text, args.output)
    return EXIT_OK


_COMMANDS = {
    "solve": _cmd_solve,
    "matrix": _cmd_matrix,
    "verify": _cmd_verify,
    "eval": _cmd_eval,
    "transform": _cmd_transform,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_argparser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    except OSError as exc:
        sys.stderr.write(f"cannot read input: {exc}\n")
        return EXIT_PARSE
    except CarlemanError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
