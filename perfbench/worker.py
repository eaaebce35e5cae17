"""Runs one workload in a fresh process and prints one JSON record.

Modes:

measure
    Untraced. The seed gives a fixed input set of ``SET_SIZE`` cases. They
    run one cycle after another (a closed loop with one client), every
    one of them once, and then the set repeats from the start (the fixed
    case left out) until ``--seconds`` have passed, stopping only between
    whole cycles of the workload. A repeat is timed and must print what
    the first run of the same operation printed. So the operations
    attempted, and those that fail, depend on the seed alone, not on the
    clock. In a cycle the library calls of its cases run first, then
    their CLI calls, each a subprocess ``python -m carleman.cli``. The
    end-to-end metrics come from here.
    Between cycles it also times ``import carleman`` in fresh interpreters
    (``setup_s``), in batches that keep pace with the clock, so the
    samples are spread over the run rather than taken in one burst; that
    time is left out of the run's wall time.
reference, traced
    Whole passes over the first ``TRACE_PASS`` cases (library calls
    first, as in a cycle), repeated until ``--seconds`` have passed (at
    least one pass; passes after the first are repeats), with CLI calls
    made in-process through ``carleman.cli.main(argv)``. ``traced`` installs
    the tracer's wrappers; ``reference`` is the same work without them,
    so the two give the tracing overhead.

Usage: python3 perfbench/worker.py --workload NAME --seed N --seconds S
       --mode measure|reference|traced --work DIR
Run with ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import carleman
import carleman.cli
from carleman import CarlemanError, Mode, ParseError, SolveOptions

import workloads
from tracer import Tracer

CLI_TIMEOUT_S = 120
SETUP_REPEATS = 41
SETUP_CODE = ("import time; t = time.perf_counter(); import carleman; "
              "print(time.perf_counter() - t)")


def _sha(data: str) -> str:
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


class Runner:
    """Executes cases and keeps one record per operation."""

    def __init__(self, mode: str, work: Path, tracer=None):
        self.mode = mode
        self.work = work
        self.tracer = tracer
        self.ops = []
        self.first = {}  # (case, position) -> what its first run gave
        self._repeat = False
        self._position = 0

    def _begin(self, record: dict) -> dict:
        record["id"] = len(self.ops)
        record["repeat"] = self._repeat
        record["position"] = self._position
        self._position += 1
        self.ops.append(record)
        if self.tracer is not None:
            self.tracer.begin_op(record["id"])
        return record

    def _end(self) -> None:
        if self.tracer is not None:
            self.tracer.end_op()

    def settle(self, record: dict) -> None:
        """A repeat must give what the first run of its operation gave."""
        key = (record["case"], record["position"])
        seen = (record["digest"], record["failed"])
        if not record["repeat"]:
            self.first[key] = seen
        elif self.first.get(key) != seen:
            record["ok"] = False
            record["problem"] = "output differs from its first run"

    def run_cycle(self, indices, cases: list, repeat: bool = False) -> None:
        """The library solve+verify of every case in the cycle, back to back,
        then their CLI calls: a subprocess between two library calls makes
        the second one's time vary by a quarter or more."""
        solutions = {}
        for index in indices:
            self._repeat, self._position = repeat, 0
            solutions[index] = self.library(index, cases[index])
        for index in indices:
            case, solution = cases[index], solutions[index]
            stored = None
            if solution is not None and any(op.stored for op in case.cli):
                stored = self.work / f"solution-{index}.json"
                stored.write_text(solution[1], encoding="utf-8")
            self._position = 1
            for op in case.cli:
                self.cli(index, case, op, solution, stored)

    # library: parse_system, solve, verify, looked up at call time so the
    # tracer's wrappers on the package attributes apply

    def library(self, index: int, case: workloads.Case):
        record = self._begin({"case": index, "label": case.label,
                              "kind": "library", "expect": case.library,
                              "fixed": case.fixed})
        mode = Mode(case.mode)
        start = time.perf_counter()
        solution = None
        try:
            outcome, digest, solution = self._library(case, mode, record)
        except Exception as exc:  # a crash is a wrong outcome, not the end
            outcome, digest = f"error: {type(exc).__name__}: {exc}", ""
        record["wall_s"] = time.perf_counter() - start
        self._end()
        record["outcome"] = outcome
        record["digest"] = digest
        # exact verify must pass; float verify may report FAIL (the known
        # float defect), which fails the operation but breaks no check
        record["failed"] = outcome != case.library
        record["ok"] = (outcome == case.library
                        or (case.mode == "float" and outcome == "verify-fail"))
        self.settle(record)
        return solution

    def _library(self, case, mode, record):
        try:
            system, names = carleman.parse_system(case.text, mode)
        except ParseError as exc:
            return "parse-error", _sha(str(exc)), None
        matrix = None
        if case.matrix is not None:
            matrix = [[Fraction(x) for x in row] for row in case.matrix]
        opts = SolveOptions(order=case.order, mode=mode, matrix=matrix)
        start = time.perf_counter()
        try:
            solution = carleman.solve(system, opts, names=names)
        except CarlemanError as exc:
            return "refused", _sha(str(exc)), None
        record["solve_s"] = time.perf_counter() - start
        start = time.perf_counter()
        report = carleman.verify(solution, system)
        record["verify_s"] = time.perf_counter() - start
        stored = json.dumps(solution.to_json(), indent=2) + "\n"
        digest = _sha(stored + report.describe())
        outcome = "pass" if report.passed else "verify-fail"
        return outcome, digest, (solution, stored)

    # CLI

    def cli(self, index, case, op, solution, stored) -> None:
        argv = list(op.argv)
        if op.stored:
            argv += ["--solution", str(stored)]
        record = self._begin({"case": index, "label": case.label,
                              "kind": "cli", "argv": argv,
                              "expect": op.expect})
        start = time.perf_counter()
        if self.mode == "measure":
            code, out = _cli_subprocess(argv, case.text)
        else:
            code, out = _cli_inprocess(argv, case.text)
        record["wall_s"] = time.perf_counter() - start
        self._end()
        record["exit"] = code
        record["digest"] = _sha(out)
        record["failed"] = code != op.expect
        problem = None
        if code != op.expect and code not in op.allowed:
            problem = f"exit {code}, expected {op.expect}"
        else:
            problem = _check_output(op.check, code, out, solution)
        record["ok"] = problem is None
        if problem:
            record["problem"] = problem
        self.settle(record)


def _check_output(check, code, out, solution):
    """None when the output passes the op's extra check, else a reason."""
    if check == "verdict" and code in (workloads.EXIT_OK, workloads.EXIT_VERIFY):
        passed = code == workloads.EXIT_OK
        try:
            said = json.loads(out)["passed"]
        except ValueError:
            lines = out.strip().splitlines()
            said = lines[-1].startswith("result: PASS") if lines else None
        if said is not passed:
            return f"verdict in stdout disagrees with exit {code}"
    if check in ("solution-text", "solution-json") and code == 0:
        if solution is None:
            return "the library solve of the same system failed"
        sol, stored = solution
        same = (out.endswith(sol.render_text()) if check == "solution-text"
                else out == stored)
        if not same:
            return "CLI solution differs from the library solution"
    return None


def _cli_subprocess(argv, text):
    proc = subprocess.run(
        [sys.executable, "-m", "carleman.cli", *argv],
        input=text.encode("utf-8"), capture_output=True,
        timeout=CLI_TIMEOUT_S, check=False)
    return proc.returncode, proc.stdout.decode("utf-8")


def _cli_inprocess(argv, text):
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = carleman.cli.main(argv)
            except SystemExit as exc:  # argparse refusals
                code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue()


def _import_times(repeats: int) -> list:
    """``import carleman`` in ``repeats`` fresh interpreters. The worker
    has imported the package already, so the bytecode cache is warm."""
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE],
                              capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S, check=True)
        times.append(float(proc.stdout))
    return times


def _setup_due(elapsed: float, seconds: float) -> int:
    """Set-up samples that should exist after ``elapsed`` of ``seconds``."""
    if seconds <= 0:
        return SETUP_REPEATS
    return min(SETUP_REPEATS, 1 + int(SETUP_REPEATS * elapsed / seconds))


def schedule(workload: str, cases: list):
    """(case indices, repeat) per cycle of the measured run: every cycle
    of the input set once, then the cycles without a fixed case over and
    over; the caller stops between cycles when its time is up."""
    size = workloads.CYCLE[workload]
    cycles = [range(i, i + size) for i in range(0, len(cases), size)]
    again = [c for c in cycles if not any(cases[i].fixed for i in c)]
    return itertools.chain(((c, False) for c in cycles),
                           ((c, True) for c in itertools.cycle(again)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("measure", "reference", "traced"))
    parser.add_argument("--work", required=True,
                        help="directory for stored solution files")
    args = parser.parse_args()
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)

    tracer = None
    if args.mode == "traced":
        tracer = Tracer()
        tracer.install()
    runner = Runner(args.mode, work, tracer)
    pass_walls, setup = [], []
    paused = 0.0  # spent on set-up samples, not on the workload
    start = time.perf_counter()
    if args.mode == "measure":
        cases = list(itertools.islice(
            workloads.cases(args.workload, args.seed),
            workloads.SET_SIZE[args.workload]))
        for cycle, repeat in schedule(args.workload, cases):
            elapsed = time.perf_counter() - start - paused
            if repeat and elapsed >= args.seconds:
                break
            pause = time.perf_counter()
            setup += _import_times(
                _setup_due(elapsed, args.seconds) - len(setup))
            paused += time.perf_counter() - pause
            runner.run_cycle(cycle, cases, repeat)
    else:
        cases = list(itertools.islice(
            workloads.cases(args.workload, args.seed),
            workloads.TRACE_PASS[args.workload]))
        while True:
            pass_start = time.perf_counter()
            runner.run_cycle(range(len(cases)), cases, bool(pass_walls))
            pass_walls.append(time.perf_counter() - pass_start)
            if time.perf_counter() - start >= args.seconds:
                break
    wall = time.perf_counter() - start - paused
    if args.mode == "measure":
        setup += _import_times(SETUP_REPEATS - len(setup))
    if tracer is not None:
        tracer.uninstall()

    record = {
        "workload": args.workload, "seed": args.seed, "mode": args.mode,
        "wall_s": wall, "pass_walls": pass_walls, "setup_s": setup,
        "cases": 1 + max((op["case"] for op in runner.ops), default=-1),
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "ops": runner.ops,
    }
    if tracer is not None:
        record.update(spans=tracer.spans,
                      counts={str(k): v for k, v in tracer.counts.items()},
                      calls=tracer.calls, missing=tracer.missing,
                      unreadable=tracer.unreadable, idle=tracer.idle())
    json.dump(record, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
