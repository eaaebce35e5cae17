"""Benchmark of the carleman pipeline: one command, three workloads.

    python3 perfbench/run.py --workload sparse-wide|dense-pullback|cli-mix
                             --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.
Inputs come from ``--seed`` (see workloads.py for why each workload
exists). ``--trace 0`` measures the end-to-end metrics with nothing
wrapped; ``--trace 1`` is the separate traced run that gives the per-layer
metrics and the tracing overhead. Every metric is printed by name with its
unit, then the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``attempted`` and ``failed``
count the operations of the seed's input set, each once, so they do not
depend on how many repeats fit in the time; every repeat is still checked. The exit code is 1 when a check
fails and 2 when the package cannot be found.

Per-operation stdout digests, timings, counts and (traced) the spans go to
``perfbench/out/<workload>-seed<N>-trace<T>.json``; compare.py diffs the
digests of two such files.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from tracer import MAX_COUNTS, count_calls, missing_spans, self_times  # noqa: E402

STARTUP_REPEATS = 41
# a run is cut off after 2 * --seconds plus this margin, which covers
# start-up, set-up samples and the last cycle or pass that a worker
# finishes after its time is up
RUN_MARGIN_S = 110
P90_MIN_SAMPLES = 100

# the end-to-end metrics of BENCHMARK.json; the others are printed only
END_TO_END = ("setup_s", "solve_s.p50", "verify_s.p50", "verified_per_s",
              "cli_s.p50", "peak_rss_mb")

# per-layer metric -> span whose self time it reports, seconds per system
SPAN_METRICS = {
    "triangular.decompose.s": "triangular.decompose",
    "solver.assemble.s": "solver.assemble",
    "solver.solve.self_s": "solver.solve",
    "solver.verify.self_s": "solver.verify",
    "solver.oracle_step.s": "solver.oracle_step",
    "poly.compose.s": "poly.compose",
    "embedding.build_transition.s": "embedding.build_transition",
    "solver.resolve_transform.self_s": "solver.resolve_transform",
    "systems.fixed_points.s": "systems.fixed_points",
    "systems.check_shift_admissible.s": "systems.check_shift_admissible",
    "systems.apply_affine.s": "systems.apply_affine",
    "systems.triangularize_linear.s": "systems.triangularize_linear",
    "parser.parse_system.s": "parser.parse_system",
    "cli.main.self_s": "cli.main",
}
# counts read from returned objects. Those in tracer.MAX_COUNTS describe
# one object: largest per operation, then largest over the run. The others
# add up and are reported per system.
COUNT_METRICS = {
    "triangular.nnz_P": "count", "triangular.nnz_Pinv": "count",
    "triangular.max_bits": "bits", "embedding.basis_n": "count",
    "embedding.nnz_T": "count", "embedding.density_T": "ratio",
    "solver.expsum_terms": "count", "solver.verify_rows": "count",
    "systems.shift_candidates": "count",
}
CALL_METRICS = {"poly.compose.calls": "poly.compose",
                "poly.mul_truncated.calls": "poly.mul_truncated"}

# stages shown for the fixed cases (tri3 N=9, coupled N=10)
CASE_STAGES = ("triangular.decompose", "solver.assemble",
               "embedding.build_transition", "solver.resolve_transform",
               "systems.check_shift_admissible", "systems.fixed_points",
               "systems.apply_affine", "systems.triangularize_linear",
               "solver.solve", "solver.oracle_step", "poly.compose",
               "solver.verify", "parser.parse_system")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child_env() -> dict:
    """The package on the path; no default-order override reaches the CLI
    calls that take their order from it (verify --solution)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("CARLEMAN_DEFAULT_ORDER", None)
    return env


def _run(cmd, deadline: float) -> subprocess.CompletedProcess:
    """Run cmd in its own process group; on timeout the whole group (a
    worker and the CLI call it is waiting for) is killed and reaped."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before " + " ".join(cmd[1:3]))
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=_child_env(), cwd=ROOT,
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"timed out: {' '.join(cmd[1:3])}") from exc
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def measure_startup(deadline: float) -> list:
    """Wall time of a bare interpreter that imports nothing."""
    times = []
    for _ in range(STARTUP_REPEATS):
        start = time.perf_counter()
        proc = _run([sys.executable, "-c", "pass"], deadline)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchError("bare interpreter failed")
    return times


def run_worker(args, mode: str, seconds: float, deadline: float) -> dict:
    work = OUT / "work" / f"{args.workload}-{args.seed}-{mode}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", str(seconds),
           "--mode", mode, "--work", str(work)]
    proc = _run(cmd, deadline)
    for stored in work.glob("solution-*.json"):
        stored.unlink()
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker failed:\n"
                         + proc.stderr.decode(errors="replace"))
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


# -- statistics -----------------------------------------------------------------------


def _metric(value, unit, samples=None) -> dict:
    entry = {"value": value, "unit": unit}
    if samples is not None:
        entry["samples"] = samples
    return entry


def _timing(metrics: dict, name: str, values) -> None:
    """Median, and p90 only with at least 100 samples."""
    if not values:
        raise BenchError(f"no samples for {name}")
    metrics[f"{name}.p50"] = _metric(statistics.median(values), "s", len(values))
    if len(values) >= P90_MIN_SAMPLES:
        p90 = statistics.quantiles(values, n=10, method="inclusive")[-1]
        metrics[f"{name}.p90"] = _metric(p90, "s", len(values))


def end_to_end(record: dict) -> dict:
    ops = record["ops"]
    library = [op for op in ops if op["kind"] == "library"]
    cli = [op for op in ops if op["kind"] == "cli"]
    setup = record["setup_s"]
    metrics = {"setup_s": _metric(statistics.median(setup), "s", len(setup))}
    _timing(metrics, "solve_s", [op["solve_s"] for op in library if "solve_s" in op])
    _timing(metrics, "verify_s",
            [op["verify_s"] for op in library if "verify_s" in op])
    verified = sum(1 for op in library if op["outcome"] == "pass")
    metrics["verified_per_s"] = _metric(verified / record["wall_s"], "1/s",
                                        verified)
    _timing(metrics, "cli_s", [op["wall_s"] for op in cli])
    metrics["peak_rss_mb"] = _metric(record["rss_kb"] / 1024, "MB")
    first = first_runs(record)
    failed = sum(1 for op in first if op["failed"])
    metrics["fail_ratio"] = _metric(failed / len(first), "ratio", len(first))
    return metrics


def per_layer(traced: dict, reference: dict, startup: list) -> tuple:
    """Per-layer metrics and the names reported as missing."""
    systems = traced["cases"] * len(traced["pass_walls"])
    totals: dict = {}
    for span, own in zip(traced["spans"], self_times(traced["spans"])):
        totals[span[0]] = totals.get(span[0], 0.0) + own
    gone = missing_spans(traced["missing"])
    unreadable = traced["unreadable"]
    missing = [m for m, span in SPAN_METRICS.items() if span in gone]
    missing += [m for m, span in CALL_METRICS.items() if span in gone]
    missing += [m for m in COUNT_METRICS if m in unreadable]
    if "systems.shift_chosen" in unreadable:
        missing.append("systems.shift_accept_ratio")
    metrics = {}
    for name, span in SPAN_METRICS.items():
        metrics[name] = _metric(totals.get(span, 0.0) / systems, "s")
    counts = list(traced["counts"].values())
    for name, unit in COUNT_METRICS.items():
        values = [c.get(name, 0) for c in counts]
        value = (max(values, default=0) if name in MAX_COUNTS
                 else sum(values) / systems)
        metrics[name] = _metric(value, unit)
    for name, span in CALL_METRICS.items():
        metrics[name] = _metric(count_calls(traced["calls"], span) / systems,
                                "count")
    tried = sum(c.get("systems.shift_candidates", 0) for c in counts)
    chosen = sum(c.get("systems.shift_chosen", 0) for c in counts)
    metrics["systems.shift_accept_ratio"] = _metric(
        chosen / tried if tried else 0.0, "ratio")
    metrics["cli.startup_s"] = _metric(statistics.median(startup), "s",
                                       len(startup))
    overhead = (statistics.mean(traced["pass_walls"])
                / statistics.mean(reference["pass_walls"]) - 1)
    metrics["trace.overhead"] = _metric(overhead, "ratio")
    return metrics, missing


def fixed_case_readout(traced: dict, reference: dict) -> list:
    """Stage self times (seconds per pass) and counts of the fixed case."""
    fixed = {op["id"]: op for op in traced["ops"]
             if op["kind"] == "library" and op["fixed"]}
    if not fixed:
        return []
    label = next(iter(fixed.values()))["label"]
    plain = [op for op in reference["ops"]
             if op["kind"] == "library" and op["fixed"]]
    passes = len(traced["pass_walls"])
    stage: dict = {}
    for span, own in zip(traced["spans"], self_times(traced["spans"])):
        if span[4] in fixed:
            stage[span[0]] = stage.get(span[0], 0.0) + own / passes
    counts = traced["counts"].get(str(min(fixed)), {})
    lines = [f"case {label} (fixed), untraced: solve "
             f"{statistics.median(op['solve_s'] for op in plain):.4f} s, verify "
             f"{statistics.median(op['verify_s'] for op in plain):.4f} s; "
             f"self time per stage in the traced run:"]
    lines += [f"  {name:32s} {stage[name]:.4f} s"
              for name in CASE_STAGES if name in stage]
    lines += [f"  {name:32s} {value:g}" for name, value in sorted(counts.items())]
    return lines


# -- checks and output ------------------------------------------------------------------


def first_runs(record: dict) -> list:
    """The operations of the input set, each at its first run."""
    return [op for op in record["ops"] if not op["repeat"]]


def problems(record: dict) -> list:
    out = []
    for op in record["ops"]:
        if not op["ok"]:
            what = " ".join(op["argv"][:1]) if op["kind"] == "cli" else "library"
            reason = op.get("problem") or f"outcome {op.get('outcome')}"
            out.append(f"op {op['id']} {op['label']} {what}: {reason}")
    return out


def digest_mismatches(traced: dict, reference: dict) -> list:
    out = []
    for a, b in zip(first_runs(reference), first_runs(traced)):
        if a["digest"] != b["digest"]:
            out.append(f"op {a['id']} {a['label']}: output changes under tracing")
    return out


def _print_metrics(metrics: dict) -> None:
    for name, entry in metrics.items():
        samples = f" (n={entry['samples']})" if "samples" in entry else ""
        print(f"{name:34s} {entry['value']:.6g} {entry['unit']}{samples}")


def _write(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="carleman benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "carleman" / "__init__.py").is_file():
        sys.stderr.write(f"cannot find the carleman package under {SRC}\n")
        return 2
    deadline = time.monotonic() + 2 * args.seconds + RUN_MARGIN_S
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    try:
        if args.trace == 0:
            record = run_worker(args, "measure", args.seconds, deadline)
            metrics = end_to_end(record)
            broken = problems(record)
            report = {"measure": record}
            readout = [f"case {op['label']} (fixed): solve {op['solve_s']:.4f} s, "
                       f"verify {op['verify_s']:.4f} s"
                       for op in record["ops"]
                       if op["kind"] == "library" and op["fixed"]]
            listed = END_TO_END
        else:
            startup = measure_startup(deadline)
            reference = run_worker(args, "reference", args.seconds / 2, deadline)
            traced = run_worker(args, "traced", args.seconds / 2, deadline)
            metrics, missing = per_layer(traced, reference, startup)
            broken = (problems(reference) + problems(traced)
                      + digest_mismatches(traced, reference))
            report = {"startup_s": startup, "reference": reference,
                      "traced": traced, "missing_metrics": missing}
            record = traced
            readout = fixed_case_readout(traced, reference)
            for path in traced["missing"]:
                readout.append(f"missing: {path} (no such attribute)")
            for name in missing:
                readout.append(f"missing: metric {name}")
            for path in traced["idle"]:
                readout.append(f"idle: {path} (wrapped, never called)")
            listed = metrics
    except BenchError as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1

    first = first_runs(record)
    attempted = len(first)
    failed = sum(1 for op in first if op["failed"])
    _write(out_file, report)
    passes = (f" x {len(record['pass_walls'])} passes"
              if record["pass_walls"] else "")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{record['cases']} systems{passes}, {attempted} operations "
          f"({len(record['ops'])} runs with repeats), {failed} failed")
    _print_metrics(metrics)
    for line in readout:
        print(line)
    print(f"per-operation stdout digests: {out_file.relative_to(ROOT)}")
    for problem in broken:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": not broken, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name]["value"],
                           "unit": metrics[name]["unit"]} for name in listed},
    }
    print(json.dumps(result))
    return 0 if not broken else 1


if __name__ == "__main__":
    sys.exit(main())
