"""Tests of the benchmark itself (not of the carleman package).

    python3 -m pytest perfbench -q

They import the package from ``src`` and start workers as the benchmark
does.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads  # noqa: E402
from tracer import (Target, Tracer, missing_spans, read_spectral,  # noqa: E402
                    read_transition, self_times)


def _worker(tmp_path, workload, mode):
    """One pass (traced, reference) or the input set once (measure):
    --seconds 0."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--mode", mode,
         "--work", str(tmp_path / mode)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300,
        check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", ["cli-mix", "dense-pullback"])
def test_same_seed_gives_identical_counts_and_digests(tmp_path, workload):
    first = _worker(tmp_path, workload, "traced")
    second = _worker(tmp_path, workload, "traced")
    assert first["counts"] == second["counts"]
    assert first["calls"] == second["calls"]
    assert [op["digest"] for op in first["ops"]] == \
        [op["digest"] for op in second["ops"]]
    assert all(op["ok"] for op in first["ops"])
    assert not first["missing"] and not first["unreadable"]


def test_tracing_does_not_change_output(tmp_path):
    traced = _worker(tmp_path, "cli-mix", "traced")
    plain = _worker(tmp_path, "cli-mix", "reference")
    assert [op["digest"] for op in traced["ops"]] == \
        [op["digest"] for op in plain["ops"]]


def test_subprocess_and_inprocess_cli_print_the_same(tmp_path):
    measured = _worker(tmp_path, "cli-mix", "measure")
    plain = _worker(tmp_path, "cli-mix", "reference")
    assert measured["cases"] == workloads.SET_SIZE["cli-mix"]
    assert not any(op["repeat"] for op in measured["ops"])
    assert [op["digest"] for op in measured["ops"][:len(plain["ops"])]] == \
        [op["digest"] for op in plain["ops"]]


def test_measured_run_takes_the_set_once_then_repeats_it():
    import worker
    for name in workloads.WORKLOADS:
        cases = list(islice(workloads.cases(name, 5), workloads.SET_SIZE[name]))
        plan = list(islice(worker.schedule(name, cases), 3 * len(cases)))
        first = [i for cycle, repeat in plan if not repeat for i in cycle]
        assert first == list(range(len(cases)))
        assert all(repeat for _, repeat in plan[len(plan) - 2 * len(cases):])
        again = {i for cycle, repeat in plan if repeat for i in cycle}
        assert again == {i for i, case in enumerate(cases) if not case.fixed}


def test_a_repeat_that_prints_something_else_fails_its_check(tmp_path):
    import worker
    runner = worker.Runner("reference", tmp_path)
    for repeat, digest in ((False, "a"), (True, "a"), (True, "b")):
        runner._repeat, runner._position = repeat, 0
        record = runner._begin({"case": 0, "digest": digest, "failed": False,
                                "ok": True})
        runner.settle(record)
    assert [op["ok"] for op in runner.ops] == [True, True, False]


def test_known_float_defect_is_counted_not_hidden(tmp_path):
    record = _worker(tmp_path, "cli-mix", "reference")
    failed = [op for op in record["ops"] if op["failed"]]
    assert failed, "float verify on k=2 coupled-type systems is known to fail"
    for op in failed:
        assert op["label"].startswith("k2-float")
        assert op["ok"]


def test_inputs_repeat_for_a_seed():
    for name in workloads.WORKLOADS:
        a = list(islice(workloads.cases(name, 3), 10))
        b = list(islice(workloads.cases(name, 3), 10))
        assert a == b
        assert a != list(islice(workloads.cases(name, 4), 10))


def test_sparse_wide_eigenvalues_use_distinct_primes():
    rng = workloads.Dealer(0)
    for _ in range(200):
        eigs = workloads._coprime_eigenvalues(rng, 3)
        parts = [abs(x.numerator) * x.denominator for x in eigs]
        assert len(set(parts)) == 3 and 1 not in parts


def test_missing_target_is_reported_not_raised():
    tracer = Tracer((Target("carleman.solver", "no_such_stage", "gone.stage"),
                     Target("no_such_module", "f", "gone.module")))
    tracer.install()
    try:
        assert tracer.missing == ["carleman.solver.no_such_stage",
                                  "no_such_module.f"]
        assert missing_spans(tracer.missing, tracer.targets) == \
            ["gone.stage", "gone.module"]
    finally:
        tracer.uninstall()


def test_wrappers_are_removed_again():
    import carleman.solver
    original = carleman.solver.decompose
    tracer = Tracer()
    tracer.install()
    assert carleman.solver.decompose is not original
    tracer.uninstall()
    assert carleman.solver.decompose is original


def test_self_time_subtracts_children():
    spans = [["a", 0.0, 10.0, None, 0], ["b", 1.0, 4.0, 0, 0],
             ["c", 2.0, 3.0, 1, 0], ["d", 5.0, 6.0, 0, 0]]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_readers_accept_sparse_rows():
    class Matrix:
        rows = [{0: Fraction(2), 1: Fraction(1)}, {1: Fraction(3)}]

    class Spectral:
        modal = [{0: Fraction(1), 1: Fraction(1, 1024)}, {1: Fraction(1)}]
        modal_inv = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]

    assert read_transition(Matrix()) == {"embedding.basis_n": 2,
                                         "embedding.nnz_T": 3,
                                         "embedding.density_T": 0.75}
    assert read_spectral(Spectral()) == {"triangular.nnz_P": 3,
                                         "triangular.nnz_Pinv": 2,
                                         "triangular.max_bits": 11}


def test_metric_names_match_benchmark_json():
    import run
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    per_layer = (list(run.SPAN_METRICS) + list(run.COUNT_METRICS)
                 + list(run.CALL_METRICS)
                 + ["systems.shift_accept_ratio", "cli.startup_s",
                    "trace.overhead"])
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(per_layer)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
