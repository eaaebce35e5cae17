"""Golden transcripts of the command-line interface.

tests/golden/cli.json holds, for every case below, the stdout, stderr,
exit code and --output file that carleman.cli.main gave for the case's
argv and stdin. The test replays each case in process from the repository
root and demands the same bytes. To rewrite the file after an intended
change of output, run from the repository root:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import functools
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from carleman.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "cli.json"
SAMPLES = {"logistic": "docs/samples/logistic_r2.rec",
           "coupled": "docs/samples/coupled_quadratic.rec"}
Z0 = {"logistic": "0.1", "coupled": "0.1,-0.2"}
# depth two, eigenvalues 2 and 3 at the origin
DEPTH_TWO = "vars: u\nu[i] = 5*u[i-1] - 6*u[i-2] + u[i-1]^2\n"
# every fixed point has eigenvalue products that collide
DOUBLE_ROOT = "vars: u\nu[i] = u[i-1] + u[i-1]^2\n"


def _cases():
    cases = []

    def add(name, argv, stdin=""):
        cases.append({"name": name, "argv": argv, "stdin": stdin})

    command_flags = {"solve": ["--order", "3"], "matrix": ["--order", "3"],
                     "verify": ["--order", "3"],
                     "eval": ["--order", "3", "--index", "5"],
                     "transform": ["--order", "3"]}
    for sample, path in SAMPLES.items():
        for command, flags in command_flags.items():
            if command == "eval":
                flags = flags + ["--z0", Z0[sample]]
            for mode in ("exact", "float"):
                for fmt in ("text", "json"):
                    add(f"{sample}-{command}-{mode}-{fmt}",
                        [command, path, *flags, "--mode", mode,
                         "--format", fmt])
    for command, flags in command_flags.items():
        if command == "eval":
            flags = flags + ["--z0", "0.1,0.2"]
        add(f"depth-two-{command}", [command, "-", *flags], DEPTH_TWO)
    add("depth-two-solve-float-json",
        ["solve", "-", "--order", "3", "--mode", "float", "--format", "json"],
        DEPTH_TWO)
    add("coupled-transform-pinned",
        ["transform", SAMPLES["coupled"], "--order", "3", "--shift", "0,0",
         "--matrix-a", "[[1,2],[-3,-5]]"])
    add("coupled-matrix-auto-shift",
        ["matrix", SAMPLES["coupled"], "--order", "2", "--shift", "auto"])
    for mode in ("exact", "float"):
        for fmt in ("text", "json"):
            add(f"refused-transform-{mode}-{fmt}",
                ["transform", "-", "--order", "2", "--mode", mode,
                 "--format", fmt], DOUBLE_ROOT)
    add("refused-solve", ["solve", "-", "--order", "2"], DOUBLE_ROOT)
    add("solve-to-output",
        ["solve", SAMPLES["coupled"], "--order", "3", "--output", "{output}"])
    add("verify-json-to-output",
        ["verify", SAMPLES["logistic"], "--order", "3", "--format", "json",
         "--output", "{output}"])
    add("missing-input", ["solve", "no-such-input.rec"])
    add("parse-error", ["solve", "-"], "vars: u\nu[i] = 2*u[i-1] +\n")
    return cases


CASES = _cases()


def run(case):
    """stdout, stderr, exit code and --output content of one case."""
    out, err = io.StringIO(), io.StringIO()
    stdin, cwd = sys.stdin, os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        output = os.path.join(tmp, "report.txt")
        argv = [arg.replace("{output}", output) for arg in case["argv"]]
        try:
            sys.stdin = io.StringIO(case["stdin"])
            os.chdir(ROOT)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            sys.stdin = stdin
            os.chdir(cwd)
        written = None
        if os.path.exists(output):
            with open(output, encoding="utf-8") as handle:
                written = handle.read()
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "code": code,
            "output": written}


@functools.cache
def _golden():
    with open(GOLDEN, encoding="utf-8") as handle:
        return {case["name"]: case for case in json.load(handle)}


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_cli_matches_golden(case):
    want = _golden()[case["name"]]
    assert want["argv"] == case["argv"] and want["stdin"] == case["stdin"]
    got = run(case)
    assert got == {key: want[key] for key in got}


def test_golden_file_lists_every_case():
    assert list(_golden()) == [case["name"] for case in CASES]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    records = [{**case, **run(case)} for case in CASES]
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(records, handle, indent=1, ensure_ascii=False)
        handle.write("\n")
