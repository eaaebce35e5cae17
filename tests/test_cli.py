"""End-to-end tests of the command-line interface.

Each test drives main(argv) in process and inspects the exit code plus
captured stdout/stderr, so the full flag-parsing, solving, and rendering
path runs exactly as a shell invocation would.
"""

import json
import time
from pathlib import Path

import pytest

import carleman.cli
import carleman.embedding
import carleman.solver
from carleman.cli import main

LOGISTIC = "vars: u\nu[i] = 2*u[i-1] - 2*u[i-1]^2\n"
CUBIC = "vars: u\nu[i] = u[i-1]^3 + 2*u[i-1]^2 + u[i-1]\n"
FIB = "vars: u\nu[i] = u[i-1] + u[i-2]\n"
COUPLED = (
    "vars: u, v\n"
    "u[i] = 8*u[i-1] + 10*v[i-1] + u[i-1]^2 + 3*u[i-1]*v[i-1] + v[i-1]^2\n"
    "v[i] = -3*u[i-1] - 3*v[i-1] + u[i-1]^2 - u[i-1]*v[i-1] + v[i-1]^2\n")
SAMPLES = Path(__file__).resolve().parent.parent / "docs" / "samples"


def write(tmp_path, text, name="system.rec"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# -- solve ------------------------------------------------------------------


def test_solve_text_golden(tmp_path, capsys):
    code = main(["solve", write(tmp_path, LOGISTIC), "--order", "3"])
    assert code == 0
    assert capsys.readouterr().out == (
        "order: 3\n"
        "mode: exact\n"
        "shift: [0]\n"
        "matrix: [[1]]\n"
        "u[i] = (2^i)*u[0] + (2^i - 4^i)*u[0]^2"
        " + (4/3*2^i - 2*4^i + 2/3*8^i)*u[0]^3\n")


def test_solve_text_coupled_with_inline_matrix(tmp_path, capsys):
    code = main(["solve", write(tmp_path, COUPLED), "--order", "2",
                 "--matrix-a", "[[1,2],[-3,-5]]"])
    assert code == 0
    out = capsys.readouterr().out
    assert "matrix: [[1, 2], [-3, -5]]" in out
    assert "shift: [0, 0]" in out
    # leading closed-form coefficients in the original coordinates
    assert "(-5*2^i + 6*3^i)*u[0]" in out
    assert "(-10*2^i + 10*3^i)*v[0]" in out
    assert "(3*2^i - 3*3^i)*u[0]" in out


def test_solve_json_schema(tmp_path, capsys):
    code = main(["solve", write(tmp_path, COUPLED), "--order", "2",
                 "--matrix-a", "[[1,2],[-3,-5]]", "--format", "json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert sorted(data) == ["mode", "order", "transform", "transformed",
                            "variables"]
    assert data["order"] == 2
    assert data["mode"] == "exact"
    assert data["transform"]["A"] == [["1", "2"], ["-3", "-5"]]
    assert data["transform"]["B"] == ["0", "0"]
    first = data["variables"][0]
    assert first["name"] == "u"
    assert first["offset"] == "0"
    assert first["terms"][0] == {
        "monomial": [1, 0],
        "expsum": [{"base": "2", "coeff": "-5"}, {"base": "3", "coeff": "6"}],
    }
    assert data["transformed"][0]["terms"][0] == {
        "monomial": [1, 0], "expsum": [{"base": "2", "coeff": "1"}]}


def test_solve_json_float_mode_uses_pairs(tmp_path, capsys):
    code = main(["solve", write(tmp_path, LOGISTIC), "--order", "2",
                 "--mode", "float", "--format", "json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    base = data["variables"][0]["terms"][0]["expsum"][0]["base"]
    assert isinstance(base, list) and len(base) == 2
    assert base[0] == pytest.approx(2.0)
    assert base[1] == pytest.approx(0.0)


# -- matrix -----------------------------------------------------------------


def test_matrix_text_golden(tmp_path, capsys):
    code = main(["matrix", write(tmp_path, LOGISTIC), "--order", "3"])
    assert code == 0
    assert capsys.readouterr().out == (
        "k: 1\n"
        "order: 3\n"
        "size: 4\n"
        "triangular: true\n"
        "eigenvalues: 1, 2, 4, 8\n"
        "[0]: [1, 0, 0, 0]\n"
        "[1]: [0, 2, -2, 0]\n"
        "[2]: [0, 0, 4, -8]\n"
        "[3]: [0, 0, 0, 8]\n")


def test_matrix_json_golden(tmp_path, capsys):
    code = main(["matrix", write(tmp_path, LOGISTIC), "--order", "2",
                 "--format", "json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out) == {
        "k": 1,
        "N": 2,
        "basis": [[0], [1], [2]],
        "rows": [["1", "0", "0"], ["0", "2", "-2"], ["0", "0", "4"]],
        "triangular": True,
        "eigenvalues": ["1", "2", "4"],
    }


def test_matrix_keeps_system_as_written_by_default(tmp_path, capsys):
    # nonzero constant: without an explicit --shift the matrix subcommand
    # reports the raw system, which cannot be triangular
    path = write(tmp_path, "vars: u\nu[i] = 2*u[i-1] - 2*u[i-1]^2 + 1/2\n")
    code = main(["matrix", path, "--order", "2", "--format", "json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["triangular"] is False
    assert data["eigenvalues"] is None
    assert data["rows"][1][0] == "1/2"

    code = main(["matrix", path, "--order", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "triangular: false" in out
    assert "eigenvalues" not in out


def test_matrix_applies_explicit_shift(tmp_path, capsys):
    code = main(["matrix", write(tmp_path, CUBIC), "--order", "2",
                 "--shift", "-2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "triangular: true" in out
    assert "eigenvalues: 1, 5, 25" in out


def test_matrix_order_one_gives_top_block(tmp_path, capsys):
    code = main(["matrix", write(tmp_path, COUPLED), "--order", "1",
                 "--format", "json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["basis"] == [[0, 0], [1, 0], [0, 1]]
    assert len(data["rows"]) == 3


# -- verify -----------------------------------------------------------------


def test_verify_fresh_solution_passes(tmp_path, capsys):
    code = main(["verify", write(tmp_path, LOGISTIC), "--order", "3",
                 "--max-power", "6"])
    assert code == 0
    out = capsys.readouterr().out
    assert "result: PASS (max discrepancy 0)" in out
    assert "i=6: PASS" in out


def test_verify_json_report(tmp_path, capsys):
    code = main(["verify", write(tmp_path, LOGISTIC), "--order", "2",
                 "--max-power", "3", "--format", "json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["passed"] is True
    assert data["steps"] == 3
    assert data["coordinates"] == "original"
    assert all(row["ok"] for row in data["rows"])


def test_verify_stored_solution(tmp_path, capsys):
    path = write(tmp_path, LOGISTIC)
    sol = tmp_path / "solution.json"
    assert main(["solve", path, "--order", "3", "--format", "json",
                 "--output", str(sol)]) == 0
    code = main(["verify", path, "--order", "3", "--solution", str(sol)])
    assert code == 0
    assert "result: PASS" in capsys.readouterr().out


def test_verify_tampered_solution_fails(tmp_path, capsys):
    path = write(tmp_path, LOGISTIC)
    sol = tmp_path / "solution.json"
    assert main(["solve", path, "--order", "3", "--format", "json",
                 "--output", str(sol)]) == 0
    data = json.loads(sol.read_text())
    data["variables"][0]["terms"][0]["expsum"][0]["coeff"] = "7"
    sol.write_text(json.dumps(data))
    code = main(["verify", path, "--order", "3", "--solution", str(sol)])
    assert code == 3
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "result: FAIL" in out


def test_verify_corrupt_solution_file(tmp_path, capsys):
    path = write(tmp_path, LOGISTIC)
    sol = tmp_path / "solution.json"
    sol.write_text("{not json")
    code = main(["verify", path, "--solution", str(sol)])
    assert code == 2
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("coeff", ["9" * 5000, '"1/0"'],
                         ids=["5000-digits", "zero-denominator"])
def test_verify_unreadable_solution_scalar_exits_2(tmp_path, capsys, coeff):
    path = write(tmp_path, LOGISTIC)
    sol = tmp_path / "solution.json"
    assert main(["solve", path, "--order", "3", "--format", "json",
                 "--output", str(sol)]) == 0
    data = json.loads(sol.read_text())
    data["variables"][0]["terms"][0]["expsum"][0]["coeff"] = "COEFF"
    sol.write_text(json.dumps(data).replace('"COEFF"', coeff))
    code = main(["verify", path, "--order", "3", "--solution", str(sol)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_verify_solution_number_past_the_digit_limit_exits_2(tmp_path, capsys):
    # valid JSON, but Python refuses to convert integers of more than 4300
    # digits, and its advice names a call the CLI user cannot make
    path = write(tmp_path, LOGISTIC)
    sol = tmp_path / "solution.json"
    assert main(["solve", path, "--order", "3", "--format", "json",
                 "--output", str(sol)]) == 0
    data = json.loads(sol.read_text())
    data["order"] = "ORDER"
    sol.write_text(json.dumps(data).replace('"ORDER"', "9" * 5000))
    code = main(["verify", path, "--order", "3", "--solution", str(sol)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: solution file: number too long (5000 digits)\n"


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("sample, matrix", [
    ("coupled_quadratic.rec", None), ("coupled_quadratic.rec", "[[1,2],[-3,-5]]"),
    ("logistic_r2.rec", None), ("logistic_r2.rec", "[[3]]")],
    ids=["coupled", "coupled-A", "logistic", "logistic-A"])
def test_verify_stored_solution_prints_what_verify_prints(tmp_path, capsys,
                                                          sample, matrix, mode):
    # float coupled verify fails at the default order (exit 3) both ways
    flags = [str(SAMPLES / sample), "--mode", mode]
    if matrix is not None:
        flags += ["--matrix-a", matrix]
    sol = tmp_path / "solution.json"
    assert main(["solve", *flags, "--format", "json", "--output", str(sol)]) == 0
    capsys.readouterr()
    code = main(["verify", *flags])
    fresh = capsys.readouterr().out
    assert main(["verify", *flags, "--solution", str(sol)]) == code
    assert capsys.readouterr().out == fresh
    assert code in (0, 3)


@pytest.mark.parametrize("matrix, reason", [
    ("[[[1,0],[1e400,0]],[[0,0],[1,0]]]",
     "number out of range (magnitude above 1.8e308)"),
    ("[[[1,0],[0,-1e400]],[[0,0],[1,0]]]",
     "number out of range (magnitude above 1.8e308)"),
    ("[[[1,0],[NaN,0]],[[0,0],[1,0]]]", "not a number"),
    ("[[1,NaN],[0,1]]", "not a number"),
], ids=["pair-1e400", "pair-imag-1e400", "pair-NaN", "bare-NaN"])
def test_float_non_finite_matrix_entry_is_named(tmp_path, capsys, matrix,
                                                reason):
    # json reads these as inf or nan; they used to pass as scalars and fail
    # later with an unrelated admissibility message
    code = main(["solve", write(tmp_path, COUPLED), "--order", "2",
                 "--mode", "float", "--matrix-a", matrix])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot read a JSON number as a scalar: {reason}\n"


@pytest.mark.parametrize("value", ["[NaN, 0.0]", "[0.0, 1e400]", "NaN"])
def test_float_solution_with_non_finite_scalar_exits_2(tmp_path, capsys, value):
    path = write(tmp_path, LOGISTIC)
    sol = tmp_path / "solution.json"
    assert main(["solve", path, "--order", "3", "--mode", "float",
                 "--format", "json", "--output", str(sol)]) == 0
    data = json.loads(sol.read_text())
    data["variables"][0]["terms"][0]["expsum"][0]["coeff"] = "COEFF"
    sol.write_text(json.dumps(data).replace('"COEFF"', value))
    code = main(["verify", path, "--order", "3", "--mode", "float",
                 "--solution", str(sol)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot read a JSON number as a scalar: ")


def test_verify_negative_max_power_exits_2(tmp_path, capsys):
    code = main(["verify", write(tmp_path, COUPLED), "--max-power", "-1"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "max_power must be >= 0, got -1" in captured.err


@pytest.mark.parametrize("tolerance", ["nan", "-1e-8", "inf"])
def test_verify_tolerance_that_is_not_finite_and_non_negative_exits_2(
        capsys, tolerance):
    # a correct float solution: nan and negative values printed FAIL, inf
    # would pass any solution
    code = main(["verify", str(SAMPLES / "logistic_r2.rec"), "--order", "3",
                 "--mode", "float", f"--tolerance={tolerance}"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: tolerance must be finite and >= 0")


# -- eval -------------------------------------------------------------------


def test_eval_text_golden(tmp_path, capsys):
    code = main(["eval", write(tmp_path, LOGISTIC), "--index", "2",
                 "--z0", "1/4", "--order", "4"])
    assert code == 0
    assert capsys.readouterr().out == (
        "u[2]: direct=15/32 closed=15/32 |diff|=0\n")


def test_eval_json(tmp_path, capsys):
    code = main(["eval", write(tmp_path, LOGISTIC), "--index", "2",
                 "--z0", "1/4", "--order", "4", "--format", "json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out) == {
        "index": 2,
        "variables": [{"name": "u", "direct": "15/32", "closed": "15/32",
                       "difference": 0.0}],
    }


def test_eval_reads_history_below_reduction_depth(tmp_path, capsys):
    # index 0 of a depth-2 recurrence comes straight from the history, so
    # no solve happens and exact mode works even though the eigenvalues
    # are irrational
    code = main(["eval", write(tmp_path, FIB), "--index", "0", "--z0", "1,1"])
    assert code == 0
    assert capsys.readouterr().out == "u[0]: direct=1 closed=1 |diff|=0\n"


def test_eval_depth_two_float(tmp_path, capsys):
    code = main(["eval", write(tmp_path, FIB), "--index", "10",
                 "--z0", "1,1", "--mode", "float", "--order", "2",
                 "--format", "json"])
    assert code == 0
    row = json.loads(capsys.readouterr().out)["variables"][0]
    assert row["direct"] == [89.0, 0.0]
    assert row["closed"][0] == pytest.approx(89.0, abs=1e-6)
    assert row["difference"] < 1e-6


def test_eval_negative_index_rejected(tmp_path, capsys):
    code = main(["eval", write(tmp_path, LOGISTIC), "--index", "-1",
                 "--z0", "1/4"])
    assert code == 2
    assert "--index" in capsys.readouterr().err


# -- transform --------------------------------------------------------------


def test_transform_text_golden(tmp_path, capsys):
    code = main(["transform", write(tmp_path, CUBIC), "--order", "2"])
    assert code == 0
    assert capsys.readouterr().out == (
        "candidates:\n"
        "  shift [0]: FAIL (eigenvalues 1)\n"
        "    collision: (0,) and (1,) both give 1\n"
        "    collision: (0,) and (2,) both give 1\n"
        "    advisory: eigenvalue 1 is a root of unity (order 1); products "
        "repeat at every truncation order\n"
        "  shift [-2]: PASS (eigenvalues 5)\n"
        "chosen shift: [-2]\n"
        "matrix: [[1]]\n"
        "transformed system:\n"
        "vars: u\n"
        "u[i] = u[i-1]^3 - 4*u[i-1]^2 + 5*u[i-1]\n")


def test_transform_json(tmp_path, capsys):
    code = main(["transform", write(tmp_path, CUBIC), "--order", "2",
                 "--format", "json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert [c["shift"] for c in data["candidates"]] == [["0"], ["-2"]]
    assert [c["admissible"] for c in data["candidates"]] == [False, True]
    assert data["shift"] == ["-2"]
    assert data["matrix"] == [["1"]]
    assert data["system"] == "vars: u\nu[i] = u[i-1]^3 - 4*u[i-1]^2 + 5*u[i-1]\n"


@pytest.mark.parametrize("shift", [[], ["--shift", "none"]])
def test_transform_runs_the_auto_shift_search_once(tmp_path, capsys,
                                                   monkeypatch, shift):
    # the candidate listing's auto search also gives the chosen shift
    searches = []
    search = carleman.solver.resolve_shift

    def counting(system, opts):
        searches.append(opts.shift)
        return search(system, opts)

    monkeypatch.setattr(carleman.cli, "resolve_shift", counting)
    monkeypatch.setattr(carleman.solver, "resolve_shift", counting)
    assert main(["transform", write(tmp_path, CUBIC), "--order", "2",
                 *shift]) == 0
    assert "chosen shift: [" in capsys.readouterr().out
    assert searches.count("auto") == 1


def test_text_matrix_builds_no_json_payload(tmp_path, capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("to_json called for a text report")

    monkeypatch.setattr(carleman.embedding.CarlemanMatrix, "to_json", refuse)
    assert main(["matrix", write(tmp_path, LOGISTIC), "--order", "2"]) == 0
    assert capsys.readouterr().out.startswith("k: 1\norder: 2\n")


def test_transform_logistic_keeps_origin(tmp_path, capsys):
    code = main(["transform", write(tmp_path, LOGISTIC), "--order", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "shift [0]: PASS (eigenvalues 2)" in out
    assert "chosen shift: [0]" in out


# -- exit codes and error paths ---------------------------------------------


def test_parse_error_exits_1(tmp_path, capsys):
    code = main(["solve", write(tmp_path, "vars: u\nu[i] = w[i-1]\n")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("parse error: line 2, column 8")


def test_digit_like_character_exits_1(tmp_path, capsys):
    code = main(["solve", write(tmp_path, "vars: u\nu[i] = 2*u[i-1]²\n")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("parse error: line 2, column 16: unexpected character '²'")


def test_literal_past_the_digit_limit_exits_1(tmp_path, capsys):
    # Python refuses to convert integers of more than 4300 digits
    code = main(["solve", write(tmp_path, "vars: u\nu[i] = u[i-1] + "
                                + "1" * 5000 + "\n")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("parse error: line 2, column 17: literal too long")
    assert "Traceback" not in err


def test_missing_input_exits_1(tmp_path, capsys):
    code = main(["solve", str(tmp_path / "absent.rec")])
    assert code == 1
    assert "cannot read input" in capsys.readouterr().err


NOT_UTF8 = b"vars: u\nu[i] = \xff2*u[i-1]\n"


def assert_not_utf8_refused(code, capsys, name):
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"cannot read input: {name!r} is not UTF-8")
    assert captured.err.count("\n") == 1


def test_input_that_is_not_utf8_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.rec"
    path.write_bytes(NOT_UTF8)
    assert_not_utf8_refused(main(["solve", str(path)]), capsys, str(path))


def test_stdin_that_is_not_utf8_exits_1(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(NOT_UTF8)))
    assert_not_utf8_refused(main(["solve", "-"]), capsys, "-")


def test_solution_file_that_is_not_utf8_exits_1(tmp_path, capsys):
    sol = tmp_path / "solution.json"
    sol.write_bytes(b'{"order": "\xff"}')
    code = main(["verify", write(tmp_path, LOGISTIC), "--solution", str(sol)])
    assert_not_utf8_refused(code, capsys, str(sol))


def test_matrix_file_that_is_not_utf8_exits_1(tmp_path, capsys):
    matrix = tmp_path / "a.json"
    matrix.write_bytes(b"[[1, 0], [0, \xff1]]")
    code = main(["solve", write(tmp_path, COUPLED), "--matrix-a", str(matrix)])
    assert_not_utf8_refused(code, capsys, str(matrix))


def test_inadmissible_shift_exits_2(tmp_path, capsys):
    code = main(["solve", write(tmp_path, CUBIC), "--shift", "none",
                 "--order", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert "admissibility" in err
    assert "(0,) and (1,)" in err


def test_unshiftable_exact_system_suggests_alternatives(tmp_path, capsys):
    # no rational fixed point, so exact auto-shift has nothing to try
    code = main(["solve", write(tmp_path, FIB), "--order", "2"])
    assert code == 2
    assert "supply --shift or use --mode float" in capsys.readouterr().err


def test_refused_candidate_names_its_reason(tmp_path, capsys):
    # the origin is a fixed point, but its eigenvalues are irrational
    code = main(["solve", write(tmp_path, FIB), "--order", "2"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: shift: no fixed point gives")
    assert ("(candidates tried: [0, 0]: the linear part has irrational or "
            "complex eigenvalues;") in captured.err
    # a candidate refused by colliding products has no note to add
    main(["solve", write(tmp_path, "vars: u\nu[i] = -1*u[i-1]\n"),
          "--order", "2"])
    assert "(candidates tried: [0]);" in capsys.readouterr().err


def test_unshiftable_float_system_suggests_shift_or_lower_order(tmp_path,
                                                                capsys):
    # the only fixed point has eigenvalue -1, and (-1)^2 collides with 1
    path = write(tmp_path, "vars: u\nu[i] = -1*u[i-1]\n")
    code = main(["solve", path, "--order", "2", "--mode", "float"])
    assert code == 2
    err = capsys.readouterr().err
    assert "supply --shift or a lower --order" in err
    assert "--mode float" not in err
    assert main(["solve", path, "--order", "1", "--mode", "float"]) == 0


def test_exact_colliding_products_suggest_lower_order(tmp_path, capsys):
    # every candidate was compared and collided, and float mode refuses
    # the same system, so switching modes is no remedy
    path = write(tmp_path, "vars: u\nu[i] = -1*u[i-1]\n")
    assert main(["solve", path, "--order", "2"]) == 2
    err = capsys.readouterr().err
    assert "supply --shift or a lower --order" in err
    assert "--mode float" not in err


def test_float_double_root_is_refused_like_exact(tmp_path, capsys):
    # u + u^2 = u has a double root at 0 with eigenvalue 1; Newton lands
    # about 1e-8 off it, where the eigenvalue is 1 - 7e-8
    path = write(tmp_path, "vars: u\nu[i] = u[i-1] + u[i-1]^2\n")
    code = main(["solve", path, "--mode", "float", "--order", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: shift: no fixed point gives distinct")
    assert "supply --shift or a lower --order" in err
    assert main(["solve", path, "--mode", "exact", "--order", "2"]) == 2


DOUBLE_ROOT = "vars: u\nu[i] = u[i-1] + u[i-1]^2\n"
# at the origin the linear part [[3, 1], [-1, 1]] is a Jordan block: 2 is
# a double eigenvalue with a single eigenvector
JORDAN = ("vars: u, v\n"
          "u[i] = 3*u[i-1] + v[i-1] + u[i-1]^2\n"
          "v[i] = -1*u[i-1] + v[i-1] + v[i-1]^2\n")


def test_float_double_eigenvalue_collides(tmp_path, capsys):
    # the root finder splits the double eigenvalue by about 1e-8, more
    # than the product tolerance; the origin is refused as in exact mode
    path = write(tmp_path, JORDAN)
    assert main(["transform", path, "--order", "3", "--mode", "float"]) == 0
    lines = capsys.readouterr().out.splitlines()
    origin = next(i for i, line in enumerate(lines)
                  if line.startswith("  shift [0.0, 0.0]: "))
    assert lines[origin].startswith("  shift [0.0, 0.0]: FAIL (")
    assert lines[origin + 1].startswith("    collision: (1, 0) and (0, 1) ")
    assert main(["verify", path, "--order", "3", "--mode", "float"]) == 0
    assert "result: PASS" in capsys.readouterr().out


def test_float_defective_linear_part_exits_2(tmp_path, capsys):
    code = main(["solve", write(tmp_path, JORDAN), "--mode", "float",
                 "--shift", "0,0"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: triangularize: the linear part is defective")


def test_float_complex_spectrum_verifies(tmp_path, capsys):
    path = write(tmp_path, "vars: u, v\nu[i] = 1/2*u[i-1] - v[i-1] + u[i-1]^2\n"
                 "v[i] = u[i-1] + 1/2*v[i-1] + u[i-1]*v[i-1]\n")
    assert main(["verify", path, "--mode", "float"]) == 0
    assert "result: PASS" in capsys.readouterr().out


# eigenvalues 2, 2 and 3 with three eigenvectors: a diagonalizable double
# eigenvalue, whose float roots come out about 4e-8 apart
DOUBLE_EIGENVALUE = ("vars: u, v, w\n"
                     "u[i] = 7/3*u[i-1] + 2/3*w[i-1] + u[i-1]^2\n"
                     "v[i] = -1/3*u[i-1] + 2*v[i-1] - 2/3*w[i-1]\n"
                     "w[i] = 1/3*u[i-1] + 8/3*w[i-1]\n")


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_double_eigenvalue_names_the_collision(tmp_path, capsys, mode):
    path = write(tmp_path, DOUBLE_EIGENVALUE)
    assert main(["solve", path, "--mode", mode, "--shift", "0,0,0",
                 "--order", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: admissibility: eigenvalue products collide")
    assert "(1, 0, 0) and (0, 1, 0) both give 2;" in err


# the exact rational-root search would trial-divide up to 1.4e7 and 1e9,
# or test 6720 * 6720 candidate roots
LONG_COEFFICIENTS = [
    ("vars: u\nu[i] = 0.123456789012345*u[i-1]^2 + 1/2*u[i-1] + 1/10\n",
     "a 14-digit coefficient needs over 1000000 trial divisions", 0),
    ("vars: u\nu[i] = 1000000000000000003*u[i-1]^2 + 1\n",
     "a 19-digit coefficient needs over 1000000 trial divisions", 2),
    ("vars: u\nu[i] = 963761198400*u[i-1]^2 + 963761198400\n",
     "45158400 candidates exceed 1000000", 0),
]


@pytest.mark.parametrize("text, reason, float_exit", LONG_COEFFICIENTS)
def test_long_coefficients_end_the_root_search(tmp_path, capsys, text, reason,
                                               float_exit):
    path = write(tmp_path, text)
    start = time.perf_counter()
    assert main(["solve", path, "--order", "3"]) == 2
    assert capsys.readouterr().err == (
        f"error: rational root search: {reason}; use --mode float\n")
    # the exact twin refuses alike, and the float route gives the answer
    assert main(["solve", path, "--order", "3", "--mode", "float"]) == float_exit
    err = capsys.readouterr().err
    assert err == "" if float_exit == 0 else err.startswith("error: shift: ")
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_transform_lists_refused_candidates_then_exits_2(tmp_path, capsys,
                                                         mode):
    path = write(tmp_path, DOUBLE_ROOT)
    code = main(["transform", path, "--order", "2", "--mode", mode])
    assert code == 2
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == "candidates:"
    refused = [l for l in lines if l.startswith("  shift [")]
    assert refused and all(": FAIL (eigenvalues" in l for l in refused)
    assert "    collision: (0,) and (1,) both give" in captured.out
    assert "chosen shift" not in captured.out
    assert captured.err.startswith("error: shift: no fixed point gives")

    code = main(["transform", path, "--order", "2", "--mode", mode,
                 "--format", "json"])
    assert code == 2
    captured = capsys.readouterr()
    data = json.loads(captured.out)
    assert list(data) == ["candidates"]
    assert len(data["candidates"]) == len(refused)
    for cand in data["candidates"]:
        assert cand["admissible"] is False
        assert cand["collisions"][0]["monomials"] == [[0], [1]]
    assert captured.err.startswith("error: shift: no fixed point gives")


def test_transform_with_pinned_shift_lists_refused_candidates(tmp_path,
                                                              capsys):
    code = main(["transform", write(tmp_path, DOUBLE_ROOT), "--order", "2",
                 "--shift", "0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "(none:" not in out
    assert "  shift [0]: FAIL (eigenvalues 1)" in out
    assert "    collision: (0,) and (2,) both give 1" in out
    assert "chosen shift: [0]" in out


def test_order_defaults_to_six(tmp_path, capsys):
    code = main(["solve", write(tmp_path, LOGISTIC)])
    assert code == 0
    assert capsys.readouterr().out.startswith("order: 6\n")


def test_order_zero_rejected(tmp_path, capsys):
    code = main(["solve", write(tmp_path, LOGISTIC), "--order", "0"])
    assert code == 2
    assert "--order" in capsys.readouterr().err


def test_bad_inline_matrix_exits_2(tmp_path, capsys):
    code = main(["solve", write(tmp_path, COUPLED), "--order", "2",
                 "--matrix-a", "[[1,2],"])
    assert code == 2
    assert "--matrix-a" in capsys.readouterr().err


@pytest.mark.parametrize("entry", ['"abc"', '"1/0"', "9" * 5000],
                         ids=["letters", "zero-denominator", "5000-digits"])
def test_unreadable_inline_matrix_entry_exits_2(tmp_path, capsys, entry):
    code = main(["solve", write(tmp_path, COUPLED), "--order", "2",
                 "--matrix-a", f"[[1,{entry}],[0,1]]"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_inline_matrix_number_past_the_digit_limit_exits_2(tmp_path, capsys):
    # valid JSON, but Python refuses to convert integers of more than 4300
    # digits, and its advice names a call the CLI user cannot make
    code = main(["solve", write(tmp_path, COUPLED), "--order", "2",
                 "--matrix-a", f"[[1,{'9' * 5000}],[0,1]]"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --matrix-a: number too long (5000 digits)\n"


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_matrix_string_past_the_digit_limit_is_named_by_its_length(
        tmp_path, capsys, mode):
    # a JSON string entry reaches Fraction, not the integer hook
    code = main(["solve", write(tmp_path, COUPLED), "--order", "2",
                 "--mode", mode, "--matrix-a", f'[[1,"{"9" * 5000}"],[0,1]]'])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: cannot read '{'9' * 24}...' as a scalar: "
                            "number too long (5000 digits)\n")


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_shift_past_the_digit_limit_is_named_by_its_length(
        tmp_path, capsys, mode):
    code = main(["solve", write(tmp_path, COUPLED), "--order", "2",
                 "--mode", mode, "--shift", "9" * 5000 + ",0"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: cannot read '{'9' * 24}...' as a scalar: "
                            "number too long (5000 digits)\n")


def test_float_shift_past_the_double_range_exits_2(tmp_path, capsys):
    # its digits pass the limit too, so the message names its size
    code = main(["solve", write(tmp_path, COUPLED), "--order", "2",
                 "--mode", "float", "--shift", "1e5000,0"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: coefficient of about 1e5000 overflows "
                            "double precision\n")


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_matrix_number_past_the_double_range_is_out_of_range(
        tmp_path, capsys, mode):
    # json reads 1e400 as inf, a value the user never wrote
    code = main(["solve", write(tmp_path, COUPLED), "--order", "2",
                 "--mode", mode, "--matrix-a", "[[1,1e400],[0,1]]"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: cannot read a JSON number as a scalar: "
                            "number out of range (magnitude above 1.8e308)\n")
    assert "inf" not in captured.err


def test_unknown_flag_is_rejected(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", write(tmp_path, LOGISTIC), "--frobnicate"])
    assert exc.value.code == 2


# fixed point (-1/2, -1/3) with eigenvalues -3 and -4
NEGATIVE_FIXED_POINT = ("vars: u, v\n"
                        "u[i] = 5*u[i-1] + 8*u[i-1]^2\n"
                        "v[i] = 6*v[i-1] + 15*v[i-1]^2\n")


@pytest.mark.parametrize("argv, code, shown", [
    (["solve", "--order", "2", "--shift", "-1/2,-1/3"], 0, "shift: [-1/2, -1/3]"),
    (["verify", "--order", "2", "--shift", "-1/2,-1/3"], 0, "result: PASS"),
    (["solve", "--shift", "-1/2"], 2, ""),
    (["eval", "--index", "2", "--z0", "-1/2,-1/3"], 0, "u[2]: direct=-1/2"),
    (["eval", "--index", "2", "--z0", "-0.5,-1e-8"], 0, "v[2]: direct="),
], ids=["solve", "verify", "short-shift", "eval", "eval-decimal"])
def test_negative_flag_value_reads_like_the_joined_spelling(tmp_path, capsys,
                                                            argv, code, shown):
    # argparse reads a value such as -1/2 as an option unless it is
    # joined to its flag; both spellings must run alike
    path = write(tmp_path, NEGATIVE_FIXED_POINT)
    assert main([argv[0], path] + argv[1:]) == code
    spaced = capsys.readouterr()
    flag, value = argv[-2:]
    assert main([argv[0], path] + argv[1:-2] + [f"{flag}={value}"]) == code
    assert capsys.readouterr() == spaced
    assert shown in spaced.out
    assert bool(spaced.err) == bool(code)


@pytest.mark.parametrize("argv, message", [
    (["--z0", "1/2", "--shift", "-x"], "argument --shift: expected one argument"),
    (["--z0", "--frobnicate"], "argument --z0: expected one argument"),
    (["--z0", "-1/2", "--frobnicate"], "unrecognized arguments: --frobnicate"),
])
def test_an_option_after_a_value_flag_stays_a_usage_error(tmp_path, capsys,
                                                          argv, message):
    with pytest.raises(SystemExit) as exc:
        main(["eval", write(tmp_path, LOGISTIC), "--index", "1"] + argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert message in err


# -- configuration plumbing --------------------------------------------------


def test_stdin_input(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(LOGISTIC))
    code = main(["solve", "-", "--order", "2"])
    assert code == 0
    assert "u[i] = (2^i)*u[0] + (2^i - 4^i)*u[0]^2" in capsys.readouterr().out


def test_output_flag_writes_file(tmp_path, capsys):
    path = write(tmp_path, LOGISTIC)
    target = tmp_path / "report.txt"
    code = main(["solve", path, "--order", "3", "--output", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert main(["solve", path, "--order", "3"]) == 0
    assert target.read_text(encoding="utf-8") == capsys.readouterr().out


def test_unwritable_output_is_reported_as_such(tmp_path, capsys):
    path = write(tmp_path, LOGISTIC)
    target = tmp_path / "no-such-dir" / "report.txt"
    code = main(["solve", path, "--order", "2", "--output", str(target)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("cannot write output: [Errno 2] No such file or "
                            f"directory: {str(target)!r}\n")


def test_matrix_a_accepts_file_path(tmp_path, capsys):
    path = write(tmp_path, COUPLED)
    mat = tmp_path / "a.json"
    mat.write_text("[[1, 2], [-3, -5]]")
    assert main(["solve", path, "--order", "2", "--matrix-a", str(mat),
                 "--format", "json"]) == 0
    from_file = capsys.readouterr().out
    assert main(["solve", path, "--order", "2",
                 "--matrix-a", "[[1,2],[-3,-5]]", "--format", "json"]) == 0
    assert from_file == capsys.readouterr().out


def test_repeated_runs_are_byte_identical(tmp_path, capsys):
    path = write(tmp_path, COUPLED)
    argv = ["solve", path, "--order", "2", "--matrix-a", "[[1,2],[-3,-5]]",
            "--format", "json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
