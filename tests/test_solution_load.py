"""Reading a stored solution: ClosedFormSolution.from_json against the
reader it replaced (oracles.solution_from_json), and what it reads once.

The two readers must build the same solution, field for field: the same
scalar types and values (float bits included), the same cell order and
the same terms. A payload one of them refuses, the other must refuse with
the same CarlemanError text. The package reader calls scalar_from_json
once per distinct string, and a transformed table equal to its variables
table is the same dict, not a second copy.
"""

import copy
import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import carleman.solver
from carleman import CarlemanError, SolveOptions, parse_system, solve
from carleman.cli import main
from carleman.scalars import Mode
from carleman.solver import ClosedFormSolution

from conftest import random_triangular_system
from oracles import solution_from_json
from test_pullback_oracle import conjugated_system, in_mode, unimodular

COUPLED = (
    "vars: u, v\n"
    "u[i] = 8*u[i-1] + 10*v[i-1] + u[i-1]^2 + 3*u[i-1]*v[i-1] + v[i-1]^2\n"
    "v[i] = -3*u[i-1] - 3*v[i-1] + u[i-1]^2 - u[i-1]*v[i-1] + v[i-1]^2\n")
COUPLED_A = [[1, 2], [-3, -5]]
# upper-triangular linear part: solved with the identity transform
TRI2 = ("vars: u, v\n"
        "u[i] = 2*u[i-1] + v[i-1] + v[i-1]^2\n"
        "v[i] = 3*v[i-1] + u[i-1]*v[i-1]\n")
# keeps TRI2's linear part upper triangular, so matrix=SHEAR is accepted
SHEAR = [[1, 1], [0, 1]]
# one file with an identity transform, one with a basis change
FILES = pytest.mark.parametrize("text, matrix", [(TRI2, None), (COUPLED, COUPLED_A)],
                                ids=["identity", "A"])
# x' = 1/2*x + x^2 written in u = x + 1: auto shift picks the fixed point 1
SHIFTED = "vars: u\nu[i] = u[i-1]^2 - 3/2*u[i-1] + 3/2\n"
# bases 1/2, 1/4, 1/8, ...: the identity transform, and a base to respell
HALVING = "vars: u\nu[i] = 1/2*u[i-1] + u[i-1]^2\n"
MODES = [Mode.EXACT, Mode.FLOAT]
SAMPLES = Path(__file__).resolve().parent.parent / "docs" / "samples"


def stored(text, mode, order=3, matrix=None):
    """The JSON payload `carleman solve --format json` writes."""
    system, names = parse_system(text, mode)
    solution = solve(system, SolveOptions(order=order, mode=mode,
                                          matrix=matrix), names)
    return json.loads(json.dumps(solution.to_json()))


def fields(solution):
    """Every field, each scalar by type and repr, tables in their order."""
    def scalars(values):
        return [(type(x).__name__, repr(x)) for x in values]

    def tables(entries):
        return [[(mono, exp_sum.mode, [scalars(term) for term in exp_sum.terms])
                 for mono, exp_sum in table.items()] for table in entries]
    transform = solution.transform
    return (solution.names, scalars(solution.offsets), tables(solution.tables),
            tables(solution.transformed), solution.order, solution.mode,
            [scalars(row) for row in transform.matrix], scalars(transform.offset),
            [scalars(row) for row in transform.matrix_inv], transform.mode)


def assert_same_as_old_reader(data):
    got = ClosedFormSolution.from_json(copy.deepcopy(data))
    assert fields(got) == fields(solution_from_json(copy.deepcopy(data)))
    return got


def assert_same_refusal(data):
    with pytest.raises(CarlemanError) as old:
        solution_from_json(copy.deepcopy(data))
    with pytest.raises(CarlemanError) as new:
        ClosedFormSolution.from_json(copy.deepcopy(data))
    assert str(new.value) == str(old.value)
    return str(new.value)


def expsums(data, table):
    """Every stored exp-sum list of one table ("variables"/"transformed")."""
    return [term["expsum"] for entry in data[table] for term in entry["terms"]]


# -- generated solutions ----------------------------------------------------------


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", range(4))
def test_random_solutions_read_as_before(mode, seed):
    rng = random.Random(seed)
    tri = random_triangular_system(rng, k=rng.choice((1, 2, 3)))
    identity = solve(in_mode(tri, mode), SolveOptions(order=4, mode=mode))
    assert identity.transform.is_identity()
    got = assert_same_as_old_reader(json.loads(json.dumps(identity.to_json())))
    assert all(t is s for t, s in zip(got.transformed, got.tables))
    tri2 = random_triangular_system(rng, k=2)
    a = unimodular(rng)
    conjugated = solve(in_mode(conjugated_system(tri2, a), mode),
                       SolveOptions(order=4, mode=mode, matrix=a))
    assert not conjugated.transform.is_identity()
    assert_same_as_old_reader(json.loads(json.dumps(conjugated.to_json())))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("text, matrix", [
    (COUPLED, None), (COUPLED, COUPLED_A), (TRI2, None), (TRI2, SHEAR),
    (SHIFTED, None), (HALVING, None)],
    ids=["coupled", "coupled-A", "tri2", "tri2-A", "shifted", "halving"])
def test_sample_solutions_read_as_before(mode, text, matrix):
    data = stored(text, mode, matrix=matrix)
    if text is SHIFTED:
        assert data["transform"]["B"] != (["0"] if mode is Mode.EXACT
                                          else [[0.0, 0.0]])
    got = assert_same_as_old_reader(data)
    if data["transformed"] == [{"name": v["name"], "terms": v["terms"]}
                               for v in data["variables"]]:
        assert all(t is s for t, s in zip(got.transformed, got.tables))


# -- hand-edited payloads ---------------------------------------------------------


@pytest.mark.parametrize("table", ["variables", "transformed", "both"])
def test_shuffled_terms_read_as_before(table):
    data = stored(COUPLED, Mode.EXACT, order=4, matrix=COUPLED_A)
    rng = random.Random(5)
    for name in (("variables", "transformed") if table == "both" else (table,)):
        for entry in data[name]:
            rng.shuffle(entry["terms"])
        for exp_sum in expsums(data, name):
            rng.shuffle(exp_sum)
    assert_same_as_old_reader(data)


@pytest.mark.parametrize("spelling", ["1/2", "2/4", "0.5", 0.5, "1/2 ",
                                      " 1/2", "+1/2", "01/02", "5e-1"])
@pytest.mark.parametrize("table", ["variables", "transformed"])
def test_respelt_base_reads_as_before(spelling, table):
    data = stored(HALVING, Mode.EXACT, order=4)
    bases = [term for exp_sum in expsums(data, table) for term in exp_sum
             if term["base"] == "1/2"]
    assert bases
    bases[0]["base"] = spelling
    got = assert_same_as_old_reader(data)
    assert (got.transformed[0] is got.tables[0]) == (spelling == "1/2")


@pytest.mark.parametrize("table", ["variables", "transformed"])
def test_zero_and_cancelling_terms_read_as_before(table):
    data = stored(HALVING, Mode.EXACT, order=4)
    sums = expsums(data, table)
    first = sums[0][0]
    sums[0].append({"base": "7", "coeff": "0"})
    sums[0].append({"base": "9", "coeff": "-0/5"})
    sums[1].append({"base": first["base"], "coeff": "3"})
    sums[1].append({"base": first["base"], "coeff": "-3"})
    # a cell whose two terms cancel is an empty sum under both readers
    sums[2].append({"base": sums[2][0]["base"],
                    "coeff": str(-Fraction(sums[2][0]["coeff"]))})
    assert_same_as_old_reader(data)


def test_float_solution_with_exact_text_reads_as_before():
    data = stored(COUPLED, Mode.FLOAT, matrix=COUPLED_A)
    sums = expsums(data, "transformed")
    sums[0][0]["coeff"] = "1/3"
    sums[1][0]["base"] = 2
    sums[1].append({"base": [5.0, 0.0], "coeff": [0.0, 0.0]})
    assert_same_as_old_reader(data)


DELETE = object()


def edit(data, path, value):
    """Set (or, for DELETE, remove) the entry at path in data."""
    node = data
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value


BAD_ENTRIES = {
    "letters": "abc",
    "zero-denominator": "1/0",
    "5000-digits": "9" * 5000,
    "long-denominator": "1/" + "9" * 5000,
    "bool": True,
    "pair-in-exact": [1, 0],
    "nan": float("nan"),
    "inf": float("inf"),
    "dict": {},
}


@pytest.mark.parametrize("table", ["variables", "transformed"])
@FILES
@pytest.mark.parametrize("bad", list(BAD_ENTRIES), ids=list(BAD_ENTRIES))
def test_bad_scalar_refused_as_before(table, text, matrix, bad):
    data = stored(text, Mode.EXACT, matrix=matrix)
    expsums(data, table)[-1][-1]["coeff"] = BAD_ENTRIES[bad]
    assert assert_same_refusal(data).startswith("cannot read")


@pytest.mark.parametrize("path, value", [
    (("transformed", 1, "terms"), DELETE),
    (("transformed", 0, "terms", 0, "monomial"), DELETE),
    (("transformed", 0, "terms", 0, "expsum"), "2"),
    (("transformed", 0, "terms", 0, "monomial"), [[1], 0]),
    (("transformed", 1), "v"),
    (("transformed",), 3),
    (("variables", 1, "terms", 0, "expsum", 0, "base"), DELETE),
    (("transform", "B"), DELETE),
])
@FILES
def test_malformed_payload_refused_as_before(path, value, text, matrix):
    data = stored(text, Mode.EXACT, matrix=matrix)
    edit(data, path, value)
    assert assert_same_refusal(data).startswith("malformed solution JSON")


@pytest.mark.parametrize("order", [0, -2, "0"], ids=["0", "-2", "text-0"])
def test_order_below_one_refused(tmp_path, capsys, order):
    # verify truncates its oracle at the stored order, which must be >= 1
    # as --order must; the reader it replaced took any integer
    sample = str(SAMPLES / "logistic_r2.rec")
    sol = tmp_path / "solution.json"
    assert main(["solve", sample, "--format", "json", "--output", str(sol)]) == 0
    data = json.loads(sol.read_text())
    data["order"] = order
    reason = f"malformed solution JSON: order must be >= 1, got {int(order)}"
    with pytest.raises(CarlemanError) as refused:
        ClosedFormSolution.from_json(copy.deepcopy(data))
    assert str(refused.value) == reason
    sol.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", sample, "--solution", str(sol)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {reason}\n")


@FILES
def test_bad_scalar_before_a_missing_entry_refused_as_before(text, matrix):
    # the first transformed entry is read before the second is looked at
    data = stored(text, Mode.EXACT, matrix=matrix)
    expsums(data, "transformed")[0][0]["coeff"] = "abc"
    del data["transformed"][1]["terms"]
    assert assert_same_refusal(data).startswith("cannot read 'abc'")


@pytest.mark.parametrize("value, reason", [
    ([float("nan"), 0.0], "not a number"),
    ([1.0, float("inf")], "number out of range"),
    (float("nan"), "not a number"),
    ([1, 2, 3], "pair must have 2 entries"),
    (["1", "x"], "could not convert"),
])
def test_bad_float_scalar_refused_as_before(value, reason):
    data = stored(COUPLED, Mode.FLOAT, matrix=COUPLED_A)
    expsums(data, "transformed")[0][0]["coeff"] = value
    assert reason in assert_same_refusal(data)


# -- what is read once -------------------------------------------------------------


def scalar_strings(data):
    """Every string in a scalar slot of a stored solution."""
    values = [entry["offset"] for entry in data["variables"]]
    values += [x for row in data["transform"]["A"] for x in row]
    values += data["transform"]["B"]
    for table in ("variables", "transformed"):
        for exp_sum in expsums(data, table):
            values += [x for term in exp_sum for x in (term["base"], term["coeff"])]
    return [x for x in values if isinstance(x, str)]


def counted_load(monkeypatch, data):
    calls = Counter()
    original = carleman.solver.scalar_from_json

    def counting(mode, value):
        calls[value if isinstance(value, str) else repr(value)] += 1
        return original(mode, value)
    monkeypatch.setattr(carleman.solver, "scalar_from_json", counting)
    return ClosedFormSolution.from_json(data), calls


def test_each_distinct_string_read_once(monkeypatch):
    data = stored(COUPLED, Mode.EXACT, order=6, matrix=COUPLED_A)
    strings = scalar_strings(data)
    assert len(set(strings)) < len(strings)
    solution, calls = counted_load(monkeypatch, data)
    assert set(calls) == set(strings)
    assert max(calls.values()) == 1
    assert not solution.transform.is_identity()
    assert all(t is not s for t, s in zip(solution.transformed, solution.tables))


def test_float_pairs_read_every_time(monkeypatch):
    data = stored(TRI2, Mode.FLOAT, order=3)
    solution, calls = counted_load(monkeypatch, data)
    assert sum(calls.values()) == (
        len(data["variables"]) + 4 + 2
        + 2 * sum(len(s) for s in expsums(data, "variables")))
    assert all(t is s for t, s in zip(solution.transformed, solution.tables))


@pytest.mark.parametrize("text, matrix", [
    (TRI2, None), (HALVING, None), (TRI2, SHEAR), (COUPLED, None)],
    ids=["tri2", "halving", "tri2-A", "coupled"])
def test_identity_file_shares_its_tables(monkeypatch, text, matrix):
    data = stored(text, Mode.EXACT, order=5, matrix=matrix)
    solution, _calls = counted_load(monkeypatch, data)
    identity = text is not COUPLED and matrix is None
    assert solution.transform.is_identity() == identity
    assert all((t is s) == identity
               for t, s in zip(solution.transformed, solution.tables))


@FILES
@pytest.mark.parametrize("value, message", [
    ("abc", "cannot read 'abc' as a scalar"),
    (DELETE, "malformed solution JSON"),
])
def test_bad_transformed_table_alone_is_refused(monkeypatch, text, matrix,
                                                value, message):
    data = stored(text, Mode.EXACT, matrix=matrix)
    assert (data["transform"]["A"] == [["1", "0"], ["0", "1"]]) == (matrix is None)
    term = data["transformed"][-1]["terms"][-1]
    if value is DELETE:
        del term["monomial"]
    else:
        term["expsum"][-1]["coeff"] = value
    with pytest.raises(CarlemanError, match=message):
        counted_load(monkeypatch, data)


@pytest.mark.parametrize("text, matrix", [
    (TRI2, None), (COUPLED, COUPLED_A), (HALVING, None), (SHIFTED, None)],
    ids=["identity", "A", "halving", "shifted"])
def test_canonical_file_loads_without_sorting(monkeypatch, text, matrix):
    # to_json writes every exact sum canonical, so from_terms keeps each
    # as given; a shuffled sum still goes through the sort
    data = stored(text, Mode.EXACT, order=5, matrix=matrix)
    calls = Counter()
    original = carleman.solver.sort_key

    def counting(value):
        calls["sort_key"] += 1
        return original(value)
    monkeypatch.setattr(carleman.solver, "sort_key", counting)
    assert_same_as_old_reader(data)
    assert calls["sort_key"] == 0
    shuffled = max(expsums(data, "variables"), key=len)
    assert len(shuffled) > 1
    shuffled.reverse()
    assert_same_as_old_reader(data)
    assert calls["sort_key"] == len(shuffled)
