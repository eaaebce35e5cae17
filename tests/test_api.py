"""The package's exported names and the options it accepts."""

import dataclasses
import inspect
import re
from pathlib import Path

import carleman
import carleman.cli
import carleman.embedding
import carleman.errors
import carleman.linalg
import carleman.parser
import carleman.poly
import carleman.scalars
import carleman.solver
import carleman.systems
import carleman.triangular

README = Path(__file__).resolve().parent.parent / "README.md"

DELETED = (
    "eval_closed_form", "mode_of", "scalar_abs", "CoeffArrays",
    "coeff_arrays", "state_width", "inverse", "unapply_point", "apply_point",
    "roots_univariate", "substitute_affine", "multinomial_entry",
    "kron_index_monomial", "power", "determinant", "copy_matrix",
    "sparse_is_upper_triangular", "coefficient", "truncated", "max_degree",
    "size", "_wrap", "collision_tol", "unity_bound", "shift_seeds",
    "ExpSumAccumulator", "_base_rank", "_householder_step", "_float_nullvector",
    "total_degree", "parse", "lower", "SystemNode", "EquationNode",
    "NumberNode", "VarRefNode", "BinaryNode", "PowerNode", "walk",
    "_default_order", "_ORDER_ENV", "compose", "_split_sign", "_is_negative",
    "_render_initial_monomial", "_render_monomial", "_vector_inline",
    "_load_system", "oracle_iterate_symbolic",
)

OWNERS = (
    carleman, carleman.cli, carleman.embedding, carleman.linalg,
    carleman.parser, carleman.poly, carleman.scalars, carleman.solver,
    carleman.systems, carleman.triangular,
    carleman.embedding.CarlemanMatrix, carleman.poly.Poly,
    carleman.solver.SolveOptions, carleman.systems.PolySystem,
    carleman.systems.TransformParams,
    carleman.triangular.SpectralDecomposition,
)


def library_section() -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index("## Library")
    return text[start:text.index("\n## ", start + 1)]


def test_every_exported_name_imports():
    namespace = {}
    exec("from carleman import *", namespace)
    for name in carleman.__all__:
        assert getattr(carleman, name) is namespace[name]
    assert len(set(carleman.__all__)) == len(carleman.__all__)


def test_exports_are_the_documented_api_and_the_error_classes():
    documented = set(re.findall(r"[A-Za-z_]\w*", library_section()))
    errors = {name for name, value in vars(carleman.errors).items()
              if isinstance(value, type)
              and issubclass(value, carleman.errors.CarlemanError)}
    assert errors <= set(carleman.__all__)
    for name in set(carleman.__all__) - errors:
        assert name in documented, name
    public = {name for name in vars(carleman) if not name.startswith("_")}
    submodules = {"cli", "embedding", "errors", "linalg", "parser", "poly",
                  "scalars", "solver", "systems", "triangular"}
    assert public - submodules == set(carleman.__all__)


def test_deleted_names_are_not_exported():
    for name in DELETED:
        assert name not in carleman.__all__
        for owner in OWNERS:
            assert not hasattr(owner, name), (owner, name)


def test_expsum_has_no_arithmetic():
    # Poly.scaled stays, so "scaled" cannot go in DELETED
    assert not hasattr(carleman.ExpSum, "scaled")
    assert "__add__" not in vars(carleman.ExpSum)


def test_solve_options_hold_only_what_the_cli_sets(monkeypatch):
    seen = []

    def recording(**kwargs):
        seen.append(kwargs)
        return carleman.SolveOptions(**kwargs)

    monkeypatch.setattr(carleman.cli, "SolveOptions", recording)
    args = carleman.cli._build_argparser().parse_args(["solve", "input.rec"])
    carleman.cli._options_from_args(args)
    fields = {f.name for f in dataclasses.fields(carleman.SolveOptions)}
    assert [set(kwargs) for kwargs in seen] == [fields]
    assert fields == {"order", "mode", "shift", "matrix", "seed"}


def test_removed_settings_stay_removed():
    def parameters(function):
        return list(inspect.signature(function).parameters)

    assert parameters(carleman.fixed_points) == ["system", "seed"]
    assert parameters(carleman.check_shift_admissible) == [
        "system", "max_power", "seed"]
    assert parameters(carleman.decompose) == ["matrix", "mode", "rows"]
    assert parameters(carleman.ExpSum.from_terms) == ["mode", "pairs"]
    assert parameters(carleman.systems.triangularize_linear) == [
        "system", "seed"]
    assert parameters(carleman.poly.complex_roots) == ["p", "seed"]
    assert parameters(carleman.systems._newton_fixed_point) == [
        "system", "start"]
    assert "opts" not in parameters(carleman.solver._assemble)
