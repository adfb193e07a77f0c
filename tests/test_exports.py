"""The package's public names: every exported name resolves."""

import ast
import inspect
from pathlib import Path

import fragma
from fragma.baselines import fit_method


def test_every_exported_name_resolves():
    missing = [name for name in fragma.__all__ if not hasattr(fragma, name)]
    assert missing == []
    assert len(set(fragma.__all__)) == len(fragma.__all__)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from fragma import *", namespace)
    assert set(fragma.__all__) <= set(namespace)


def test_no_function_taking_a_store_takes_a_pattern_index():
    # A method of a run reads its patterns off store.index, so it cannot be
    # handed the index of other data.
    offenders = []
    for f in [getattr(fragma, name) for name in fragma.__all__] + [fit_method]:
        if inspect.isfunction(f):
            params = inspect.signature(f).parameters
            if "store" in params and "index" in params:
                offenders.append(f.__name__)
    assert offenders == []


def test_only_fit_glm_takes_fit_options():
    # Every candidate is fitted at FitOptions()'s budget: no store, method or
    # candidate fit can be handed other options.
    from fragma.baselines import lambda_max_group_lasso
    from fragma.glm import fit_all_candidates

    functions = [getattr(fragma, name) for name in fragma.__all__]
    functions += [fit_method, fit_all_candidates, lambda_max_group_lasso]
    taking = sorted(
        f.__name__ for f in functions
        if (inspect.isfunction(f) or inspect.isclass(f) and not issubclass(f, Exception))
        and "opts" in inspect.signature(f).parameters
    )
    assert taking == ["fit_glm"]


def test_only_the_model_combines_coefficients():
    # AveragedModel derives beta_combined from its candidates and weights;
    # no other module computes a combined coefficient vector of its own.
    def names(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr
            elif isinstance(node, ast.alias):
                yield node.name
            elif isinstance(node, ast.FunctionDef):
                yield node.name

    modules = sorted(Path(fragma.__file__).parent.glob("*.py"))
    assert modules
    naming = [m.name for m in modules
              if "combine_coefficients" in names(ast.parse(m.read_text()))]
    assert naming == ["averaging.py"]


def test_only_io_parses_json():
    # fragma.io reads every JSON file the program loads (the groups sidecar
    # and model.json); no other module parses JSON of its own.
    def parses_json(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id == "json" and node.attr in ("load", "loads"):
                    return True
            elif isinstance(node, ast.ImportFrom) and node.module == "json":
                if {alias.name for alias in node.names} & {"load", "loads"}:
                    return True
        return False

    modules = sorted(Path(fragma.__file__).parent.glob("*.py"))
    assert modules
    assert [m.name for m in modules if parses_json(ast.parse(m.read_text()))] == ["io.py"]


def test_only_glm_reads_the_machine_epsilon():
    # glm.roundoff is the slack of every descent test (IRLS, the weight
    # optimizer, the group lasso) and glm's rank rule the only other use of
    # eps, so no other module writes a roundoff rule of its own.
    def reads_epsilon(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ("finfo", "float_info"):
                return True
            if isinstance(node, ast.ImportFrom) and node.module in ("numpy", "sys"):
                if {alias.name for alias in node.names} & {"finfo", "float_info"}:
                    return True
        return False

    modules = sorted(Path(fragma.__file__).parent.glob("*.py"))
    assert modules
    assert [m.name for m in modules if reads_epsilon(ast.parse(m.read_text()))] == ["glm.py"]


def test_a_family_declares_only_its_cumulant_link_and_support():
    # The dispersion is 1 in every family, so no formula divides by one, and
    # b'' is V(b'(theta)), read through ``variance``.
    from dataclasses import fields

    from fragma.glm import ExponentialFamily

    assert [f.name for f in fields(ExponentialFamily)] == [
        "name", "b", "b_prime", "variance", "theta_from_mean", "support"
    ]
    modules = sorted(Path(fragma.__file__).parent.glob("*.py"))
    assert modules
    reading = [
        (m.name, node.attr)
        for m in modules
        for node in ast.walk(ast.parse(m.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in ("phi", "b_double_prime")
    ]
    assert reading == []


def test_only_patterns_and_averaging_split_rows_by_pattern():
    # Besides the pattern index, only averaging.score_rows groups rows by
    # pattern; the CLI and the rest of the package score through it.
    modules = sorted(Path(fragma.__file__).parent.glob("*.py"))
    naming = [m.name for m in modules if "split_rows_by_pattern" in m.read_text()]
    assert naming == ["averaging.py", "patterns.py"]


def test_only_io_hashes_saves_or_loads_files():
    # fragma.io alone writes and reads the fit's saved run, training.npy and
    # the record naming it by its SHA-256; no other module hashes a file or
    # saves or loads an array.
    modules = sorted(Path(fragma.__file__).parent.glob("*.py"))
    naming = [m.name for m in modules if any(
        name in m.read_text() for name in ("hashlib", "np.save", "np.load", "read_array")
    )]
    assert naming == ["io.py"]


def test_every_function_the_bench_wraps_is_bound_in_fragma(monkeypatch):
    # bench/spans.py's Probe raises when a function it wraps is renamed or
    # bound in no fragma module; load it by path (writing no bytecode under
    # bench/) and install every wrapper.
    import importlib.util
    import sys

    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    probe = spans.Probe()
    try:
        probe.begin(trace=True)
    finally:
        probe.end()


def test_only_the_fitting_modules_evaluate_a_cumulant():
    # IRLS, the weight criterion, the group lasso and kl_loss evaluate b;
    # the CLI and the demos score through kl_loss, with no loss formula of
    # their own.
    def evaluates_b(tree):
        return any(
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "b"
            for node in ast.walk(tree)
        )

    modules = sorted(Path(fragma.__file__).parent.glob("*.py"))
    demos = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
    assert modules and demos
    evaluating = [m.name for m in modules + demos if evaluates_b(ast.parse(m.read_text()))]
    assert evaluating == ["averaging.py", "baselines.py", "glm.py"]


def _function(module, name):
    """The ``def`` of ``name`` in the fragma module ``module``."""
    tree = ast.parse((Path(fragma.__file__).parent / module).read_text())
    (node,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name]
    return node


def _called(node):
    """The names ``node`` calls, bare or as an attribute."""
    for call in ast.walk(node):
        if isinstance(call, ast.Call):
            func = call.func
            yield func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_fit_glm_evaluates_every_step_in_one_place():
    # Each IRLS iteration tries its steps in one loop, the decrement step
    # included: one log-likelihood evaluation per trial, through
    # _loglik_sums, and none through loglik.
    fit_glm = _function("glm.py", "fit_glm")
    (loop,) = [n for n in fit_glm.body if isinstance(n, ast.For)]
    assert list(_called(loop)).count("_loglik_sums") == 1
    assert "loglik" not in set(_called(fit_glm))


def test_fit_averaged_fits_only_the_candidates_it_weights():
    # fit_averaged chooses its candidates from the pattern index before any
    # fit, so it never fits every candidate of the index.
    assert "fit_all" not in set(_called(_function("averaging.py", "fit_averaged")))
