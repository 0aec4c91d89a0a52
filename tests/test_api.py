"""The package namespace: pinned, and sufficient for the benchmark scripts."""

import ast
import importlib
import os
import re

import wmixgof
import wmixgof.cli  # noqa: F401  (makes the submodule an attribute, as perfbench sees it)

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_public_names_are_pinned():
    assert sorted(wmixgof.__all__) == [
        "AllStartsFailed",
        "ConvergenceError",
        "DomainError",
        "EigenSolverFailure",
        "FitConfig",
        "FitResult",
        "GofOutcome",
        "MixtureParams",
        "NonFiniteHessian",
        "NonFiniteKernel",
        "PopulationSpec",
        "QuadratureFailure",
        "Sample",
        "SingularInformation",
        "StudyAborted",
        "StudyResult",
        "TooFewObservations",
        "WeightedChiSquare",
        "WmixgofError",
        "__version__",
        "ad_statistic_uniform",
        "ad_uniformity_pvalue",
        "benchmark_populations",
        "build_q_matrix",
        "cvm_statistic",
        "eigen_spectrum",
        "fit_mle",
        "gof_test",
        "hessian_at",
        "imhof_tail",
        "pit",
        "run_study",
        "sample_mixture",
        "simple_hypothesis_lambdas",
    ]
    assert all(hasattr(wmixgof, name) for name in wmixgof.__all__)


def _wmixgof_names(path):
    """(module, name) for each name the script imports from wmixgof or reads as wmixgof.X."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "wmixgof":
            found += [(node.module, alias.name) for alias in node.names]
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "wmixgof"
        ):
            found.append(("wmixgof", node.attr))
    return found


def test_benchmark_scripts_find_every_name_they_use():
    used = [
        (script, module, name)
        for script in ("workloads.py", "worker.py")
        for module, name in _wmixgof_names(os.path.join(PERFBENCH, script))
    ]
    assert {script for script, _, _ in used} == {"workloads.py", "worker.py"}
    missing = [
        (script, f"{module}.{name}")
        for script, module, name in used
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []


def test_traced_benchmark_chain_reproduces_the_untraced_op(monkeypatch):
    # perfbench fails an op whose traced chain gives another p-value than
    # the untraced op; this is the one place the suite runs that chain.
    monkeypatch.syspath_prepend(PERFBENCH)
    from spans import Tracer
    from workloads import OpRecord, StudyN100, TestN1000M1000

    study = StudyN100()
    for j in range(5):
        traced, untraced = study.traced(j, Tracer()), study.run(j)
        assert traced.status == untraced.status == "ok"
        assert traced.p_value == untraced.p_value

    cli_workload = TestN1000M1000()
    s_sample, s_cmd = cli_workload.input_seeds(0)
    theta = cli_workload.populations[0].theta
    sample = wmixgof.sample_mixture(theta, cli_workload.sample_size, s_sample)
    config = wmixgof.FitConfig(seed=s_cmd)
    rec = OpRecord(0)
    cli_workload.fitted_chain(rec, sample, config, Tracer())
    outcome = wmixgof.gof_test(sample, s_cmd, cli_workload.grid_size)
    assert rec.p_value == outcome.p_value


def test_native_code_is_reached_through_one_module():
    # ctypes bindings and scipy stay behind wmixgof._native, and no module
    # reaches into the fitter's private names.
    package = os.path.dirname(os.path.abspath(wmixgof.__file__))
    native, private = set(), []
    for filename in sorted(f for f in os.listdir(package) if f.endswith(".py")):
        with open(os.path.join(package, filename), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=filename)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [] if node.level else [node.module]
                if (node.level, node.module) in ((1, "estimation"), (0, "wmixgof.estimation")):
                    private += [a.name for a in node.names if a.name.startswith("_")]
            else:
                continue
            if any(module.split(".")[0] in ("ctypes", "scipy") for module in modules):
                native.add(filename)
    assert native == {"_native.py"}
    assert private == []


def _used_names(path, skip_reexports):
    """Names the module at ``path`` loads, reads as attributes or imports.

    With ``skip_reexports``, for the package's ``__init__``, imports do not count.
    """
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and not skip_reexports:
            used.update(alias.name.split(".")[-1] for alias in node.names)
    return used


def test_every_public_name_has_a_caller():
    # A public name must be used outside the tests: by the package itself,
    # by perfbench or in the README. Definitions and __all__ entries are no
    # use, since they are not loads, and neither are __init__'s re-exports.
    package = os.path.dirname(os.path.abspath(wmixgof.__file__))
    modules = sorted(f[:-3] for f in os.listdir(package) if f.endswith(".py"))
    public = {("wmixgof", name) for name in wmixgof.__all__}
    for module in modules:
        if module != "__init__":
            names = getattr(importlib.import_module(f"wmixgof.{module}"), "__all__", [])
            public |= {(f"wmixgof.{module}", name) for name in names}
    used = set()
    for module in modules:
        used |= _used_names(os.path.join(package, f"{module}.py"), module == "__init__")
    for script in sorted(f for f in os.listdir(PERFBENCH) if f.endswith(".py")):
        used |= _used_names(os.path.join(PERFBENCH, script), False)
    with open(os.path.join(os.path.dirname(PERFBENCH), "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    unused = sorted(
        f"{module}.{name}"
        for module, name in public
        if name not in used and not re.search(rf"\b{re.escape(name)}\b", readme)
    )
    assert unused == []
