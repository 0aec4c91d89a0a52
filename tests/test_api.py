"""The package namespace: pinned, and sufficient for the benchmark scripts."""

import ast
import importlib
import os

import wmixgof
import wmixgof.cli  # noqa: F401  (makes the submodule an attribute, as perfbench sees it)

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_public_names_are_pinned():
    assert sorted(wmixgof.__all__) == [
        "AllStartsFailed",
        "ConvergenceError",
        "DegenerateInput",
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
