import os
import subprocess
import sys

import numpy as np
import pytest

import wmixgof
from wmixgof import FitConfig, benchmark_populations, fit_mle, sample_mixture

POPULATIONS = benchmark_populations()

# (population index, sample seed, fit seed, n); seeds picked so the fits
# land on interior optima with well-conditioned information matrices.
_FIXTURE_SPECS = {
    1: (0, 201, 21, 300),
    2: (1, 204, 22, 300),
    3: (2, 203, 23, 300),
}


@pytest.fixture(scope="session")
def populations():
    return POPULATIONS


def _fitted(pop_index):
    idx, sample_seed, fit_seed, n = _FIXTURE_SPECS[pop_index]
    sample = sample_mixture(POPULATIONS[idx].theta, n, rng_seed=sample_seed)
    fit = fit_mle(sample, FitConfig(seed=fit_seed))
    return sample, fit


@pytest.fixture(scope="session")
def fitted_pop1():
    return _fitted(1)


@pytest.fixture(scope="session")
def fitted_pop2():
    return _fitted(2)


@pytest.fixture(scope="session")
def fitted_pop3():
    return _fitted(3)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def _fresh_interpreter_output(script, **environ):
    """Standard output of ``script`` in a fresh interpreter with ``src`` on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(wmixgof.__file__)))
    env = dict(os.environ, **environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return proc.stdout


def _outputs_under_blas_threads(script):
    """Standard output of ``script`` run with OPENBLAS_NUM_THREADS=1 and =2."""
    return [_fresh_interpreter_output(script, OPENBLAS_NUM_THREADS=t) for t in ("1", "2")]
