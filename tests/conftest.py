import pytest
from hypothesis import settings

from iontomo import OscillatorParams, epsilon_at, solve_epsilon

# the same examples on every run, and no example database written to disk
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def params04():
    return OscillatorParams(kappa=0.4, omega_drive=2.0)


@pytest.fixture(scope="session")
def traj04(params04):
    return solve_epsilon(params04, t_end=10.0)


@pytest.fixture(scope="session")
def point04_t2(params04):
    """(eps, deps) at t=2 for the kappa=0.4, Omega=2 drive."""
    return epsilon_at(params04, 2.0)
