"""Trapped-ion phase-space simulation and symplectic tomography toolkit.

Builds squeezed/correlated Gaussian and even/odd cat states of an ion in a
parametrically driven trap, computes their symplectic tomograms and Wigner
functions, transports both in time along the classical mode function, checks
the tomogram evolution equation numerically, and reconstructs Wigner
functions from tomographic data by Fourier inversion and filtered
backprojection.

The names below are imported from their submodules on first access (PEP 562),
so ``import iontomo`` loads no numpy: the CLI sets its thread environment
before numpy starts.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": (
        "ConfigError",
        "DegenerateFrameError",
        "InsufficientAnglesError",
        "InvalidTrajectoryError",
        "NormalizationDivergenceError",
        "ReconstructionQualityError",
        "SolverError",
        "SupportTruncationWarning",
    ),
    "oscillator": (
        "EpsilonTrajectory",
        "OscillatorParams",
        "SymplecticMap",
        "epsilon_at",
        "omega_squared",
        "solve_epsilon",
        "symplectic_map",
    ),
    "states": (
        "CatSpec",
        "GaussianState",
        "WignerGrid",
        "eval_wavefunction",
        "evolve_wigner",
        "gaussian_from_epsilon",
        "schroedinger_relation_check",
        "wigner_cat",
        "wigner_gaussian",
    ),
    "tomography": (
        "GaussianTomogram",
        "OpticalSinogram",
        "TomogramQuery",
        "cat_evaluator",
        "evolve_tomogram",
        "invert_to_wigner",
        "optical_slice",
        "project_wigner",
        "radon_reconstruct",
        "sinogram_evaluator",
        "tomogram_cat",
        "tomogram_gaussian",
    ),
    "verify": (
        "ProbeGrid",
        "ResidualReport",
        "frozen_frame_evolution",
        "moment_odes_check",
        "pde_residual",
        "replacement_evolution",
    ),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SUBMODULE)


def __getattr__(name):
    if name in _SUBMODULE:
        value = getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
