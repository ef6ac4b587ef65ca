"""Trapped-ion phase-space simulation and symplectic tomography toolkit.

Builds squeezed/correlated Gaussian and even/odd cat states of an ion in a
parametrically driven trap, computes their symplectic tomograms and Wigner
functions, transports both in time along the classical mode function, checks
the tomogram evolution equation numerically, and reconstructs Wigner
functions from tomographic data by Fourier inversion and filtered
backprojection.
"""

from .errors import (
    ConfigError,
    DegenerateFrameError,
    InsufficientAnglesError,
    InvalidTrajectoryError,
    NormalizationDivergenceError,
    ReconstructionQualityError,
    SolverError,
    SupportTruncationWarning,
)
from .oscillator import (
    EpsilonTrajectory,
    OscillatorParams,
    SymplecticMap,
    epsilon_at,
    omega_squared,
    solve_epsilon,
    symplectic_map,
)
from .states import (
    CatSpec,
    GaussianState,
    WignerGrid,
    eval_wavefunction,
    evolve_wigner,
    gaussian_from_epsilon,
    schroedinger_relation_check,
    wigner_cat,
    wigner_gaussian,
)
from .tomography import (
    GaussianTomogram,
    OpticalSinogram,
    TomogramQuery,
    cat_evaluator,
    evolve_tomogram,
    invert_to_wigner,
    optical_slice,
    project_wigner,
    radon_reconstruct,
    sinogram_evaluator,
    tomogram_cat,
    tomogram_gaussian,
)
from .verify import (
    ProbeGrid,
    ResidualReport,
    frozen_frame_evolution,
    moment_odes_check,
    pde_residual,
    replacement_evolution,
)

__version__ = "0.1.0"
