"""Spectral solvers and inverse-problem tooling for 1-D time-fractional
diffusion with Robin boundary conditions."""

__version__ = "0.1.0"

from .sl_core import (  # noqa: F401
    EigenSystem,
    PotentialSpec,
    RobinPair,
    char_delta,
    eigen_system,
    split_spectra,
    verify_asymptotics,
)
from .mittleff import (  # noqa: F401
    l1_weights,
    ml,
    ml_asymptotic_residual,
    ml_laplace_residual,
    relax_antiderivative,
    relax_primitive,
)
from .forward import (  # noqa: F401
    DriveSignal,
    SpaceTimeField,
    duhamel_residual,
    kernel_K,
    solve_l1_fd,
    solve_spectral,
)
from .weyl_toolkit import (  # noqa: F401
    ComplexRay,
    ProductSpec,
    f_decay_scan,
    weyl_m_minus,
    wronskian_U,
)
from .uniqueness import (  # noqa: F401
    CountedSet,
    classify_region,
    complement_inclusion_check,
    counting,
    counting_bound_check,
    density_criterion,
    lambda_set,
    region_map,
)
from .inverse import (  # noqa: F401
    CandidateParam,
    InverseProblemSpec,
    ReconstructionResult,
    distinguishability_scan,
    misfit,
    reconstruct,
    synthesize_data,
)
