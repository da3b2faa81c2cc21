"""extham: extended Hamiltonians on constant-curvature surfaces.

Construction of the warped extensions of one-dimensional natural
Hamiltonians, their characteristic first integrals by operator recursion
and by closed-form expansion, coupling-constant metamorphosis, symplectic
trajectory checks, and ladder-function certification, all verified by
machine-precision phase-space identities.
"""

__version__ = "0.1.0"

from .catalog import (
    ModelInstance,
    exp_base,
    make_base_family,
    make_curved_hamiltonian,
    make_flat_ttw_hamiltonian,
    make_minkowski_hamiltonian,
    make_remark_pair,
    minkowski_indices,
    trig_base,
)
from .ccm import ccm_transform, rescale_radial
from .dynamics import Trajectory, drift_report, integrate
from .extension import (
    BaseSystem,
    Extension,
    ExtensionSpec,
    bracket_scale,
    functional_independence,
)
from .ladder import LadderData, ladder_from_base, ladder_residuals
from .phase import (
    PhaseFunction,
    PhasePoint,
    gradient,
    hamiltonian_vector_field,
    lift_last,
    poisson_bracket,
)
from .tagged_trig import GammaProfile, gamma, gamma_prime, tagged_C, tagged_S
