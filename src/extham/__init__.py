"""extham: extended Hamiltonians on constant-curvature surfaces.

Construction of the warped extensions of one-dimensional natural
Hamiltonians, their characteristic first integrals by operator recursion
and by closed-form expansion, coupling-constant metamorphosis, symplectic
trajectory checks, and ladder-function certification, all verified by
machine-precision phase-space identities.
"""

import importlib.util
import sys
import threading
import types

__version__ = "0.1.0"


class _Numpy(types.ModuleType):
    """numpy before its __init__ runs, at the first read of an attribute but __spec__ (which import reads)."""

    def __getattribute__(self, attr):
        with _FIRST_READ:  # numpy's own reads re-enter; another thread's wait until it is whole
            if type(self) is _Numpy and attr != "__spec__":
                self.__class__ = _Loading
                self.__spec__.loader.exec_module(self)
                self.__class__ = types.ModuleType
        return types.ModuleType.__getattribute__(self, attr)


_FIRST_READ = threading.RLock()
_Loading = type("_Loading", (_Numpy,), {})  # numpy while its __init__ runs
if "numpy" not in sys.modules and (_spec := importlib.util.find_spec("numpy")):
    sys.modules["numpy"] = importlib.util.module_from_spec(_spec)
    sys.modules["numpy"].__class__ = _Numpy

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
