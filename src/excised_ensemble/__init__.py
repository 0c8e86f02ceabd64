"""Excised orthogonal ensemble: Monte Carlo sampling of SO(2N) conditioned on
the characteristic polynomial at 1 exceeding a cutoff, the matching analytic
one-level density via Jacobi-ensemble residue calculus, and the
elliptic-curve calibration pipeline that fixes the cutoff constants.
"""

__version__ = "0.1.0"

from . import analytic, curve_model, ensemble, haar, special_functions  # noqa: F401
from .errors import DomainError  # noqa: F401
