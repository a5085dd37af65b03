"""Physical constants used across the package (SI).

Values come from scipy.constants; h, e, hbar and k_B are exact defined
values in the 2019 SI, so the derived quantities below (flux quantum,
resistance quantum) are exact as well.
"""

from scipy.constants import e as ELECTRON_CHARGE
from scipy.constants import h as _h
from scipy.constants import hbar as HBAR
from scipy.constants import k as BOLTZMANN

__all__ = ["FLUX_QUANTUM", "RESISTANCE_QUANTUM", "HBAR", "BOLTZMANN",
           "ELECTRON_CHARGE"]

FLUX_QUANTUM = _h / (2.0 * ELECTRON_CHARGE)
"""Superconducting flux quantum h / (2e), about 2.07e-15 Wb."""

RESISTANCE_QUANTUM = _h / (2.0 * ELECTRON_CHARGE) ** 2
"""Superconducting resistance quantum h / (2e)^2, about 6.45 kOhm."""
