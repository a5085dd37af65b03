"""Physical constants used across the package (SI).

h, e, hbar and k_B are written as the exact defined values of the 2019 SI
(hbar is h / (2 pi) rounded to float64); a test pins them bit for bit to
scipy.constants.  The derived quantities below (flux quantum, resistance
quantum) are therefore exact as well.
"""

__all__ = ["FLUX_QUANTUM", "RESISTANCE_QUANTUM", "HBAR", "BOLTZMANN",
           "ELECTRON_CHARGE"]

_h = 6.62607015e-34
"""Planck constant (J s)."""

ELECTRON_CHARGE = 1.602176634e-19
"""Elementary charge (C)."""

HBAR = 1.0545718176461565e-34
"""Reduced Planck constant h / (2 pi) (J s)."""

BOLTZMANN = 1.380649e-23
"""Boltzmann constant (J/K)."""

FLUX_QUANTUM = _h / (2.0 * ELECTRON_CHARGE)
"""Superconducting flux quantum h / (2e), about 2.07e-15 Wb."""

RESISTANCE_QUANTUM = _h / (2.0 * ELECTRON_CHARGE) ** 2
"""Superconducting resistance quantum h / (2e)^2, about 6.45 kOhm."""
