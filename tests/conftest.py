"""Shared fixtures: the reference device of the acceptance studies.

Junction capacitance is fixed by asking for a 1 THz zero-flux plasma
frequency; the pulse speed is 0.95 of the unbiased propagation speed and
its steepness saturates the velocity-gradient cap (a tenth of the plasma
frequency over 2*pi).
"""

import pytest

import squid_horizon as sh

# Derived once from the reference numbers; if the base parameters ever
# change, recompute them: the junction capacitance is
# 2*pi*I_c / (Phi_0 * (2*pi * 1 THz)**2), the cell speed is
# sh.cell_velocity(array, squid, 0.0), and the steepness is
# sh.steepness_for_gradient_cap(array, squid, 0.2, 0.0, REF_PULSE_SPEED,
# 0.1 * sh.effective_plasma_frequency(squid, 0.0) / (2 * pi)).
REF_CRITICAL_CURRENT = 2.0e-6
REF_JUNCTION_CAPACITANCE = 1.539339760883361e-16
REF_LOOP_INDUCTANCE = 1.0e-11
REF_CELL_LENGTH = 2.5e-7
REF_GROUND_CAPACITANCE = 5.0e-17
REF_CELL_SPEED = 3897778.146429868
REF_PULSE_SPEED = 0.95 * REF_CELL_SPEED
REF_STEEPNESS = 436228.3606298319


@pytest.fixture
def ref_junction():
    return sh.JunctionParams(critical_current=REF_CRITICAL_CURRENT,
                             capacitance=REF_JUNCTION_CAPACITANCE)


@pytest.fixture
def ref_squid(ref_junction):
    return sh.SquidParams(junction=ref_junction,
                          loop_inductance=REF_LOOP_INDUCTANCE)


@pytest.fixture
def ref_array():
    return sh.ArrayParams(n_cells=4800, cell_length=REF_CELL_LENGTH,
                          ground_capacitance=REF_GROUND_CAPACITANCE,
                          environment_impedance=50.0)


@pytest.fixture
def step_pulse():
    """The canonical moving tanh front: 0.2 Phi_0 step at 0.95 c(0)."""
    return sh.FluxPulse(amplitude=0.2, dc_offset=0.0,
                        velocity=REF_PULSE_SPEED,
                        steepness=REF_STEEPNESS)
