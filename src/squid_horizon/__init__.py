"""Analogue-horizon toolkit for flux-biased dc-SQUID transmission lines.

The package models a chain of dc SQUIDs acting as a tunable-speed
transmission line, a travelling flux front that drags a sonic-type horizon
along the array, and the thermal emission budget that follows from the
horizon's velocity gradient.
"""

from .bias import FluxPulse, calibrate_broadening, comoving_flux
from .circuit import (
    ArrayParams,
    JunctionParams,
    SquidParams,
    SquidState,
    ValidityReport,
    array_impedance,
    beta_l,
    cell_time,
    cell_velocity,
    effective_plasma_frequency,
    josephson_inductance,
    junction_energies,
    reduced_junction_dynamics,
    single_squid_dynamics,
    squid_critical_current,
    validity_report,
)
from .dispersion import (
    DispersionCurve,
    cutoff_scale,
    front_resolved,
    front_spectral_fraction,
    measure_dispersion,
    omega_analytic,
    write_dispersion_csv,
)
from .geometry import (
    EffectiveMetric,
    HorizonReport,
    PhotonBudget,
    VelocityProfile,
    effective_metric,
    emitting_horizon,
    find_horizons,
    hawking_temperature,
    photons_per_pulse,
    radiated_power,
    steepness_for_gradient_cap,
    velocity_profile,
    write_horizon_trace,
)
from .lattice import (
    LatticeState,
    LatticeTrajectory,
    March,
    SolverConfig,
    gaussian_packet,
    measure_pulse_speed,
    run,
    stable_timestep,
    zero_state,
)

__version__ = "0.1.0"
