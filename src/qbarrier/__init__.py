"""Scattering off a one-dimensional quaternionic potential barrier.

The package computes reflection/transmission amplitudes for a particle
hitting a square barrier whose potential has both a complex (i) and a pure
quaternionic (j, k) part, through three mutually checking routes:

  * a closed transfer-matrix formula (:mod:`qbarrier.closed_form`),
  * a direct solve of the eight boundary-matching equations
    (:mod:`qbarrier.solver`),
  * a brute-force integration of the interior equations, one matrix
    exponential per segment, composed by star products (:mod:`qbarrier.ode_oracle`).

Resonance tables, the exact threshold (eps = 1) amplitudes and a CLI sit
on top.
"""

__version__ = "0.1.0"

from .barrier import (
    AdimensionalBarrier,
    BarrierSpec,
    WaveParams,
    adimensionalize,
    wave_params,
)
from .closed_form import (
    TransmissionResult,
    transmission,
)
from .critical import (
    CriticalAmplitudes,
    asymptotic_moduli,
    critical_complex,
    critical_quaternionic,
)
from .errors import (
    DegenerateEnergyError,
    QBarrierError,
    SingularSystemError,
)
from .ode_oracle import oracle_amplitudes
from .resonance import (
    complex_resonance_energies,
    complex_resonance_widths,
    scan_peaks,
)
from .solver import (
    ScatteringAmplitudes,
    probability_balance,
    solve,
)
from .transfer import transfer_closed, transfer_numeric

__all__ = [
    "AdimensionalBarrier",
    "BarrierSpec",
    "CriticalAmplitudes",
    "DegenerateEnergyError",
    "QBarrierError",
    "ScatteringAmplitudes",
    "SingularSystemError",
    "TransmissionResult",
    "WaveParams",
    "adimensionalize",
    "asymptotic_moduli",
    "complex_resonance_energies",
    "complex_resonance_widths",
    "critical_complex",
    "critical_quaternionic",
    "oracle_amplitudes",
    "probability_balance",
    "scan_peaks",
    "solve",
    "transfer_closed",
    "transfer_numeric",
    "transmission",
    "wave_params",
]
