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

Importing the package runs `barrier` (and `errors`) only.  Each route
module is put in sys.modules unloaded (`barrier._lazy_module`) and runs on
its first attribute read, so `qbarrier point` never runs `resonance`,
`verify` or the oracle.  The public names resolve through `__getattr__`
(PEP 562) from their home modules, in `_HOMES`.
"""

__version__ = "0.1.0"

from .barrier import _lazy_module

#: each public name and the module that defines it
_HOMES = {
    "AdimensionalBarrier": "barrier",
    "BarrierSpec": "barrier",
    "WaveParams": "barrier",
    "adimensionalize": "barrier",
    "wave_params": "barrier",
    "TransmissionResult": "closed_form",
    "transmission": "closed_form",
    "CriticalAmplitudes": "critical",
    "asymptotic_moduli": "critical",
    "critical_complex": "critical",
    "critical_quaternionic": "critical",
    "DegenerateEnergyError": "errors",
    "QBarrierError": "errors",
    "SingularSystemError": "errors",
    "oracle_amplitudes": "ode_oracle",
    "complex_resonance_energies": "resonance",
    "complex_resonance_widths": "resonance",
    "scan_peaks": "resonance",
    "ScatteringAmplitudes": "solver",
    "probability_balance": "solver",
    "solve": "solver",
    "transfer_closed": "transfer",
    "transfer_numeric": "transfer",
}

for _route in ("closed_form", "critical", "ode_oracle", "resonance", "solver", "transfer", "verify"):
    _lazy_module(f"{__name__}.{_route}")

__all__ = sorted(_HOMES)


def __getattr__(name):
    """The public name from its home module, which its first read loads (each submodule is bound here)."""
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOMES[name]], name)
