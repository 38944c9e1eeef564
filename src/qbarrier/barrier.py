"""Barrier descriptions and the derived complex wave parameters.

A physical barrier (three potential components V1, V2, V3, width L, mass,
hbar, particle energy E) reduces to four adimensional numbers:

    vc = V1/V0,  vq = sqrt(V2**2 + V3**2)/V0,  theta = atan2(V3, V2),
    lam = sqrt(2*m*V0/hbar**2) * L,            with V0 = |(V1, V2, V3)|,

plus the reduced energy eps = sqrt(E/V0).  Inside the barrier the wave
numbers and mixing coefficients are

    alpha_pm = sqrt(vc +/- sqrt(eps**4 - vq**2))
    beta     =  i*vq*exp( i*theta) / (eps**2 + sqrt(eps**4 - vq**2))
    gamma    = -i*vq*exp(-i*theta) / (eps**2 + sqrt(eps**4 - vq**2))

All square roots are principal-branch (non-negative real part; +i*sqrt|x|
for negative real x), which fixes every downstream sign deterministically.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import DegenerateEnergyError, ThresholdEnergyError

#: below this |eps**4 - vq**2| the exponential basis is numerically collapsed
DEGENERACY_TOL = 1e-10

#: below this |alpha_minus| the exponential basis is singular (eps at threshold)
ALPHA_MINUS_TOL = 1e-10

#: largest accepted |vc**2 + vq**2 - 1| for a reduced potential direction
UNIT_CIRCLE_TOL = 1e-12


def require_finite(name: str, value: float, lower: float = -math.inf, strict: bool = False) -> None:
    """The package's one input rule: value is finite and >= lower (> lower if strict).

    Written as a negated conjunction so that NaN, which fails every
    comparison, is rejected along with +-inf.

    Raises:
        ValueError: naming the input and its bound.
    """
    if not (math.isfinite(value) and (value > lower if strict else value >= lower)):
        bound = "" if lower == -math.inf else f" and {'>' if strict else '>='} {lower!r}"
        raise ValueError(f"{name} must be finite{bound}, got {value!r}")


@dataclass(frozen=True)
class BarrierSpec:
    """Physical barrier: potential components, width, mass, hbar and energy."""

    v1: float
    v2: float
    v3: float
    length: float
    mass: float
    hbar: float
    energy: float

    def __post_init__(self):
        for name in ("v1", "v2", "v3"):
            require_finite(name, getattr(self, name))
        if self.v1 == 0.0 and self.v2 == 0.0 and self.v3 == 0.0:
            raise ValueError("potential is identically zero: no barrier")
        for name in ("length", "mass", "hbar", "energy"):
            require_finite(name, getattr(self, name), 0.0, strict=True)


@dataclass(frozen=True)
class AdimensionalBarrier:
    """Reduced barrier: (vc, vq) on the unit circle, phase theta, width lam."""

    vc: float
    vq: float
    theta: float = 0.0
    lam: float = 1.0

    def __post_init__(self):
        require_finite("vc", self.vc)
        require_finite("vq", self.vq, 0.0)
        require_finite("theta", self.theta)
        require_finite("lam", self.lam, 0.0)
        norm = self.vc * self.vc + self.vq * self.vq
        if abs(norm - 1.0) > UNIT_CIRCLE_TOL:
            raise ValueError(f"vc**2 + vq**2 must equal 1, got {norm!r}")

    @classmethod
    def from_vc(cls, vc: float, theta: float = 0.0, lam: float = 1.0) -> "AdimensionalBarrier":
        """Build from vc alone, with vq = sqrt(1 - vc**2); |vc| > 1 fails the unit-circle rule."""
        return cls(vc=vc, vq=math.sqrt(max(0.0, 1.0 - vc * vc)), theta=theta, lam=lam)


@dataclass(frozen=True)
class WaveParams:
    """Derived complex quantities for one (eps, barrier) pair."""

    eps: float
    alpha_minus: complex
    alpha_plus: complex
    beta: complex
    gamma: complex


def adimensionalize(spec: BarrierSpec) -> tuple[AdimensionalBarrier, float]:
    """Reduce a physical barrier to adimensional form; returns (barrier, eps)."""
    v0 = math.sqrt(spec.v1**2 + spec.v2**2 + spec.v3**2)
    scale = math.sqrt(2.0 * spec.mass * v0 / spec.hbar**2)
    barrier = AdimensionalBarrier(
        vc=spec.v1 / v0,
        vq=math.sqrt(spec.v2**2 + spec.v3**2) / v0,
        theta=math.atan2(spec.v3, spec.v2),
        lam=scale * spec.length,
    )
    return barrier, math.sqrt(spec.energy / v0)


def wave_params(eps: float, b: AdimensionalBarrier) -> WaveParams:
    """Wave numbers alpha_pm and mixing coefficients beta, gamma.

    Raises:
        DegenerateEnergyError: if |eps**4 - vq**2| <= DEGENERACY_TOL, where
            alpha_plus == alpha_minus and the exponential basis collapses.
    """
    require_finite("eps", eps, 0.0, strict=True)
    disc = eps**4 - b.vq**2
    if abs(disc) <= DEGENERACY_TOL:
        raise DegenerateEnergyError(
            f"eps**4 - vq**2 = {disc:.3e} is inside the degeneracy band "
            f"(eps={eps!r}, vq={b.vq!r}); for vq=1, eps=1 use the critical module"
        )
    root = cmath.sqrt(complex(disc, 0.0))
    denom = eps**2 + root
    return WaveParams(
        eps=eps,
        alpha_minus=cmath.sqrt(complex(b.vc, 0.0) - root),
        alpha_plus=cmath.sqrt(complex(b.vc, 0.0) + root),
        beta=1j * b.vq * cmath.exp(1j * b.theta) / denom,
        gamma=-1j * b.vq * cmath.exp(-1j * b.theta) / denom,
    )


def require_off_threshold(p: WaveParams) -> None:
    """Reject the diffusion/tunneling threshold, where alpha_minus ~ 0.

    Both the closed formula and the continuity system divide by
    alpha_minus there.

    Raises:
        ThresholdEnergyError: if |alpha_minus| <= ALPHA_MINUS_TOL.
    """
    if abs(p.alpha_minus) <= ALPHA_MINUS_TOL:
        raise ThresholdEnergyError(
            f"alpha_minus = {p.alpha_minus!r} at eps={p.eps!r}: "
            "exponential basis singular at the diffusion/tunneling threshold"
        )
