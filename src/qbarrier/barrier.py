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
        if self.v1 == 0.0 and self.v2 == 0.0 and self.v3 == 0.0:
            raise ValueError("potential is identically zero: no barrier")
        if self.length <= 0.0:
            raise ValueError("barrier width must be positive")
        if self.mass <= 0.0:
            raise ValueError("mass must be positive")
        if self.hbar <= 0.0:
            raise ValueError("hbar must be positive")
        if self.energy <= 0.0:
            raise ValueError("energy must be positive")


@dataclass(frozen=True)
class AdimensionalBarrier:
    """Reduced barrier: (vc, vq) on the unit circle, phase theta, width lam."""

    vc: float
    vq: float
    theta: float = 0.0
    lam: float = 1.0

    def __post_init__(self):
        if abs(self.vc**2 + self.vq**2 - 1.0) > 1e-12:
            raise ValueError(
                f"vc**2 + vq**2 must equal 1, got {self.vc**2 + self.vq**2!r}"
            )
        if self.vq < 0.0:
            raise ValueError("vq must be non-negative")
        if self.lam < 0.0:
            raise ValueError("reduced width lam must be non-negative")

    @classmethod
    def from_vc(cls, vc: float, theta: float = 0.0, lam: float = 1.0) -> "AdimensionalBarrier":
        """Build from vc alone, with vq = sqrt(1 - vc**2)."""
        if not -1.0 <= vc <= 1.0:
            raise ValueError("vc must lie in [-1, 1]")
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
    if eps <= 0.0:
        raise ValueError("eps must be positive")
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
