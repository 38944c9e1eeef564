"""Test-only quaternion arithmetic, and the piecewise wavefunction and its current as a referee of `solve`.

A quaternion q = a + b*i + c*j + d*k is stored as the ordered pair of
complex numbers (z, w) with

    q = z + j*w,    z = a + i*b,    w = c - i*d.

Everything follows from the anticommutation rule j*z = conj(z)*j, which
closes the pair representation under the Hamilton product:

    (z1 + j*w1)(z2 + j*w2) = (z1*z2 - conj(w1)*w2) + j*(conj(z1)*w2 + z2*w1)

The sign convention is pinned by i*j = +k (see the unit constants below).

>>> I * J == K
True
>>> Quaternion(1, 1) * Quaternion(1, -1)
Quaternion(z=(2+0j), w=0j)

The wavefunction `wavefunction` evaluates is the three-zone form of the
`qbarrier.solver` module docstring, at the amplitudes and interior
coefficients `solve` returns; `current_density` is its probability current.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from qbarrier import AdimensionalBarrier, ScatteringAmplitudes, WaveParams
from qbarrier.barrier import shc


@dataclass(frozen=True)
class Quaternion:
    """Value z + j*w with complex z (the 1,i part) and complex w (the j,k part)."""

    z: complex
    w: complex = 0j

    def __post_init__(self):
        object.__setattr__(self, "z", complex(self.z))
        object.__setattr__(self, "w", complex(self.w))

    @classmethod
    def from_components(cls, a: float, b: float, c: float, d: float) -> "Quaternion":
        """Build a + b*i + c*j + d*k from four real components."""
        return cls(complex(a, b), complex(c, -d))

    def as_components(self) -> tuple[float, float, float, float]:
        """Real components (a, b, c, d) of a + b*i + c*j + d*k."""
        return (self.z.real, self.z.imag, self.w.real, -self.w.imag)

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.z.conjugate(), -self.w)

    def norm(self) -> float:
        return math.hypot(abs(self.z), abs(self.w))

    def scalar_part(self) -> float:
        """Real (1-component) part: (q + conj(q)) / 2."""
        return self.z.real

    def __add__(self, other: "Quaternion") -> "Quaternion":
        other = _promote(other)
        return Quaternion(self.z + other.z, self.w + other.w)

    __radd__ = __add__

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        other = _promote(other)
        return Quaternion(self.z - other.z, self.w - other.w)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.z, -self.w)

    def __mul__(self, other) -> "Quaternion":
        other = _promote(other)
        return Quaternion(
            self.z * other.z - self.w.conjugate() * other.w,
            self.z.conjugate() * other.w + other.z * self.w,
        )

    def __rmul__(self, other) -> "Quaternion":
        # Multiplication does not commute: evaluate other * self.
        return _promote(other) * self


def _promote(value) -> Quaternion:
    if isinstance(value, Quaternion):
        return value
    if isinstance(value, (int, float, complex)):
        return Quaternion(complex(value), 0j)
    raise TypeError(f"cannot interpret {type(value).__name__} as a quaternion")


ONE = Quaternion(1.0, 0j)
I = Quaternion(1j, 0j)
J = Quaternion(0j, 1.0)
K = Quaternion(0j, -1j)


@dataclass(frozen=True)
class ZoneWavefunction:
    """Wavefunction value and derivative at one point, tagged by zone."""

    zone: str  # "I", "II" or "III"
    value: Quaternion
    derivative: Quaternion


def wavefunction(
    xi: float,
    amps: ScatteringAmplitudes,
    p: WaveParams,
    b: AdimensionalBarrier,
) -> ZoneWavefunction:
    """Evaluate the wavefunction and its derivative at xi."""
    eps = p.eps
    if xi < 0.0:
        phi = cmath.exp(1j * eps * xi) + amps.r * cmath.exp(-1j * eps * xi)
        dphi = 1j * eps * (cmath.exp(1j * eps * xi) - amps.r * cmath.exp(-1j * eps * xi))
        psi = amps.rt * cmath.exp(eps * xi)
        dpsi = eps * psi
        zone = "I"
    elif xi > b.lam:
        phi = amps.t * cmath.exp(1j * eps * xi)
        dphi = 1j * eps * phi
        psi = amps.tt * cmath.exp(-eps * xi)
        dpsi = -eps * psi
        zone = "III"
    else:
        if amps.a is None:
            raise ValueError("interior coefficients are required inside the barrier")
        am, ap = p.alpha_minus, p.alpha_plus
        s = xi - 0.5 * b.lam
        cm, hm = cmath.cosh(am * s), shc(am, s)
        cp, hp = cmath.cosh(ap * s), shc(ap, s)
        low = amps.a * cm + amps.b * hm
        dlow = amps.a * am * am * hm + amps.b * cm
        high = amps.at * cp + amps.bt * hp
        dhigh = amps.at * ap * ap * hp + amps.bt * cp
        phi = low + p.beta * high
        dphi = dlow + p.beta * dhigh
        psi = p.gamma * low + high
        dpsi = p.gamma * dlow + dhigh
        zone = "II"
    return ZoneWavefunction(
        zone=zone,
        value=Quaternion(phi, psi),
        derivative=Quaternion(dphi, dpsi),
    )


def current_density(state: ZoneWavefunction) -> float:
    """Probability current conj(Phi)*i*Phi' + h.c., constant across all zones."""
    flow = state.value.conjugate() * I * state.derivative
    return 2.0 * flow.scalar_part()
