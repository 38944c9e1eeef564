import math

import numpy as np

from qbarrier import AdimensionalBarrier
from qbarrier.barrier import columns
from qbarrier.transfer import _k_block

#: the five reference potentials, pure complex through pure quaternionic
FIVE_POTENTIALS = (
    (1.0, 0.0),
    (math.sqrt(3.0) / 2.0, 0.5),
    (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)),
    (0.5, math.sqrt(3.0) / 2.0),
    (0.0, 1.0),
)


def random_points(seed: int, n: int, lam_max: float = 10.0, lam_min: float = 0.0):
    """Seeded (eps, barrier) pairs outside the degeneracy band."""
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < n:
        eps = rng.uniform(0.2, 3.0)
        vc = rng.uniform(0.0, 1.0)
        vq = math.sqrt(max(0.0, 1.0 - vc * vc))
        theta = rng.uniform(0.0, 2.0 * math.pi)
        lam = rng.uniform(lam_min, lam_max)
        if lam <= 0.0 or abs(eps**4 - vq**2) < 1e-6:
            continue
        pts.append((eps, AdimensionalBarrier(vc=vc, vq=vq, theta=theta, lam=lam)))
    return pts


def circle_points(seed: int, n: int):
    """Seeded (eps, barrier) pairs over the whole unit circle, wells included, with |eps**4 - vq**2| >= 1e-3.

    theta is 0 on half of them and U(-pi, pi) otherwise; eps is the
    threshold 1 on a fifth and U(0.2, 3) otherwise; lam is 0 on a tenth and
    U(0, 10) otherwise.
    """
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < n:
        phi, theta, eps, lam = rng.uniform((0.0, -math.pi, 0.2, 0.0), (math.pi, math.pi, 3.0, 10.0))
        zero_theta, threshold, no_width = rng.random(3) < (0.5, 0.2, 0.1)
        vc, vq = math.cos(phi), math.sin(phi)
        eps = 1.0 if threshold else eps
        if abs(eps**4 - vq**2) < 1e-3:
            continue
        pts.append((eps, AdimensionalBarrier(vc, vq, 0.0 if zero_theta else theta, 0.0 if no_width else lam)))
    return pts


def near_band_points(disc: float):
    """(eps, barrier) pairs with eps**4 - vq**2 = disc (to rounding), wells included, at four (theta, lam)."""
    return [
        ((vq * vq + disc) ** 0.25, AdimensionalBarrier(vc, vq, theta, lam))
        for vc, vq in ((0.0, 1.0), (0.6, 0.8), (-0.6, 0.8), (0.8, 0.6), (-0.8, 0.6))
        for theta, lam in ((0.0, 2.0), (0.7, 5.0), (0.0, 0.0), (-2.0, 9.5))
    ]


def as_columns(points):
    """(energies, BarrierColumns) of a list of (eps, barrier) pairs, as a batch call takes them."""
    return columns([eps for eps, _ in points], [b for _, b in points])


def split_matrix(eps, cols):
    """The matrices A of the split systems y' = A*y, y = (phi, phi', psi, psi'), at a batch's points, (n, 4, 4).

    The library forms only their block K: A's rows are (0, 1, 0, 0), (K00, 0, K01, 0), (0, 0, 0, 1) and
    (K10, 0, K11, 0).
    """
    k = _k_block(cols, eps)
    a = np.zeros((len(eps), 4, 4), dtype=complex)
    a[:, 0, 1] = a[:, 2, 3] = 1.0
    a[:, 1::2, 0::2] = k.transpose(2, 0, 1)
    return a
