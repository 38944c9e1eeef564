import math

import numpy as np

from qbarrier import AdimensionalBarrier

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
