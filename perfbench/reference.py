"""Reference values the paper-tables workload checks against.

The resonance tables are the three-decimal reference tables of the
acceptance suite (tests/test_acceptance.py, TABLE_ENERGY and TABLE_WIDTH),
copied so the benchmark does not depend on the test modules.  Six of their
fifty digits are not correctly rounded, so entries are compared within one
print ulp, the envelope every correct implementation reaches.
"""

import math

SQRT2 = math.sqrt(2.0)

#: the five standard potentials (vc, vq), in the order `--potentials table` lists them
STANDARD_POTENTIALS = (
    (1.0, 0.0),
    (math.sqrt(3.0) / 2.0, 0.5),
    (1.0 / SQRT2, 1.0 / SQRT2),
    (0.5, math.sqrt(3.0) / 2.0),
    (0.0, 1.0),
)

#: one unit in the last printed place of the tables
PRINT_ULP = 1e-3

#: rows in STANDARD_POTENTIALS order: (loc1, loc2, loc2-loc1, loc3, loc3-loc2)
TABLES = {
    # energy scan at lam = 3*pi (resonances --lambda-pi 3)
    "energy": (
        (1.054, 1.202, 0.148, 1.414, 0.212),
        (1.049, 1.188, 0.139, 1.394, 0.206),
        (1.043, 1.170, 0.127, 1.369, 0.199),
        (1.034, 1.145, 0.111, 1.334, 0.189),
        (1.011, 1.077, 0.066, 1.246, 0.169),
    ),
    # width scan at eps0 = sqrt(2), in units of pi (resonances --eps0 1.41421356)
    "width": (
        (2.0, 3.0, 1.0, 4.0, 1.0),
        (1.949, 2.915, 0.966, 3.881, 0.966),
        (1.890, 2.817, 0.927, 3.744, 0.927),
        (1.819, 2.695, 0.876, 3.571, 0.876),
        (1.718, 2.478, 0.760, 3.238, 0.760),
    ),
}


def nearest_potential(vc: float, vq: float) -> tuple[float, float]:
    """The standard potential closest to a printed (vc, vq) pair."""
    return min(STANDARD_POTENTIALS, key=lambda p: abs(p[0] - vc) + abs(p[1] - vq))
