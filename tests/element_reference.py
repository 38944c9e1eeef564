"""Test-only element-table form of the closed formula's denominator D.

`qbarrier.closed_form` states the form and evaluates its factored
regrouping, `denominator_factored`; this is the form itself, read from a
transfer matrix in the data basis (phi, phi', psi, psi').
"""

import numpy as np


def denominator(m: np.ndarray, eps: float) -> complex:
    """D from a transfer matrix m in the data basis, by the element form of `qbarrier.closed_form`.

    m is `transfer_closed`'s or `transfer_numeric`'s matrix.  The form
    divides by eps alone and so is defined at the threshold eps = 1.
    """
    e2 = eps**2
    lead = m[0, 0] + m[1, 1] + 1j * (e2 * m[0, 1] - m[1, 0]) / eps
    upper = m[0, 2] + 1j * m[1, 3] - (e2 * m[0, 3] + 1j * m[1, 2]) / eps
    lower_num = m[2, 0] - 1j * m[3, 1] + (1j * e2 * m[2, 1] - m[3, 0]) / eps
    lower_den = m[3, 3] + m[2, 2] - (e2 * m[2, 3] + m[3, 2]) / eps
    return complex(lead - upper * lower_num / lower_den)
