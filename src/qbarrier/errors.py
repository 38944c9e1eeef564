"""Exception types shared across the package."""


class QBarrierError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateEnergyError(QBarrierError):
    """eps**4 is too close to vq**2: the two exponential wave numbers collapse.

    The exponential basis inside the barrier degenerates, so the transfer
    table's 1/(1 - beta*gamma) and the continuity system become singular.  For vc=0, vq=1
    this is eps = 1, and the message names `critical_quaternionic`.
    """


class SingularSystemError(QBarrierError):
    """The 8x8 continuity system of `solver.solve` is singular to working precision.

    The input is valid: at thick widths the matrix holds entries near
    exp(Re(alpha_plus)*lam) beside O(1) ones, and the inverse fails.  The
    closed form still answers there.
    """
