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
    """The continuity system of `solver.solve` is singular to working precision.

    The input is valid: at thick widths exp(-eps*lam) underflows to 0, so
    the elimination divides by 0, and where max(eps, min(1, lam)) is
    subnormal its products lose their digits.  The closed form still
    answers there.
    """
