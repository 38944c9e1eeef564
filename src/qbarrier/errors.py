"""Exception types shared across the package."""


class QBarrierError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateEnergyError(QBarrierError):
    """eps**4 is too close to vq**2: the two exponential wave numbers collapse.

    The exponential basis inside the barrier degenerates, so the factor
    matrix G and the continuity system become singular.  For vc=0, vq=1
    this is eps = 1, and the message names `critical_quaternionic`.
    """


class IllConditionedError(QBarrierError):
    """A matrix inversion cannot be trusted (1 - beta*gamma underflows, or eps = 1)."""


class SingularDenominatorError(QBarrierError):
    """The inner denominator of the closed transmission formula vanished."""
