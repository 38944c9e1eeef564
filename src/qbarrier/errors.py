"""Exception types shared across the package."""


class QBarrierError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateEnergyError(QBarrierError):
    """eps**4 is too close to vq**2: the two exponential wave numbers collapse.

    The exponential basis inside the barrier degenerates, so the factor
    matrix G and the continuity system become singular.  For vc=0, vq=1
    this is eps = 1, and the message names `critical_quaternionic`.
    """


class ThresholdEnergyError(QBarrierError):
    """A wave number is numerically zero (eps at the diffusion/tunneling threshold).

    At eps = 1 alpha_minus vanishes for a barrier (vc > 0) and alpha_plus
    for a well (vc < 0); every route through the exponential basis divides
    by both.  For the complex barrier (vc=1) the message names
    `critical_complex`; other potentials at the threshold have no analytic
    treatment here.
    """


class IllConditionedError(QBarrierError):
    """A matrix inversion cannot be trusted (1 - beta*gamma underflows)."""


class SingularDenominatorError(QBarrierError):
    """The inner denominator of the closed transmission formula vanished."""


class ConvergenceError(QBarrierError):
    """A fixed-step integration did not meet its self-consistency target."""
