"""Exception types raised by the gravitunnel package."""


class TunnelError(Exception):
    """Base class for every error this package raises deliberately."""


class DomainError(TunnelError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class PathError(TunnelError, ValueError):
    """A discrete path cannot be timed or simulated as given."""


class DegenerateSegmentError(PathError):
    """A zero-length segment sits on the surface, where the speed is zero."""


class QuadratureError(TunnelError, ArithmeticError):
    """The tanh-sinh quadrature's levels did not agree within the tolerance.

    Attributes
    ----------
    error_estimate : difference of the last two levels at the point of failure.
    evaluations : integrand evaluations performed before giving up.
    """

    def __init__(self, message, error_estimate=None, evaluations=None):
        super().__init__(message)
        self.error_estimate = error_estimate
        self.evaluations = evaluations


class StalledTrajectoryError(TunnelError, RuntimeError):
    """The bead ran out of speed before reaching the far end of the tunnel.

    Attributes carry the turning point: ``tau``, ``arclength`` and ``rho``
    at the deepest progress made along the tunnel.
    """

    def __init__(self, message, tau=None, arclength=None, rho=None):
        super().__init__(message)
        self.tau = tau
        self.arclength = arclength
        self.rho = rho
