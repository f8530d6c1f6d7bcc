"""Exception types shared across the package."""


class NetMapError(Exception):
    """Base class for all package-specific errors.

    ``exit_code`` and ``label`` are what the command line returns and
    prints before the message: 2 and "error" unless a subclass says
    otherwise.
    """

    exit_code = 2
    label = "error"


class ZeroVectorError(NetMapError):
    """A slope or direction was requested for the zero vector."""


class PresentationSyntaxError(NetMapError):
    """A presentation file line could not be parsed."""


class ValidationError(NetMapError):
    """A presentation violates one of its structural invariants.

    ``invariant`` names the violated invariant so callers (and the CLI)
    can report it precisely.
    """

    def __init__(self, invariant: str, message: str):
        self.invariant = invariant
        super().__init__(f"{invariant}: {message}")


class NonEssentialError(NetMapError):
    """The pullback of the given curve has no essential component."""


class NonTransverseError(NetMapError):
    """A test segment meets a mirror non-transversely.

    Raised when the segment touches a mirror endpoint, runs along a
    mirror edge, or passes through a mirror midpoint.  Callers retry
    with a different segment before giving up.
    """

    exit_code = 3
    label = "geometric failure"


class DegenerateIncidenceError(NetMapError):
    """The interior of a test segment hits a degenerate mirror point."""


class ZigzagError(NetMapError):
    """The slope map could not be evaluated for an essential slope.

    Raised when no usable test segment exists for the slope, or when the
    crossed midpoints give a vanishing alternating sum or one outside
    the sublattice, which means the presentation data is inconsistent.
    """

    exit_code = 3
    label = "geometric failure"


class HypothesisFailedError(NetMapError):
    """A symmetry construction's hypotheses do not hold.

    ``reason`` is one of ``NotBasisLambda2``, ``NotBasisLambda1``,
    ``ClassSetNotInvariant``, ``SigmaCollision``.
    """

    def __init__(self, reason: str, message: str = ""):
        self.reason = reason
        super().__init__(f"{reason}: {message}" if message else reason)


class MirrorsNotStabilizedError(NetMapError):
    """The affine map moves the mirror system, so its induced boundary
    action cannot be read off from the sublattice basis alone."""

    exit_code = 4
    label = "unsupported affine symmetry"


class BudgetExceededError(NetMapError):
    """An exhaustive search would exceed its configured budget."""
