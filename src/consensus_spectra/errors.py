"""Exception types shared across the package."""


class ConsensusSpectraError(Exception):
    """Base class for all package errors."""


class ParameterError(ConsensusSpectraError):
    """A network model violates one of its parameter constraints."""


class DegenerateError(ConsensusSpectraError):
    """The extremal pair has equal moduli, so the equal-modulus equation
    for h has no nonzero solution (e.g. the 3-node ring).  Only
    ``design.solve_h_pair`` raises it; minimax solves every model."""


class UnsupportedParityError(ConsensusSpectraError):
    """No closed-form expression exists for this parity combination
    (e.g. a torus with one even and one odd side)."""


class DivergenceError(ConsensusSpectraError):
    """The consensus iteration grew past the divergence guard,
    signalling a non-contracting weight matrix."""


class InsufficientDataError(ConsensusSpectraError):
    """A trace does not contain enough usable steps for the requested
    estimate."""
