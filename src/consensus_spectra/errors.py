"""The package's exception types, all ConsensusSpectraError subclasses."""


class ConsensusSpectraError(Exception):
    """Base class for all package errors."""


class ParameterError(ConsensusSpectraError):
    """An argument violates one of its constraints."""


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
