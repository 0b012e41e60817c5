"""Exception and warning types raised across the package.

Every error message names the violated invariant so that CLI users can act
on it without reading a stack trace.
"""


class MarkovFlowError(Exception):
    """Base class for all domain errors raised by this package."""


class NegativeRate(MarkovFlowError):
    """An off-diagonal transition rate is negative beyond tolerance."""


class ColumnSumViolation(MarkovFlowError):
    """A generator column does not sum to zero within tolerance."""


class Reducible(MarkovFlowError):
    """The transition graph has more than one communicating class."""


class InvalidProbability(MarkovFlowError):
    """A probability vector is negative or not normalized."""


class SingularBeyondNullity(MarkovFlowError):
    """The stationary system is numerically rank-deficient beyond the
    expected one-dimensional null space."""


class TooLarge(MarkovFlowError):
    """Input exceeds a size cap: a continuum grid with more than
    ``continuum.MAX_CELLS`` cells, or a sparse operand with more than
    ``core.DENSE_MAX_STATES`` states passed to a method that needs it
    dense."""


class InvalidFlow(MarkovFlowError):
    """A composed flow has a negative off-diagonal entry: the circulation
    is too strong for the symmetric part."""


class NotSymmetric(MarkovFlowError):
    """Matrix expected to be symmetric is not, beyond tolerance."""


class NotAntisymmetric(MarkovFlowError):
    """Matrix expected to be antisymmetric is not, beyond tolerance."""


class RowSumViolation(MarkovFlowError):
    """Flow matrix rows do not sum to zero within tolerance."""


class NotBalanced(MarkovFlowError):
    """Matrix passed as a circulation has nonzero net flow at some node."""


class StepTooLarge(MarkovFlowError):
    """Fixed integration step exceeds the stability guard."""


class PositivityViolation(MarkovFlowError):
    """A reference distribution has a nonpositive entry."""


class Overflow(MarkovFlowError):
    """A result leaves the range of double precision: a potential too wide
    for exp(), or a master-equation step whose state is not finite."""


class ExcessiveClipping(MarkovFlowError):
    """Discretization produced too much negative off-diagonal flux;
    the grid is too coarse for the requested advection strength."""


class NoConvergence(MarkovFlowError):
    """The eigensolver did not converge, or its eigensystem fails a
    checked invariant (PSD, reconstruction, orthonormality)."""


class BoundViolated(MarkovFlowError):
    """Measured divergence decay exceeds the proven spectral bound;
    this signals an implementation bug, not a property of the chain."""


class DisconnectedWarning(UserWarning):
    """Symmetric flow graph is disconnected: the decay bound degenerates."""


class CycleCountWarning(UserWarning):
    """Greedy cycle peeling produced more cycles than the circulation
    degree-of-freedom count (n-1)(n-2)/2."""
