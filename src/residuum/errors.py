"""Exception hierarchy shared by all residuum modules."""


class ResiduumError(Exception):
    """Base class for all errors raised by this package."""


# --- exact algebra ---

class AlgebraError(ResiduumError):
    pass


class ZeroInputError(AlgebraError):
    """An operation received a zero polynomial where nonzero is required."""


class DivisionError(AlgebraError):
    """Exact polynomial division failed (the divisor does not divide)."""


# --- denominator preparation ---

class DenominatorError(ResiduumError):
    pass


class CoprimalityViolation(DenominatorError):
    """Two denominator factors share a root sheet in the distinguished variable."""


class NonSquarefreeFactor(DenominatorError):
    """A denominator factor is not squarefree in the distinguished variable."""


class FactorFreeOfVariable(DenominatorError):
    """A factor, or a factor of it, is free of the distinguished variable."""


class MultiplePole(DenominatorError):
    """A simple-pole-only operation was called with a higher multiplicity."""


# --- one-variable residues ---

class IrrationalPole(ResiduumError):
    """The denominator admits no exact linear split over the Gaussian rationals."""


# --- Leray reduction ---

class PoleReductionObstruction(ResiduumError):
    """A residual high-order pole term is not exact; pole lowering failed."""


class NonConstantResidueForm(ResiduumError):
    """A degree-0 reduced residue failed the constancy check on its component."""


class ChartError(ResiduumError):
    """The chosen chart variable is invalid on the hypersurface."""


class NonClosedForm(ResiduumError, ValueError):
    """The input form is not d-closed, so it has no reduced residue."""
