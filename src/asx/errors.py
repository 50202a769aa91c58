"""Exception types shared across the package."""


class AsxError(Exception):
    """Base class for all errors raised by asx."""


# --- exact algebra ---

class MixedScalars(AsxError):
    """Scalars of incompatible kinds (e.g. two different radicands) were mixed."""


class SingularMatrix(AsxError):
    """Matrix inversion was requested for a matrix with zero determinant."""


class ComplexRoots(AsxError):
    """An irreducible quadratic factor has a negative discriminant, so a
    polynomial expected to split over the reals has complex roots."""


class UnsupportedAlgebraicDegree(AsxError):
    """A polynomial has an irreducible factor of degree >= 3; the scalar
    tower only supports quadratic extensions of the rationals."""


# --- scheme core ---

class InvariantViolation(AsxError):
    """A structural invariant of a parameter set does not hold."""


class RepeatedEigenvalue(AsxError):
    """The annihilator has a repeated root, so the parameter set cannot
    come from a genuine scheme with distinct (dual) eigenvalues."""


class InconsistentEigenmatrices(AsxError):
    """The two exact formulas for the intersection numbers disagree."""


class InvalidPartition(AsxError):
    """A fusion partition is malformed (blocks must partition {0..d} with
    the first block equal to {0})."""


class WellDefinednessViolation(AsxError):
    """Block sums of Krein parameters disagree across representatives of a
    target block, so the partition does not define a fusion."""


# --- case V ---

class DegenerateParameter(AsxError):
    """The one-parameter family is degenerate at this value (m <= 1)."""


class ConsistencyFailure(AsxError):
    """A permutation-invariance or zero-pattern identity failed."""


class StepFailure(AsxError):
    """A step of the symbolic derivation chain failed to verify."""


class VerificationFailure(AsxError):
    """The full nonexistence run hit an unexpected state; names the branch
    and step."""


# --- oracle schemes ---

class NotAScheme(AsxError):
    """The relation matrices violate the association scheme axioms."""


class NotPPolynomial(AsxError):
    """The first intersection matrix is not irreducible tridiagonal for the
    given relation order."""


class UnknownName(AsxError):
    """Unknown named scheme."""


class InvalidParameter(AsxError):
    """Invalid parameter for a named scheme or search."""


# --- CLI / parsing ---

class ParseError(AsxError):
    """Parameter file syntax error, with position info."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"line {line}, col {col}: {message}" if line else message)
        self.line = line
        self.col = col
        self.message = message


class ZeroDenominator(ParseError):
    """A scalar literal has denominator zero."""
