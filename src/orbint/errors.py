"""Error taxonomy for the engine.

Every failure mode that callers are expected to handle has its own class, so
scene runs can map any engine problem to a stable, documented report entry
instead of a traceback.
"""


class OrbintError(Exception):
    """Base class for all engine errors."""


# --- exact arithmetic / linear algebra ---------------------------------------

class DegreeTooLarge(OrbintError):
    """Univariate factorization request above the configured degree bound."""


# --- polynomial kernel --------------------------------------------------------

class EffortExceeded(OrbintError):
    """A Groebner/elimination computation passed its configured budget."""


class UnitIdeal(OrbintError):
    """The ideal contains 1; the zero set is empty."""


class NotZeroDimensional(OrbintError):
    """A zero-dimensional quotient algebra was required."""


# --- groups -------------------------------------------------------------------

class NotFinite(OrbintError):
    """Closure enumeration exceeded the group-size bound."""


class NotFaithful(OrbintError):
    """A non-identity element acts as the identity matrix."""


# --- quotient models ----------------------------------------------------------

class NotInvariant(OrbintError):
    """A supplied generator is not fixed by the group."""


class NotInSubalgebra(OrbintError):
    """An invariant polynomial is not expressible in the chosen generators."""


# --- cycles -------------------------------------------------------------------

class NotProper(OrbintError):
    """Supports do not meet in the expected codimension."""


class PositiveDimensionalIntersection(NotProper):
    """Proper but positive-dimensional intersection whose pair sum is
    neither a principal hypersurface nor a certified (solved-graph) prime
    (a zero-dimensional pair sum is always split).  The message names only
    the solved-graph subclass and stays as it is, because recorded product
    results contain it."""


class SeparationFailure(OrbintError):
    """No separating linear form found within the retry budget."""


class UnsupportedPreimageShape(OrbintError):
    """A map preimage is neither a principal hypersurface, zero-dimensional,
    nor a certified (solved-graph) prime."""


class NotEquidimensional(OrbintError):
    """Fibre-dimension checks for a map pull-back failed."""


class NotFiniteOnSupport(OrbintError):
    """A map restricted to a cycle support has positive-dimensional fibres."""


class SampleDisagreement(OrbintError):
    """Two generic samples of a mapping degree disagree."""


class SpecializationDegenerate(OrbintError):
    """A family member jumps dimension at the requested parameter value."""


# --- differential forms -------------------------------------------------------

class ChartMismatch(OrbintError):
    """Two forms (or a form and a map) live on different charts."""


class DenominatorVanishesIdentically(OrbintError):
    """A coefficient denominator pulls back to the zero polynomial."""


class AnsatzExhausted(OrbintError):
    """The descent solver found no solution within its bounds."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


# --- scenes -------------------------------------------------------------------

class SceneError(OrbintError):
    """Base for scene-file problems; carries a line number."""

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", col {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


class ParseError(SceneError):
    """Malformed scene syntax."""


class SceneNameError(SceneError):
    """Duplicate or undefined name in a scene."""


class ChartError(SceneError):
    """An expression uses variables not belonging to its chart."""


# --- warnings -----------------------------------------------------------------

class NonCMWarning(UserWarning):
    """Neither intersectand is a complete intersection; the local
    vector-space dimension may overcount the intersection multiplicity."""


class GenerationDeficit(UserWarning):
    """The supplied invariants provably fail to generate in some degree."""
