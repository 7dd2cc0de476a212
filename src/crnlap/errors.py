"""Exception hierarchy shared by all crnlap modules."""


class CrnlapError(Exception):
    """Base class for all crnlap errors."""


# -- graph construction / auxiliary trees ------------------------------------

class DuplicateVertexError(CrnlapError):
    pass


class DuplicateEdgeError(CrnlapError):
    pass


class UnknownEndpointError(CrnlapError):
    pass


class SelfLoopError(CrnlapError):
    pass


class NonPositiveLabelError(CrnlapError):
    pass


class BadOrderError(CrnlapError):
    pass


class RootOutsideComponentError(CrnlapError):
    pass


class InvalidAuxTreeError(CrnlapError):
    pass


class NotStronglyConnectedError(CrnlapError):
    """Some edge of the digraph leaves its strongly connected component."""


# -- reaction networks --------------------------------------------------------

class DuplicateComplexError(CrnlapError):
    pass


class ShapeMismatchError(CrnlapError):
    pass


class NegativeComplexEntryError(CrnlapError):
    pass


class NotWeaklyReversibleError(CrnlapError):
    pass


class NonPositiveStateError(CrnlapError):
    pass


class FloatRangeError(CrnlapError):
    """A value that float64 arithmetic needs lies outside the float64 range."""


# -- equilibria ---------------------------------------------------------------

class NotACbeError(CrnlapError):
    pass


class NoConvergenceError(CrnlapError):
    """Newton iteration failed to converge; signals conditioning trouble."""


# -- geometry -----------------------------------------------------------------

class DimensionTooLargeError(CrnlapError):
    """Cycle enumeration refused above its supported number of cycles."""


class PointNotInStratumError(CrnlapError):
    pass


# -- simulation ---------------------------------------------------------------

class StepSizeUnderflowError(CrnlapError):
    pass


# -- document parsing ---------------------------------------------------------

class SchemaError(CrnlapError):
    """Malformed network document; `path` locates the offending field."""

    def __init__(self, message, path=""):
        super().__init__(message)
        self.path = path


class SemanticError(CrnlapError):
    """Well-formed document with inconsistent content."""

    def __init__(self, message, path=""):
        super().__init__(message)
        self.path = path
