"""Exception hierarchy for matlislab."""


class MatlisLabError(Exception):
    """Base class for all engine errors."""


class DimensionMismatch(MatlisLabError):
    pass


class ParentMismatch(MatlisLabError):
    pass


class NotLocal(MatlisLabError):
    pass


class BoundNotCertified(MatlisLabError):
    pass


class InconsistentPresentation(MatlisLabError):
    pass


class NotASubmodule(MatlisLabError):
    pass


class NotUniserial(MatlisLabError):
    pass


class NotARepresentation(MatlisLabError):
    """Matrices given for the variables are not an action of the algebra."""


class NotEquivariant(MatlisLabError):
    pass


class NotFree(MatlisLabError):
    pass


class UnknownModuleRef(MatlisLabError):
    pass


class FixtureParseError(MatlisLabError):
    """Malformed fixture file; carries position info in the message."""


class FixtureValidationError(MatlisLabError):
    """Well-formed fixture violating a structural invariant."""


class CoverMismatch(MatlisLabError):
    """A free cover was given for another module than the one asked about."""


class OutputPathError(MatlisLabError):
    """The --out path cannot be written: a missing directory, a directory,
    or an operating-system error on writing."""
