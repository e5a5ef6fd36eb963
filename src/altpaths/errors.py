"""Exception types shared across the package."""


class AltPathError(Exception):
    """Base class for all package errors."""


class LoopEdge(AltPathError):
    pass


class TwoCycle(AltPathError):
    pass


class DuplicateEdge(AltPathError):
    pass


class BadParams(AltPathError):
    pass


class TooLarge(AltPathError):
    pass


class EmptyGraph(AltPathError):
    pass


class FormatError(AltPathError):
    pass


class TooShort(AltPathError):
    pass


class VacuousParams(AltPathError):
    pass


class IoFailure(AltPathError):
    pass
