"""Exception types shared across the library."""


class InvotError(Exception):
    """Base class for all library errors."""


class NegativeEntry(InvotError):
    pass


class MassMismatch(InvotError):
    pass


class MarginalMismatch(InvotError):
    pass


class ZeroReference(InvotError):
    pass


class NonSquare(InvotError):
    pass


class BadBounds(InvotError):
    pass


class RankDeficient(InvotError):
    pass


class ZeroObservation(InvotError):
    pass


class NumericalOverflow(InvotError):
    pass


class DimMismatch(InvotError):
    pass


class Diverged(InvotError):
    pass


class ParseError(InvotError):
    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class ShapeHeaderMismatch(InvotError):
    pass
