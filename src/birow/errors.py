"""Exceptions shared across the package."""


class BirowError(Exception):
    pass


class PoleEncountered(BirowError):
    pass


class UnboundVariable(BirowError):
    pass


class OutOfRange(BirowError):
    pass


class HypothesisViolated(BirowError):
    pass


class MalformedOverlay(BirowError):
    pass


class OutOfRangeValue(BirowError):
    pass


class PreconditionViolated(BirowError):
    pass


class ParseError(BirowError):
    pass


class BudgetExceeded(BirowError):
    pass
