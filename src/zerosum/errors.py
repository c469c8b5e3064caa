"""Exception types shared across the package."""


class ZeroSumError(Exception):
    """Base class for package-specific errors."""


class InvalidFactorError(ZeroSumError, ValueError):
    """A group factor list is malformed (entries must be integers >= 2)."""


class GroupMismatchError(ZeroSumError, ValueError):
    """Operands belong to different groups."""


class InvalidParamsError(ZeroSumError, ValueError):
    """Construction parameters violate the required hypotheses."""


class InvalidInputError(ZeroSumError, ValueError):
    """An operation precondition was violated."""


class ResourceLimitError(ZeroSumError, RuntimeError):
    """A configured size or memory cap would be exceeded."""
