"""Exception types shared across the package."""


class ParseError(ValueError):
    """Matrix or scalar text that cannot be parsed exactly."""


class SizeGuardError(ValueError):
    """A brute-force minor enumeration was refused because the matrix is
    too large; pass a larger ``max_size`` to override."""


class NotInClassError(ArithmeticError):
    """The matrix is in no class, or not in the one declared for it."""


class NotTotallyNonnegativeError(ArithmeticError):
    """Neville elimination detected that its input is not totally nonnegative."""


class MovePreconditionError(ValueError):
    """An elimination move's preconditions do not hold."""


class ReplayError(ValueError):
    """A recorded trace cannot be replayed against the given matrix."""
