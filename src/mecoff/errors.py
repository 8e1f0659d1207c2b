"""Exception types shared across the package."""


class MecoffError(Exception):
    """Base of every error the package raises for a bad input or limit."""


class InvalidParameterError(MecoffError, ValueError):
    """An argument is outside the domain a function is defined on."""


class ConstraintViolationError(MecoffError, RuntimeError):
    """A hard resource limit (C1..C5) was exceeded.

    `constraints` names the violated limits, e.g. ("C4",).
    """

    def __init__(self, constraints, message):
        super().__init__(message)
        self.constraints = tuple(constraints)


class DegenerateSignalError(MecoffError, ValueError):
    """A correlation was requested against a zero-variance signal."""


class ConfigError(MecoffError, ValueError):
    """A scenario or sweep configuration field is invalid."""
