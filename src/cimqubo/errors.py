"""Shared exception types."""


def _rebuild(cls, args, state):
    error = cls.__new__(cls, *args)
    error.__dict__.update(state)
    return error


class CimQuboError(Exception):
    """Base class for all toolkit errors."""

    def __reduce__(self):
        # pickle by message and attributes: __init__ of a subclass may take other
        # arguments, so a worker process can send any of these errors back
        return _rebuild, (type(self), self.args, self.__dict__)


class ValidationError(CimQuboError):
    """A value violates a domain invariant."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class ParseError(CimQuboError):
    """Malformed input text."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class DimensionError(CimQuboError):
    """Vector or matrix shape does not match the model."""


class CapacityError(CimQuboError):
    """A value exceeds what the array or algorithm can represent."""


class ConfigurationError(CimQuboError):
    """Inconsistent or unsupported run configuration."""


class SamplingError(CimQuboError):
    """The Monte Carlo sampler could not reach the requested class counts."""

    def __init__(self, message: str, feasible_found: int = 0, infeasible_found: int = 0):
        super().__init__(message)
        self.feasible_found = feasible_found
        self.infeasible_found = infeasible_found
