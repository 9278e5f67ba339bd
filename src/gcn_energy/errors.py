"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Invalid input or violated precondition."""


class ParseError(ValidationError):
    """Malformed text input (edge lists, config documents)."""


class NumericError(RuntimeError):
    """A numerical routine failed (non-convergence, overflow)."""


class DegenerateSpectrumError(ValidationError):
    """Every eigenvalue lies in the kernel: no nonzero eigenvalue exists."""
