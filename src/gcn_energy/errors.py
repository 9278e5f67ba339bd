"""Exception types shared across the package, and :func:`check_real`, the one
rule of every real number a user gives."""

import math
import numbers


class ValidationError(ValueError):
    """Invalid input or violated precondition."""


class ParseError(ValidationError):
    """Malformed text input (edge lists, config documents)."""


class NumericError(RuntimeError):
    """A numerical routine failed (non-convergence, overflow)."""


class DegenerateSpectrumError(ValidationError):
    """Every eigenvalue lies in the kernel: no nonzero eigenvalue exists."""


def check_real(name: str, value, lo: float = -math.inf, hi: float = math.inf, *,
               open_lo: bool = False, open_hi: bool = False) -> float:
    """The one rule of every real number a user gives: ``value`` of ``name``
    is a finite Python or numpy real, not a bool, from ``lo`` to ``hi``, each
    end closed unless opened.  It is returned as a float; anything else exits
    2.  Counts have their own rule, :func:`~gcn_energy.graphs.check_work_size`."""
    x = math.nan
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an int past the float range
            pass
    if math.isfinite(x) and (lo < x if open_lo else lo <= x) and (x < hi if open_hi else x <= hi):
        return x
    interval = (f"{'(' if open_lo or lo == -math.inf else '['}{lo:g}, "
                f"{hi:g}{')' if open_hi or hi == math.inf else ']'}")
    try:
        shown = repr(value)
    except ValueError:  # an int of more digits than Python converts to text
        shown = f"an int of {value.bit_length()} bits"
    raise ValidationError(f"{name} must lie in {interval}, "
                          f"got {shown if len(shown) <= 40 else shown[:37] + '...'}")
