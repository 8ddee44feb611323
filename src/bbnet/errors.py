"""The one exception type bbnet raises for out-of-contract input, and the integer and real rules.

Every layer refuses bad input with ``ParameterError`` (the CLI's exit code
2). The integer parameters of every layer, from the BA graph's N and m to a
sweep's worker count, pass ``check_int``, so each is refused in the same
words. A graph's seed passes it unbounded: any int is masked to 64 bits.
Real-number parameters pass ``check_real`` before their ranges are checked.
"""

from __future__ import annotations

import operator
from numbers import Real


class ParameterError(ValueError):
    """An operation received out-of-contract parameters, a config or a file it cannot use."""


def check_int(name: str, value: int, least: int, below: int | None = None) -> int:
    """``value`` as a Python int if it is an integer (numpy's too, not a bool) in [least, below)."""
    if type(value) is not int:
        if isinstance(value, bool) or not hasattr(value, "__index__"):
            raise ParameterError(f"need an integer {name}, got {value!r}")
        value = operator.index(value)
    if value < least:
        raise ParameterError(f"need {name} >= {least}, got {value}")
    if below is not None and value >= below:
        raise ParameterError(f"need {name} < {below}, got {value}")
    return value


def check_real(name: str, value: float) -> None:
    """Refuse ``value`` unless it is a real number (numpy's too, not a bool)."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ParameterError(f"need a real number {name}, got {value!r}")
