"""The one exception type bbnet raises for out-of-contract input."""


class ParameterError(ValueError):
    """An operation received out-of-contract parameters, a config or a file it cannot use."""
