"""Exception types shared across the package."""


class ParameterError(ValueError):
    """An operation received out-of-contract parameters."""


class FitError(ValueError):
    """A power-law fit had too few usable points."""


class DisconnectedGraphError(ValueError):
    """An operation that requires a connected graph got a disconnected one."""


class TrajectoryRangeError(ValueError):
    """An analysis window extends beyond the recorded trajectory."""


class ConfigError(ValueError):
    """Malformed or out-of-range experiment configuration."""
