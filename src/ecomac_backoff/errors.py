"""Exception taxonomy shared by all modules."""


class ConfigError(ValueError):
    """A scenario or config-file value violates a documented invariant."""


class StateSpaceLimitError(RuntimeError):
    """Reachable state space exceeded the configured cap."""


class SolverError(RuntimeError):
    """A model cannot be solved: a transition row off 1 or a cycle among open edges."""


class RewardUndefinedError(ValueError):
    """Expected reward queried for a target that is not almost surely reached."""
