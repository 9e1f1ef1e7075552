"""Exception taxonomy shared by all modules."""

import math


class ConfigError(ValueError):
    """A scenario or config-file value violates a documented invariant."""


class StateSpaceLimitError(RuntimeError):
    """Reachable state space exceeded the configured cap."""


class SolverError(RuntimeError):
    """A model cannot be solved: a transition row off 1 or a cycle among open edges."""


class RewardUndefinedError(ValueError):
    """Expected reward queried for a target that is not almost surely reached."""


def check_finite(what: str, keys: str, *values) -> None:
    """Refuse a result that left the float range before anyone reads it.

    Tick counts are finite integers, so only the configured scales `keys`
    can take a result there.
    """
    if not all(math.isfinite(v) for v in values if v is not None):
        raise ConfigError(f"{what} exceeds the float range; {keys} is too large")
