"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid user-facing configuration (window shape, seeds, CLI flags)."""


class CouplingFault(RuntimeError):
    """A replayed ring contradicts the particle state it was derived from.

    This is an internal-consistency failure, not a statistical one: it means
    the ring generator and the replay engine disagree about the tree.
    """
