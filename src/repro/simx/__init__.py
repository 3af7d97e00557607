"""Engine label for callers that still ask which engine runs.

The simulator has one engine: :class:`repro.sim.chip.Chip` and its
issue loop.  This module only keeps :func:`resolve_engine` for callers
written when an opt-in array engine existed.
"""

__all__ = ["resolve_engine"]


def resolve_engine() -> str:
    """The simulation engine's name: always ``"object"``."""
    return "object"
