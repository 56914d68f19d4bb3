"""Shared exception types, the desk-scale enumeration budget and input checks."""

from __future__ import annotations

#: Default ceiling for every combinatorial enumeration (index functions,
#: formal word expansions, partition-tuple sweeps).  Overridable per call
#: and via the CLI ``--budget`` flag.
DEFAULT_BUDGET = 10_000_000


class SizeLimitError(ValueError):
    """An enumeration or expansion would exceed the configured budget."""


class KindError(TypeError):
    """An operator family of the wrong kind was supplied."""


class NotPOrthogonalError(ValueError):
    """Input family violates the p-orthogonality precondition.

    Carries the offending moment report in ``report``.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class ConstructionError(ValueError):
    """A family could not be built; ``witness`` exhibits the violation."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


def check_even_p(p: int) -> None:
    """Raise ValueError unless p is an even integer >= 2."""
    if p < 2 or p % 2:
        raise ValueError(f"p must be an even integer >= 2, got {p}")


def json_int(value, name: str) -> int:
    """``value`` if it is a JSON integer; ValueError for a bool, a float or the like."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def json_object(value, keys: tuple[str, ...], what: str) -> dict:
    """``value`` if it is a JSON object holding ``keys``; ValueError otherwise."""
    if not (isinstance(value, dict) and set(keys) <= value.keys()):
        raise ValueError(f"{what} must be an object with {', '.join(map(repr, keys))}")
    return value


def check_budget(count: int, budget: int, what: str) -> None:
    """Raise SizeLimitError when an enumeration of ``count`` items exceeds ``budget``."""
    if count > budget:
        raise SizeLimitError(
            f"{what} needs {count} items, exceeding the budget of {budget}"
        )
