"""Exception hierarchy shared across the engine, and the field check of the
config dataclasses, which raises its ConfigError."""

import math
import typing


class SpikefuseError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(SpikefuseError):
    """Operand shapes are inconsistent or not broadcast-compatible."""


class ParameterError(SpikefuseError):
    """An operation parameter is outside its legal range."""


class NumericError(SpikefuseError):
    """A non-finite value was produced (surfaced by the debug check)."""


class StateError(SpikefuseError):
    """Required state is missing: uninitialized statistics or absent
    gradients."""


class ArchError(SpikefuseError):
    """Architecture string failed to parse or validate.

    ``token_index`` locates the offending token in the dash-separated string;
    ``field`` is "variant" or "reduction" when that argument is at fault.
    """

    def __init__(self, message, token_index=None, field=None):
        if token_index is not None:
            message = f"token {token_index}: {message}"
        super().__init__(message)
        self.token_index, self.field = token_index, field


class EventFormatError(SpikefuseError):
    """Event file is malformed. ``offset`` is the byte offset of the problem."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class CheckpointError(SpikefuseError):
    """Checkpoint file is malformed or inconsistent with the network."""


class ConfigError(ParameterError):
    """A config document or config dataclass failed validation. ``field``
    is the dotted path, and ``reason`` the message without it."""

    def __init__(self, message, field=None):
        self.reason, self.field = message, field
        super().__init__(message if field is None else f"{field}: {message}")


class DivergenceError(NumericError):
    """Training produced a non-finite loss. Carries the partial run record."""

    def __init__(self, message, record=None):
        super().__init__(message)
        self.record = record


def typed(value, kind, field: str):
    """``value`` if it is a ``kind``: an int passes for a float, a bool for
    nothing but a bool, and a float must be finite (``json`` parses ``NaN``
    and ``Infinity``); else ConfigError naming ``field``."""
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise ConfigError(f"expected {kind.__name__}, got {type(value).__name__}", field=field)
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {value}", field=field)
    return value


def check_fields(obj) -> None:
    """Store ``typed`` of each field of dataclass ``obj`` (frozen or not) as
    its annotation's type; an ``Optional`` field may also be None."""
    for name, hint in typing.get_type_hints(type(obj)).items():
        kinds, value = typing.get_args(hint) or (hint,), getattr(obj, name)
        if value is not None or type(None) not in kinds:
            object.__setattr__(obj, name, typed(value, kinds[0], name))
