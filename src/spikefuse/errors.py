"""Exception hierarchy shared across the engine."""


class SpikefuseError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(SpikefuseError):
    """Operand shapes are inconsistent or not broadcast-compatible."""


class ParameterError(SpikefuseError):
    """An operation parameter is outside its legal range."""


class NumericError(SpikefuseError):
    """A non-finite value was produced (surfaced by the debug check)."""


class StateError(SpikefuseError):
    """Required state is missing: uninitialized statistics, absent gradients,
    or a trajectory requested before a forward pass."""


class ArchError(SpikefuseError):
    """Architecture string failed to parse or validate.

    ``token_index`` locates the offending token in the dash-separated string.
    """

    def __init__(self, message, token_index=None):
        if token_index is not None:
            message = f"token {token_index}: {message}"
        super().__init__(message)
        self.token_index = token_index


class EventFormatError(SpikefuseError):
    """Event file is malformed. ``offset`` is the byte offset of the problem."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class CheckpointError(SpikefuseError):
    """Checkpoint file is malformed or inconsistent with the network."""


class ConfigError(SpikefuseError):
    """A config document failed validation. ``field`` is the dotted path,
    and ``reason`` the message without it."""

    def __init__(self, message, field=None):
        self.reason, self.field = message, field
        super().__init__(message if field is None else f"{field}: {message}")


class DivergenceError(NumericError):
    """Training produced a non-finite loss. Carries the partial run record."""

    def __init__(self, message, record=None):
        super().__init__(message)
        self.record = record
