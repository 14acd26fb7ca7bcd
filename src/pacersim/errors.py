"""Exception types shared across the simulator."""


class PacersimError(Exception):
    """Base class for all simulator errors."""


class InvalidConfig(PacersimError):
    pass


class RingUnderrun(PacersimError):
    """The NIC consumed past the producer index: the pacing loop fell behind."""


class InsertError(PacersimError):
    """Base class for packet-insertion failures."""


class NotPlaceholder(InsertError):
    pass


class OutOfWindow(InsertError):
    pass


class OwnershipViolation(InsertError):
    pass


class PayloadTooLarge(InsertError):
    pass


class NoSlotAvailable(InsertError):
    pass


class DegenerateInterval(PacersimError):
    pass


class InsufficientSamples(PacersimError):
    pass


class Overflow(PacersimError):
    pass


class ParseError(PacersimError):
    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class ValidationError(PacersimError):
    """A parsed config violates a documented invariant; names the invariant."""


class ServoDiverged(PacersimError, ValueError):
    """The sync servo's rate correction cannot be applied: the ratio is not
    a positive finite number, or it leaves no positive period."""

    def __init__(self, round_index, ratio):
        self.round = round_index
        self.ratio = ratio
        super().__init__(f"servo diverged in round {round_index} "
                         f"(rate ratio {ratio!r})")
