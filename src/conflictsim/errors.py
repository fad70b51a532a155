"""Exception hierarchy shared across the simulator."""


class SimulatorError(Exception):
    """Base class for all simulator errors."""


class UnknownWalletError(SimulatorError):
    pass


class TokenOverflowError(SimulatorError):
    """Token arithmetic left the 64-bit amount domain."""


class TimeInPastError(SimulatorError):
    pass


class UnknownNodeError(SimulatorError):
    pass


class InfeasibleSpecError(SimulatorError):
    """A conflict-generation spec cannot produce a mutually conflicting set."""


class ScenarioParseError(SimulatorError):
    """Malformed scenario file. Carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ScenarioValidationError(SimulatorError):
    """A well-formed scenario file violates a config invariant."""


class StateMismatchError(SimulatorError):
    """Parallel bench run diverged from the serial reference ledger."""


class EmptyInputError(SimulatorError):
    """An aggregation was asked to summarize zero records."""


class TerminalStatusError(SimulatorError):
    """A terminal status was set on a transaction that already had one."""
