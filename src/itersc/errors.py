"""Exception hierarchy shared by all itersc modules."""


class IterscError(Exception):
    """Base class for every error raised by this package."""


class InvalidConfigurationError(IterscError):
    """A run was requested with parameters the model cannot represent."""


class InvalidArgumentError(IterscError):
    """An argument is outside the operation's accepted range."""


class DomainError(IterscError):
    """A combinatorial operation was called outside its domain."""


class RoundMismatchError(IterscError):
    """Two states that must share a round number do not."""


class NoInvocationsError(IterscError):
    """A round-0 state has no invocation specification."""


class InvalidScheduleError(IterscError):
    """A round schedule violates the event order of its model."""


class UnresolvedInstanceError(IterscError):
    """A contended safe-consensus instance has no adversary choice."""


class InvalidAdversaryError(IterscError):
    """An adversary choice fell outside the output domain 1..n."""


class ModelMismatchError(IterscError):
    """A protocol was used under the wrong iterated model."""


class InvalidInputError(IterscError):
    """Task inputs do not satisfy the task's input requirements."""


class BudgetExceededError(IterscError):
    """An exhaustive enumeration would exceed the configured budget."""


class PreconditionViolationError(IterscError):
    """A documented precondition of an operation does not hold."""


class ConstructionError(IterscError):
    """A path construction guaranteed by theory failed verification."""


class ProtocolInvariantError(IterscError):
    """A protocol's internal invariant was broken during a run."""
