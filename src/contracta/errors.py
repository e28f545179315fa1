"""Exception hierarchy.

Validation errors (bad inputs, violated invariants) are distinct from
computation errors (numerics failing mid-run) so the CLI can map them to
different exit codes. ValidationError doubles as a ValueError, keeping plain
``raise``/``except`` usage idiomatic.
"""


class ContractaError(Exception):
    pass


class ScenarioParseError(ContractaError):
    """Scenario file could not be parsed (CLI exit code 2)."""


class ValidationError(ContractaError, ValueError):
    """Input violates a stated invariant or precondition (CLI exit code 3)."""


class DimensionError(ValidationError):
    pass


class CSetValidationError(ValidationError):
    pass


class UnboundedSetError(CSetValidationError):
    pass


class OriginNotInteriorError(CSetValidationError):
    pass


class EmptyInteriorError(CSetValidationError):
    pass


class NotControllableError(ValidationError):
    pass


class SeedNotContractiveError(ValidationError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class SeedValidationError(ValidationError):
    pass


class RateTooWeakError(ValidationError):
    pass


class ComputationError(ContractaError, RuntimeError):
    """Numerical computation failed (CLI exit code 4)."""


class EmptySetError(ComputationError):
    pass


class UnboundedDirectionError(ComputationError):
    pass


class FacetBudgetError(ComputationError):
    pass


class IterationBudgetError(ComputationError):
    pass
