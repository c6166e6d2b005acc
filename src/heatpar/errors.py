"""Exception types shared across the package.

Two families matter to callers: contract/domain errors (bad inputs,
CLI exit status 2) and numerical-budget errors (a computation could not
reach its accuracy target, CLI exit status 3).
"""


class ContractViolation(ValueError):
    """An operation was called with arguments violating its preconditions."""


class DomainError(ValueError):
    """A numeric argument lies outside the certified or admissible domain."""


class ParseError(ValueError):
    """A graph document could not be parsed or validated."""


class NumericalBudgetError(RuntimeError):
    """A numerical accuracy or convergence budget was exceeded."""


class SamplingError(NumericalBudgetError):
    """A closed-form kernel returned a non-finite value."""


class NonConvergenceError(NumericalBudgetError):
    """A correction series has no bounded solution on the time grid, or its
    term bound never meets the tolerance."""
