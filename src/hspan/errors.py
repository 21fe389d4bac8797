"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Shapes of the operands do not fit the operation."""


class NotPsdError(ValueError):
    """A matrix that must be positive semidefinite is not, beyond tolerance."""


class NotHermitianError(NotPsdError):
    """A matrix that must be Hermitian is not, beyond tolerance; such a
    matrix is never positive semidefinite either."""


class BudgetExceededError(RuntimeError):
    """An exact computation would exceed its configured size budget."""


class InstanceFormatError(ValueError):
    """An instance file is malformed or violates its declared invariants."""
