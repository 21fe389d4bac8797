"""Exception types shared across the package, their integer formats and the one budget refusal."""


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


def size_text(value: int) -> str:
    """A size for a message: in full while it fits in 64 bits, else to three
    digits (2.82e+4515), which Python's int-to-string digit limit never refuses."""
    if value.bit_length() <= 64:
        return str(value)
    from decimal import Decimal  # only oversized requests pay for the import
    return f"{Decimal(value):.3g}"


def int_text(value: int) -> str:
    """An integer for a message: in full where str() can print it, else as size_text does."""
    try:
        return str(value)
    except ValueError:  # past Python's int-to-string digit limit: -1.00e+5000
        return size_text(value)


def require_budget(size: int, budget: int, need: str, unit: str) -> None:
    """Refuse size > budget: BudgetExceededError("<need> = <size> <unit>, budget is <budget>")."""
    if size > budget:
        raise BudgetExceededError(f"{need} = {size_text(size)} {unit}, budget is {budget}")
