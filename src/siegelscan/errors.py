"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument violates a documented precondition."""


class CapacityError(RuntimeError):
    """A request exceeds a memory budget."""


class ContractError(ValueError):
    """A user-supplied function descriptor violates its declared contract."""
