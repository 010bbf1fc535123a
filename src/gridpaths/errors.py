"""Exception types, the solver budget and the JSON type rule shared across modules."""

DEFAULT_BUDGET = 10_000_000


class BudgetExceededError(RuntimeError):
    """A solver hit its node-expansion cap before deciding feasibility."""

    def __init__(self, budget: int):
        super().__init__(f"expansion budget of {budget} exhausted")
        self.budget = budget


class EmbeddingError(ValueError):
    """Coordinates give no rotation system: two neighbours share a direction.

    On a gadget built from a valid instance this is a layout defect, not bad input.
    """


def exact(kind: type, value):
    """``value`` if its type is exactly ``kind``, else a TypeError naming the JSON type expected.

    Every JSON reader unpacks its values through this: int() would truncate 1.9, parse "1"
    and take true as 1, and a string or an object unpacks like a list.
    """
    if type(value) is not kind:
        raise TypeError(f"expected a JSON {kind.__name__}, got {value!r}")
    return value
