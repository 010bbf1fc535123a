"""Exception types and the solver budget shared across modules."""

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
