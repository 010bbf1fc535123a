"""Exception types, the solver budget and the JSON type and key rules shared across modules."""

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


BRIEF = 200  # the most characters of a value's repr that an error message echoes


def brief(value) -> str:
    """``repr(value)``, cut to its first ``BRIEF`` characters and ``...`` if longer.

    Error messages echo input values through this, so that one bad field of a large document does
    not echo the document.
    """
    text = repr(value)
    return text if len(text) <= BRIEF else text[:BRIEF] + "..."


def exact(kind: type, value):
    """``value`` if its type is exactly ``kind``, else a TypeError naming the JSON type expected.

    Every JSON reader unpacks its values through this: int() would truncate 1.9, parse "1"
    and take true as 1, and a string or an object unpacks like a list.
    """
    if type(value) is not kind:
        raise TypeError(f"expected a JSON {kind.__name__}, got {brief(value)}")
    return value


def exact_fields(data, *keys: str) -> list:
    """The values of ``keys`` in JSON object ``data``, which has exactly those keys, else a TypeError or KeyError.

    Every JSON reader takes its objects apart through this, so that no key a writer never writes is
    dropped unread.  A missing key with as many keys in all is the KeyError of reading it.
    """
    if type(data) is not dict:  # named by its type: the object may be a whole document
        raise TypeError(f"expected a JSON object with keys {list(keys)}, got a value of type {type(data).__name__}")
    if len(data) != len(keys):
        raise TypeError(f"keys {sorted(data)}, expected {list(keys)}")
    return [data[key] for key in keys]
