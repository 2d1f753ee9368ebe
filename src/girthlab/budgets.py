"""Node budgets for exhaustive enumerations.

The environment variable GIRTHLAB_BUDGET, when set, overrides both defaults.
Enumerations raise :class:`girthlab.errors.BudgetExceeded` instead of
silently timing out.
"""

import os

DEFAULT_CYCLE_BUDGET = 100_000_000
DEFAULT_SEARCH_BUDGET = 1_000_000_000


def node_budget(value=None, default=DEFAULT_SEARCH_BUDGET,
                source="budget") -> int:
    """value when given, else GIRTHLAB_BUDGET when set, else default. A
    budget that is not an integer >= 0 raises ValueError naming where it
    came from."""
    if value is None:
        value, source = os.environ.get("GIRTHLAB_BUDGET"), "GIRTHLAB_BUDGET"
        if not value:
            return default
    try:
        budget = int(value)
    except ValueError:
        budget = -1
    if budget < 0:
        raise ValueError(f"{source} must be a node count >= 0, got {value}")
    return budget
