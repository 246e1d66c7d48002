"""The work budget: one limit per resource, and the one check that refuses an input.

Each exact or quadratic routine predicts its use of one resource from its
input, before it starts, and passes the prediction to `check`. To cost O(1)
on a huge input, a prediction clamps each exponent and factorial argument
to BITS, which changes only predictions of 2^BITS or more; `check` shows
those as "at least 2^BITS".
"""

#: The allowed amount of each resource; a resource's name is its unit.
LIMITS = {
    "store bytes": 1 << 29,  # a label store, or greedy's coverable pair ids
    "graph vertices": 1 << 20,  # a hypercube, or the header of a graph file
    "Fraction cells": 3_000_000,  # an LP tableau, or a materialized LP's coefficients
    "cut pair edges": 1 << 15,  # ROPT's min-cut network
    "search steps": 1 << 24,  # HHL order enumeration, densest pair subgraphs
    "branch-and-bound vertices": 6,  # brute_optimal_hl, whose nodes have no input bound
    "bit operations": 1 << 33,  # the exact psi table; admits d <= 2047
}
BITS = 64


class BudgetError(ValueError):
    """An input whose predicted work exceeds the limit of its resource."""


def fits(predicted: int, resource: str) -> bool:
    """Whether `predicted` units of `resource` are within its limit."""
    return predicted <= LIMITS[resource]


def check(what: str, predicted: int, resource: str) -> None:
    """Raise BudgetError, naming `what` and the predicted and allowed
    amounts, unless `predicted` units of `resource` are within its limit."""
    if not fits(predicted, resource):
        shown = f"at least 2^{BITS}" if predicted >= 1 << BITS else predicted
        raise BudgetError(f"{what} needs {shown} {resource}; budget {LIMITS[resource]}")
