"""Closed-form cyclic lower bound on the guessing probability."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .core import QsdError, StateEnsemble, trace_norms

MAX_CYCLE_STATES = 8


class BadPermutation(QsdError):
    """Supplied ordering is not a permutation of the state indices."""


class TooLarge(QsdError):
    """Cyclic-order enumeration is capped at 8 states."""


@dataclass(frozen=True)
class BoundReport:
    """A certified lower bound (1/N)(1 + 1/2 sum of cyclic pair norms).

    pair_terms[i] is ||q_a rho_a - q_b rho_b|| for consecutive states (a, b)
    in the recorded ordering, wrapping around.
    """

    lower_bound: float
    ordering: tuple[int, ...]
    pair_terms: tuple[float, ...]


def lower_bound(ensemble: StateEnsemble, ordering=None) -> BoundReport:
    """Evaluate the cyclic lower bound in the given ordering (input order by default).

    The bound holds for every ordering; it reduces to the exact two-state
    value when N = 2.
    """
    n = len(ensemble)
    if ordering is None:
        order = tuple(range(n))
    else:
        order = tuple(int(i) for i in ordering)
        if sorted(order) != list(range(n)):
            raise BadPermutation(f"{order} is not a permutation of 0..{n - 1}")
    weighted = ensemble.weighted_stack()
    terms = tuple(trace_norms(weighted[list(order)] - weighted[list(order[1:] + order[:1])]).tolist())
    # builtin sum so the value is bit-reproducible from the recorded pair terms
    value = (1.0 + 0.5 * sum(terms)) / n
    return BoundReport(
        lower_bound=value,
        ordering=order,
        pair_terms=terms,
    )


def best_cyclic_bound(ensemble: StateEnsemble) -> BoundReport:
    """Maximize the cyclic bound over all orderings (up to rotation and reflection).

    Still a valid lower bound, since each ordering gives one.  Ties are broken
    toward the lexicographically smallest ordering for deterministic output.
    """
    n = len(ensemble)
    if n > MAX_CYCLE_STATES:
        raise TooLarge(f"cyclic enumeration supports at most {MAX_CYCLE_STATES} states, got {n}")
    if n <= 2:
        return lower_bound(ensemble)
    # Every ordered pair's norm once; each ordering then only sums table
    # entries, in lower_bound's order, so the winner's value is reproduced.
    weighted = ensemble.weighted_stack()
    table = trace_norms(weighted[:, None] - weighted[None, :]).tolist()
    best_order = tuple(range(n))
    best_value = _cycle_value(table, best_order)
    # Fix state 0 first and skip mirrored cycles.
    for rest in permutations(range(1, n)):
        if rest[0] > rest[-1]:
            continue
        order = (0,) + rest
        value = _cycle_value(table, order)
        if value > best_value + 1e-15 or (abs(value - best_value) <= 1e-15 and order < best_order):
            best_order, best_value = order, value
    return lower_bound(ensemble, best_order)


def _cycle_value(table: list[list[float]], order: tuple[int, ...]) -> float:
    n = len(order)
    return (1.0 + 0.5 * sum([table[order[i]][order[(i + 1) % n]] for i in range(n)])) / n
