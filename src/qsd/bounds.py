"""Closed-form cyclic lower bound on the guessing probability."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import permutations

import numpy as np

from .core import QsdError, StateEnsemble, _frozen, _integer, _trace_norms

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
    value when N = 2.  The entries of ordering must be integers (numpy
    integers too, not bools) forming a permutation of 0..N-1, else
    BadPermutation.
    """
    n = len(ensemble)
    given = tuple(range(n) if ordering is None else ordering)
    order = tuple(map(_integer, given))
    if None in order or sorted(order) != list(range(n)):
        raise BadPermutation(f"{given} is not a permutation of 0..{n - 1}")
    weighted = ensemble.weighted_stack()
    terms = tuple(_trace_norms(weighted[list(order)] - weighted[list(order[1:] + order[:1])]).tolist())
    # builtin sum so the value is bit-reproducible from the recorded pair terms
    value = (1.0 + 0.5 * sum(terms)) / n
    return BoundReport(
        lower_bound=value,
        ordering=order,
        pair_terms=terms,
    )


def best_cyclic_bound(ensemble: StateEnsemble) -> BoundReport:
    """Maximize the cyclic bound over all orderings (up to rotation and reflection).

    Still a valid lower bound, since each ordering gives one.  The orderings
    are those of _orderings(N), scanned in lexicographic order; a later one
    wins only if its value exceeds the best so far by more than 1e-15, so
    ties go to the lexicographically smallest ordering for deterministic
    output.  Each ordering's value is formed from one table of ordered-pair
    norms by the additions lower_bound makes, so the report read from that
    table equals lower_bound(ensemble, ordering) of the winner bit for bit.
    """
    n = len(ensemble)
    if n > MAX_CYCLE_STATES:
        raise TooLarge(f"cyclic enumeration supports at most {MAX_CYCLE_STATES} states, got {n}")
    weighted = ensemble.weighted_stack()
    orders = _orderings(n)
    terms = _trace_norms(weighted[:, None] - weighted[None, :])[orders, np.roll(orders, -1, axis=1)]
    # The columns added left to right, as the builtin sum in lower_bound adds each ordering's terms.
    values = (1.0 + 0.5 * reduce(np.add, terms.T)) / n
    # Follow the running best: each step takes the first later ordering that beats it by more than 1e-15.
    best = 0
    later = np.flatnonzero(values > values[0] + 1e-15)
    while later.size:
        best = later[0]
        later = later[values[later] > values[best] + 1e-15]
    return BoundReport(float(values[best]), tuple(orders[best].tolist()), tuple(terms[best].tolist()))


@lru_cache(maxsize=MAX_CYCLE_STATES)
def _orderings(n: int) -> np.ndarray:
    """The read-only (M, n) table of the cyclic orderings of n >= 2 states, built once per n.

    Row by row, in lexicographic order, the permutations of 0..n-1 that put
    state 0 first and, for n >= 3, end above their second entry: one per
    cycle up to rotation and reflection, M = (n - 1)! / 2 (one for n = 2).
    """
    return _frozen(np.array([(0,) + p for p in permutations(range(1, n)) if p[0] <= p[-1]], dtype=np.intp))
