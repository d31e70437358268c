"""Closed-form optimal two-state discrimination."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Povm, QsdError, StateEnsemble, _eigh, _frozen, hermitian_part

# Eigenvalues this close to zero are assigned to outcome 1; any split of a
# null eigenspace is optimal, a fixed rule keeps the output deterministic.
TIE_TOL = 1e-12


class WrongArity(QsdError):
    """Operation requires an ensemble of exactly two states."""


@dataclass(frozen=True)
class HelstromResult:
    """Optimal two-state guessing probability and the measurement attaining it.

    value is (1 + ||q1 rho1 - q2 rho2||)/2; the POVM projects onto the
    nonnegative and negative eigenspaces of the weighted difference.
    """

    value: float
    povm: Povm
    helstrom_operator: np.ndarray


def helstrom(ensemble: StateEnsemble) -> HelstromResult:
    """Optimal minimum-error discrimination of two states.

    Returns the closed-form value together with the projective measurement
    built from the spectral decomposition of q1 rho1 - q2 rho2, so that
    certificate_from_povm(ensemble, result.povm).objective reproduces
    result.value.
    """
    if len(ensemble) != 2:
        raise WrongArity(f"two states required, got {len(ensemble)}")
    h = ensemble.weighted_stack()[0] - ensemble.weighted_stack()[1]
    w, v = _eigh(h)
    keep = w >= -TIE_TOL
    m1 = hermitian_part(v[:, keep] @ v[:, keep].conj().T)
    povm = Povm(elements=(m1, np.eye(ensemble.dim) - m1))
    return HelstromResult(value=float(0.5 * (1.0 + np.abs(w).sum())), povm=povm, helstrom_operator=_frozen(h))
