"""The LAPACK kernels _eigh, _eigvalsh and _solve: numpy.linalg bit for bit, its errors, its scope, one import.

These tests also run at the oldest numpy pyproject admits, where they check
that the three gufuncs exist under the names core calls and that np.errstate,
applied as a decorator, scopes each kernel there too.
"""

from __future__ import annotations

import ast
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qsd import core
from qsd.core import _eigh, _eigvalsh, _solve

SRC = Path(core.__file__).resolve().parent
SPECIAL = (0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1.0, -1.0, 0.5)
ENTRIES = st.one_of(st.sampled_from(SPECIAL), st.floats(-4.0, 4.0, width=64))


def same_bytes(got, want) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def orthogonal(d: int, dtype) -> np.ndarray:
    """A fixed dense unitary (orthogonal for float64) of dimension d."""
    rng = np.random.default_rng(d)
    a = rng.standard_normal((d, d)) + (1j * rng.standard_normal((d, d)) if dtype == np.complex128 else 0.0)
    return np.linalg.qr(a)[0]


@st.composite
def stacks(draw):
    """A float64 or complex128 stack of shape (d, d), (k, d, d) or (2, k, d, d), d in 1..8.

    As drawn it is not Hermitian; it may be replaced by its Hermitian part or
    by a dense matrix with repeated eigenvalues (a diagonal of few distinct
    values, ±0.0 and subnormals among them, in a fixed dense basis).
    """
    d = draw(st.integers(1, 8))
    k = draw(st.integers(1, 3))
    lead = draw(st.sampled_from([(), (k,), (2, k)]))
    dtype = draw(st.sampled_from([np.float64, np.complex128]))
    parts = 2 if dtype == np.complex128 else 1
    raw = draw(hnp.arrays(np.float64, (*lead, d, d, parts), elements=ENTRIES))
    a = np.ascontiguousarray(raw).view(dtype)[..., 0]
    kind = draw(st.sampled_from(["general", "hermitian", "repeated"]))
    if kind == "hermitian":
        a = core.hermitian_part(a)
    elif kind == "repeated":
        u = orthogonal(d, dtype)
        diagonal = draw(hnp.arrays(np.float64, (*lead, d), elements=st.sampled_from(SPECIAL[:4] + (2.0,))))
        a = (u * diagonal[..., None, :]) @ u.conj().T
    return np.ascontiguousarray(a, dtype=dtype)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(stacks())
def test_eigen_kernels_equal_numpy_linalg_bit_for_bit(a):
    for kernel, reference in ((_eigh, np.linalg.eigh), (_eigvalsh, np.linalg.eigvalsh)):
        try:
            want = reference(a)
        except np.linalg.LinAlgError as error:
            with pytest.raises(np.linalg.LinAlgError, match=f"^{error}$"):
                kernel(a)
            continue
        got = kernel(a)
        for g, w in zip(got, want) if kernel is _eigh else [(got, want)]:
            same_bytes(g, w)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.integers(1, 5), st.sampled_from([np.float64, np.complex128]), st.data())
def test_solve_kernel_equals_numpy_linalg_on_well_conditioned_systems(m, dtype, data):
    parts = 2 if dtype == np.complex128 else 1
    noise = data.draw(hnp.arrays(np.float64, (m, m, parts), elements=st.floats(-1.0, 1.0)))
    rhs = data.draw(hnp.arrays(np.float64, (m, parts), elements=ENTRIES))
    # Diagonally dominant: |a_ii| = m + 1 > sum of the other |a_ij| in its row.
    a = np.ascontiguousarray(noise).view(dtype)[..., 0] / parts + (m + 1) * np.eye(m)
    b = np.ascontiguousarray(rhs).view(dtype)[..., 0]
    same_bytes(_solve(a, b), np.linalg.solve(a, b))


def test_kernels_equal_numpy_linalg_at_d_32():
    rng = np.random.default_rng(32)
    a = core.hermitian_part(rng.standard_normal((3, 32, 32)) + 1j * rng.standard_normal((3, 32, 32)))
    for stack in (a, a[0], a.real.copy()):
        for got, want in zip(_eigh(stack), np.linalg.eigh(stack)):
            same_bytes(got, want)
        same_bytes(_eigvalsh(stack), np.linalg.eigvalsh(stack))


def invalid(*args):
    """A stand-in gufunc that raises the floating-point invalid flag, as a LAPACK failure does."""
    return np.sqrt(np.float64(-1.0))


def failing(monkeypatch) -> None:
    """Make every kernel's gufunc fail as LAPACK does."""
    monkeypatch.setattr(core, "_umath_linalg", SimpleNamespace(eigh_lo=invalid, eigvalsh_lo=invalid, solve1=invalid))


def handler(err, flag):
    """A caller's own floating-point error callback."""


KERNEL_CALLS = pytest.mark.parametrize(
    ("kernel", "args", "message"),
    [
        (_eigh, (np.eye(2),), "Eigenvalues did not converge"),
        (_eigvalsh, (np.eye(2),), "Eigenvalues did not converge"),
        (_solve, (np.eye(2), np.ones(2)), "Singular matrix"),
    ],
    ids=["eigh", "eigvalsh", "solve"],
)
CALLER_STATES = pytest.mark.parametrize(
    "state",
    [
        {"all": "warn"},
        {"all": "raise"},
        {"divide": "raise", "over": "ignore", "under": "warn", "invalid": "call", "call": handler},
    ],
    ids=["warn", "raise", "custom"],
)


@KERNEL_CALLS
@CALLER_STATES
def test_lapack_failure_raises_numpy_linalg_error(monkeypatch, kernel, args, message, state):
    """In any state of the caller's, which the kernel leaves as it was."""
    failing(monkeypatch)
    with np.errstate(**state):
        before = np.geterr(), np.geterrcall()
        with pytest.raises(np.linalg.LinAlgError, match=f"^{message}$"):
            kernel(*args)
        assert (np.geterr(), np.geterrcall()) == before


@CALLER_STATES
def test_singular_system_raises_numpy_linalg_error(state):
    with np.errstate(**state):
        before = np.geterr(), np.geterrcall()
        with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
            _solve(np.ones((2, 2)), np.ones(2))
        assert (np.geterr(), np.geterrcall()) == before


@KERNEL_CALLS
def test_the_callers_own_warning_after_a_kernel_call_still_warns(monkeypatch, kernel, args, message):
    kernel(*args)
    with pytest.warns(RuntimeWarning, match="invalid value"):
        np.sqrt(np.array(-1.0))
    failing(monkeypatch)
    with pytest.raises(np.linalg.LinAlgError, match=f"^{message}$"):
        kernel(*args)
    with pytest.warns(RuntimeWarning, match="invalid value"):
        np.sqrt(np.array(-1.0))


def test_gufuncs_are_imported_once_and_numpy_linalg_eigen_calls_are_gone():
    banned = ("eigh", "eigvalsh", "solve", "lstsq")
    imports, calls = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and node.attr == "_umath_linalg":
                names = ["numpy.linalg._umath_linalg"]
            else:
                names = []
            imports += [(path.name, name) for name in names if "_umath_linalg" in name]
            if isinstance(node, ast.ImportFrom) and node.module in ("numpy.linalg", "numpy.linalg.linalg"):
                calls += [(path.name, alias.name) for alias in node.names if alias.name in banned]
            if (
                isinstance(node, ast.Attribute)
                and node.attr in banned
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "linalg"
            ):
                calls.append((path.name, node.attr))
    assert imports == [("core.py", "numpy.linalg._umath_linalg")]
    assert calls == []
