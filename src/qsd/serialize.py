"""Instance and report serialization: version-tagged JSON, reproducible bytes.

Matrices are nested arrays of [re, im] pairs; every real is written with 17
significant digits so parsed values round-trip bit-exactly and identical runs
produce identical files.  Instances are hashed over their canonical
re-serialization, making the hash independent of formatting.

Whole arrays are coded at once.  dump_json writes a regular nested list of
floats (a row, a matrix of [re, im] pairs, a stack of them) with one cached
format string, and decode_matrix checks a matrix's shape and entry types in
one pass over its lists and converts it with one numpy call; the per-entry
walk runs only to name a malformed entry.
"""

from __future__ import annotations

import hashlib
import json
import math
from functools import lru_cache
from itertools import chain

import numpy as np

from .core import QsdError, StateEnsemble, make_ensemble, validate_density

INSTANCE_VERSION = "qsd-1"
REPORT_VERSION = "qsd-report-1"
# The exact types of a JSON number: bool, a subclass of int, is not one.
_NUMBER_TYPES = frozenset((int, float))


class FormatError(QsdError):
    """Input file is not a well-formed instance or report."""


def format_real(x: float) -> str:
    if not math.isfinite(x):
        raise FormatError(f"cannot serialize non-finite value {x!r}")
    return format(float(x), ".17g")


def dump_json(obj) -> str:
    """Deterministic JSON with fixed float formatting and stable key order."""
    return _emit(obj, 0)[0] + "\n"


def _emit(obj, level: int) -> tuple[str, bool]:
    """obj as JSON text at nesting level, and whether it holds a dict.

    A list is written on one line unless it holds a dict at any depth.
    """
    if type(obj) is float:
        return format_real(obj), False
    if isinstance(obj, dict):
        if not obj:
            return "{}", True
        inner = "  " * (level + 1)
        parts = [f"{inner}{json.dumps(str(k))}: {_emit(v, level + 1)[0]}" for k, v in obj.items()]
        return "{\n" + ",\n".join(parts) + "\n" + "  " * level + "}", True
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]", False
        if type(obj) is list and (text := _float_array(obj)) is not None:
            return text, False
        emitted = [_emit(v, level + 1) for v in obj]
        if not any(holds for _, holds in emitted):
            return "[" + ", ".join(text for text, _ in emitted) + "]", False
        inner = "  " * (level + 1)
        return "[\n" + ",\n".join(inner + text for text, _ in emitted) + "\n" + "  " * level + "]", True
    if isinstance(obj, (bool, np.bool_)):
        return ("true" if obj else "false"), False
    if obj is None:
        return "null", False
    if isinstance(obj, (int, np.integer)):
        return str(int(obj)), False
    if isinstance(obj, (float, np.floating)):
        return format_real(float(obj)), False
    if isinstance(obj, str):
        return json.dumps(obj), False
    raise FormatError(f"cannot serialize object of type {type(obj).__name__}")


def _leaves(obj: list) -> tuple[tuple[int, ...], list]:
    """The shape of a nested list, down to the depth where it stops being regular, and its entries at that depth.

    Regular means that every entry at one depth is a list, all of one length.
    """
    shape, level = [len(obj)], obj
    while set(map(type, level)) == {list} and len(lengths := set(map(len, level))) == 1:
        shape.append(lengths.pop())
        level = list(chain.from_iterable(level))
    return tuple(shape), level


def _float_array(obj: list) -> str | None:
    """A regular nested list of floats (a row, a matrix, a stack) as _emit's generic path writes it, or None."""
    shape, values = _leaves(obj)
    if set(map(type, values)) != {float}:
        return None
    if not math.isfinite(sum(values)):  # a non-finite value, or finite values whose sum overflows
        for x in values:
            format_real(x)
    return _array_format(shape) % tuple(values)


@lru_cache(maxsize=64)
def _array_format(shape: tuple[int, ...]) -> str:
    """The one format string that writes a nested list of floats of this shape."""
    return "[" + ", ".join([_array_format(shape[1:]) if len(shape) > 1 else "%.17g"] * shape[0]) + "]"


def encode_matrix(matrix: np.ndarray) -> list:
    """Rows of [re, im] pairs of a complex matrix, or a list of such matrices for an (N, d, d) stack, as Python floats."""
    a = np.array(matrix, dtype=complex, order="C")
    return a.view(float).reshape(*a.shape, 2).tolist()


def decode_matrix(data, context: str) -> np.ndarray:
    """The complex d x d matrix coded by data, a list of d rows of d [re, im] number pairs.

    A number is a JSON int or float, not a boolean.  Well-formed data is
    checked and converted whole; anything else is walked entry by entry,
    which raises a FormatError naming the first malformed entry.
    """
    if not isinstance(data, list) or not data:
        raise FormatError(f"{context}: expected a non-empty array of rows")
    d = len(data)
    if set(map(type, data)) == {list} and set(map(len, data)) == {d}:
        pairs = list(chain.from_iterable(data))
        if set(map(type, pairs)) == {list} and set(map(len, pairs)) == {2}:
            values = list(chain.from_iterable(pairs))
            if _NUMBER_TYPES.issuperset(map(type, values)):
                try:
                    return np.array(values, dtype=float).view(complex).reshape(d, d)
                except OverflowError:  # an int beyond the float range, which the walk names
                    pass
    out = np.empty((d, d), dtype=complex)
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != d:
            raise FormatError(f"{context}: row {i} has {len(row) if isinstance(row, list) else 'no'} entries, expected {d}")
        for j, pair in enumerate(row):
            if not isinstance(pair, list) or len(pair) != 2:
                raise FormatError(f"{context}: entry ({i},{j}) is not a [re, im] pair")
            if not (_is_number(pair[0]) and _is_number(pair[1])):
                raise FormatError(f"{context}: entry ({i},{j}) is not numeric, got {pair!r}")
            try:
                out[i, j] = complex(pair[0], pair[1])
            except OverflowError:
                raise FormatError(f"{context}: entry ({i},{j}) is out of range") from None
    return out


def _is_number(value) -> bool:
    """Whether value is a JSON number: an int or a float, but not a boolean."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def ensemble_to_doc(ensemble: StateEnsemble, labels=None) -> dict:
    states = []
    for x in range(len(ensemble)):
        entry = {"prior": float(ensemble.priors[x])}
        if labels and labels[x] is not None:
            entry["label"] = str(labels[x])
        entry["matrix"] = encode_matrix(ensemble.states[x].matrix)
        states.append(entry)
    return {"version": INSTANCE_VERSION, "dimension": ensemble.dim, "states": states}


def _read(text: str, kind: str, version: str) -> dict:
    """The JSON object in text, after checking it is one and carries the given version tag."""
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise FormatError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise FormatError(f"{kind} must be a JSON object")
    if doc.get("version") != version:
        raise FormatError(f'version: expected "{version}", got {doc.get("version")!r}')
    return doc


def parse_instance(text: str) -> tuple[StateEnsemble, list]:
    """Parse instance JSON into a validated ensemble, or fail naming the field."""
    doc = _read(text, "instance", INSTANCE_VERSION)
    dim = doc.get("dimension")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise FormatError(f"dimension: expected a positive integer, got {dim!r}")
    raw_states = doc.get("states")
    if not isinstance(raw_states, list) or len(raw_states) < 2:
        raise FormatError("states: expected an array of at least 2 entries")

    priors = []
    matrices = []
    labels = []
    for x, entry in enumerate(raw_states):
        if not isinstance(entry, dict):
            raise FormatError(f"states[{x}]: expected an object")
        prior = entry.get("prior")
        if not _is_number(prior):
            raise FormatError(f"states[{x}].prior: expected a number, got {prior!r}")
        try:
            priors.append(float(prior))
        except OverflowError:
            raise FormatError(f"states[{x}].prior: out of range") from None
        matrix = decode_matrix(entry.get("matrix"), f"states[{x}].matrix")
        if matrix.shape[0] != dim:
            raise FormatError(f"states[{x}].matrix: dimension {matrix.shape[0]}, expected {dim}")
        matrices.append(matrix)
        label = entry.get("label")
        if not (label is None or isinstance(label, str)):
            raise FormatError(f"states[{x}].label: expected a string, got {label!r}")
        labels.append(label)
    try:
        ensemble = make_ensemble(priors, matrices)
    except QsdError as exc:
        # The stack failed: name the first state that fails on its own, if one does.
        for x, matrix in enumerate(matrices):
            try:
                validate_density(matrix)
            except QsdError as state_exc:
                raise FormatError(f"states[{x}].matrix: {state_exc}") from None
        raise FormatError(f"states: {exc}") from None
    return ensemble, labels


def instance_hash(ensemble: StateEnsemble, labels=None) -> str:
    """Formatting-independent fingerprint of an instance."""
    canonical = dump_json(ensemble_to_doc(ensemble, labels))
    return "sha256:" + hashlib.sha256(canonical.encode()).hexdigest()


def parse_report(text: str) -> dict:
    """The report object in JSON text; its fields are checked where they are read."""
    return _read(text, "report", REPORT_VERSION)
