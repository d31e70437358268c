"""File formats: parsing, diagnostics, float fidelity, hashing."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsd.rand import random_ensemble
from qsd.serialize import (
    FormatError,
    decode_matrix,
    dump_json,
    encode_matrix,
    ensemble_to_doc,
    format_real,
    instance_hash,
    parse_instance,
    parse_report,
)


def roundtrip(ensemble, labels=None):
    return parse_instance(dump_json(ensemble_to_doc(ensemble, labels)))


class TestFloatFormatting:
    def test_seventeen_digits_roundtrip_exactly(self):
        rng = np.random.default_rng(80)
        values = list(rng.standard_normal(100)) + [1 / 3, np.pi / 7, 1e-300, 2**-52, 0.0, -0.0]
        for x in values:
            assert float(format_real(float(x))) == float(x)

    def test_non_finite_rejected(self):
        with pytest.raises(FormatError):
            format_real(np.inf)

    @pytest.mark.parametrize("value", [1j, {1}, b"1", object()], ids=["complex", "set", "bytes", "object"])
    def test_unsupported_type_rejected(self, value):
        with pytest.raises(FormatError, match=f"^cannot serialize object of type {type(value).__name__}$"):
            dump_json({"a": [0.5, value]})

    def test_dump_is_deterministic(self):
        doc = {"a": 1 / 3, "b": [1.0, 2.5e-10], "c": {"d": True, "e": None}}
        assert dump_json(doc) == dump_json(doc)

    def test_nested_document_golden_bytes(self):
        # Lists stay on one line unless they hold a dict at some depth.
        doc = {
            "text": 'quote " and slash \\ and \u00e9',
            "numbers": [1 / 3, -0.0, 1e-300, np.float64(0.1), np.int64(-7), 3, True, np.bool_(False), None],
            "empty": {"dict": {}, "list": [], "tuple": ()},
            "matrix": [[[0.5, 0.0], [0.25, -0.125]]],
            "records": [{"prior": 0.5}, [1.0, {"deep": [2.0]}], [[{}]], [[]], (4, 5)],
            7: {"k": [1.0, 2.0]},
        }
        expected = """{
  "text": "quote \\" and slash \\\\ and \\u00e9",
  "numbers": [0.33333333333333331, -0, 1e-300, 0.10000000000000001, -7, 3, true, false, null],
  "empty": {
    "dict": {},
    "list": [],
    "tuple": []
  },
  "matrix": [[[0.5, 0], [0.25, -0.125]]],
  "records": [
    {
      "prior": 0.5
    },
    [
      1,
      {
        "deep": [2]
      }
    ],
    [
      [
        {}
      ]
    ],
    [[]],
    [4, 5]
  ],
  "7": {
    "k": [1, 2]
  }
}
"""
        assert dump_json(doc) == expected


def generic(obj):
    """obj with every list turned into a tuple: dump_json writes it as before, but never by the pair-row path."""
    if isinstance(obj, dict):
        return {key: generic(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return tuple(generic(value) for value in obj)
    return obj


class TestPairRows:
    """Matrix rows of [re, im] float pairs take one format per row and write the generic path's bytes."""

    EXTREMES = [-0.0, 0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1.7976931348623157e308, -1e-300, 1e300]

    def test_random_rows_match_the_generic_path(self):
        rng = np.random.default_rng(85)
        for _ in range(200):
            d = int(rng.integers(1, 9))
            values = rng.standard_normal((d, d, 2)) * 10.0 ** rng.integers(-300, 301, size=(d, d, 2))
            values = np.where(rng.random(values.shape) < 0.2, rng.choice(self.EXTREMES, size=values.shape), values)
            matrix = encode_matrix(values[..., 0] + 1j * values[..., 1])
            assert matrix == values.tolist()
            assert dump_json(matrix) == dump_json(generic(matrix))
            doc = {"matrices": [matrix, matrix[:1]], "stack": [matrix, matrix], "row": matrix[0]}
            assert dump_json(doc) == dump_json(generic(doc))

    @pytest.mark.parametrize("entry", [3, 10**17 + 1, True, np.float64(0.1)], ids=["int", "big-int", "bool", "numpy"])
    @pytest.mark.parametrize("d", [1, 3])
    def test_matrices_with_a_non_float_entry_match_the_generic_path(self, entry, d):
        matrix = encode_matrix(np.arange(d * d).reshape(d, d) * (0.5 - 0.25j))
        matrix[-1][0][1] = entry
        doc = {"povm": [matrix, matrix], "k_operator": matrix}
        assert dump_json(doc) == dump_json(generic(doc))

    @pytest.mark.parametrize("d", [1, 3])
    def test_numpy_float_entries_are_decoded_entry_by_entry(self, d):
        # numpy floats are JSON numbers (float subclasses) but not exact floats,
        # so decode_matrix walks them entry by entry rather than converting whole.
        matrix = encode_matrix(np.arange(d * d).reshape(d, d) * (0.5 - 0.25j) + 0.1)
        walked = [[[np.float64(v) for v in pair] for pair in row] for row in matrix]
        decoded = decode_matrix(walked, "m")
        assert decoded.dtype == complex and decoded.tobytes() == decode_matrix(matrix, "m").tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("d", [1, 3])
    def test_matrices_with_a_non_finite_entry_are_rejected_as_by_the_generic_path(self, bad, d):
        matrix = encode_matrix(np.eye(d))
        matrix[0][-1][1] = bad
        for obj in (matrix, [matrix, matrix]):
            with pytest.raises(FormatError) as generic_error:
                dump_json(generic(obj))
            with pytest.raises(FormatError, match="non-finite") as error:
                dump_json(obj)
            assert str(error.value) == str(generic_error.value)

    def test_overflowing_sum_of_finite_values_is_written(self):
        row = [[1.7976931348623157e308, 1.7976931348623157e308], [-0.0, 5e-324]]
        assert dump_json(row) == "[[1.7976931348623157e+308, 1.7976931348623157e+308], [-0, 4.9406564584124654e-324]]\n"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, bad):
        with pytest.raises(FormatError, match="non-finite"):
            dump_json([[0.5, 0.0], [0.25, bad]])
        with pytest.raises(FormatError, match="non-finite"):
            dump_json([[[0.5, 0.0], [bad, -bad]]])

    def test_int_and_bool_pairs_take_the_generic_path(self):
        big = 10**17 + 1  # "%.17g" would write 1.0000000000000000e+17
        assert dump_json([[big, 0.5], [0.25, 0.125]]) == "[[100000000000000001, 0.5], [0.25, 0.125]]\n"
        assert dump_json([[0.5, 0.0], [True, 0.25]]) == "[[0.5, 0], [true, 0.25]]\n"
        assert dump_json([[np.float64(0.1), 0.5]]) == "[[0.10000000000000001, 0.5]]\n"

    def test_instance_hash_matches_the_generic_path(self):
        ensemble = random_ensemble(np.random.default_rng(86), 4, 3)
        canonical = dump_json(generic(ensemble_to_doc(ensemble, ["a", None, "c", None])))
        expected = "sha256:" + hashlib.sha256(canonical.encode()).hexdigest()
        assert instance_hash(ensemble, ["a", None, "c", None]) == expected


def reference_decode(data, context):
    """decode_matrix entry by entry: every check and message, one entry at a time."""
    if not isinstance(data, list) or not data:
        raise FormatError(f"{context}: expected a non-empty array of rows")
    d = len(data)
    out = np.empty((d, d), dtype=complex)
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != d:
            raise FormatError(f"{context}: row {i} has {len(row) if isinstance(row, list) else 'no'} entries, expected {d}")
        for j, pair in enumerate(row):
            if not isinstance(pair, list) or len(pair) != 2:
                raise FormatError(f"{context}: entry ({i},{j}) is not a [re, im] pair")
            if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair):
                raise FormatError(f"{context}: entry ({i},{j}) is not numeric, got {pair!r}")
            try:
                out[i, j] = complex(pair[0], pair[1])
            except OverflowError:
                raise FormatError(f"{context}: entry ({i},{j}) is out of range") from None
    return out


NUMBERS = st.one_of(
    st.floats(),  # NaN, +-Inf, subnormals, -0.0 and the extremes included
    st.sampled_from([-0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]),
    st.integers(-(2**80), 2**80),
)
MALFORMED = (
    "bool", "numeric-string", "null", "huge-int", "triple", "short-row", "long-row",
    "extra-row", "pair-tuple", "row-tuple", "tuple", "not-a-list", "empty",
)


@st.composite
def matrix_data(draw):
    """A well-formed d x d matrix of [re, im] pairs, or one malformed variant of it."""
    d = draw(st.integers(1, 4))
    values = iter(draw(st.lists(NUMBERS, min_size=2 * d * d, max_size=2 * d * d)))
    data = [[[next(values), next(values)] for _ in range(d)] for _ in range(d)]
    kind = draw(st.sampled_from(("well-formed",) * 4 + MALFORMED))
    i, j, k = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1)), draw(st.integers(0, 1))
    replacement = {"bool": True, "numeric-string": "1.5", "null": None, "huge-int": -(10**400)}
    if kind in replacement:
        data[i][j][k] = replacement[kind]
    elif kind == "triple":
        data[i][j].append(0.0)
    elif kind == "short-row":
        del data[i][j]
    elif kind == "long-row":
        data[i].append([0.0, 0.0])
    elif kind == "extra-row":
        data.append([[0.0, 0.0]] * d)
    elif kind == "pair-tuple":
        data[i][j] = tuple(data[i][j])
    elif kind == "row-tuple":
        data[i] = tuple(data[i])
    elif kind == "tuple":
        data = tuple(data)
    elif kind == "not-a-list":
        data = draw(st.sampled_from([None, 1.0, "[[[1, 0]]]", {"rows": data}]))
    elif kind == "empty":
        data = []
    return data


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(matrix_data())
def test_decode_matrix_matches_the_per_entry_reference(data):
    try:
        expected = reference_decode(data, "m")
    except FormatError as exc:
        with pytest.raises(FormatError) as error:
            decode_matrix(data, "m")
        assert str(error.value) == str(exc)
    else:
        decoded = decode_matrix(data, "m")
        assert decoded.dtype == complex and decoded.shape == expected.shape
        assert decoded.view(float).tobytes() == expected.view(float).tobytes()


class TestInstanceRoundtrip:
    def test_states_and_priors_survive_bit_exactly(self):
        rng = np.random.default_rng(81)
        for _ in range(5):
            n = int(rng.integers(2, 5))
            d = int(rng.integers(2, 5))
            ensemble = random_ensemble(rng, n, d)
            parsed, labels = roundtrip(ensemble)
            np.testing.assert_array_equal(parsed.priors, ensemble.priors)
            for a, b in zip(parsed.states, ensemble.states):
                np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_labels_preserved(self):
        rng = np.random.default_rng(82)
        ensemble = random_ensemble(rng, 2, 2)
        _, labels = roundtrip(ensemble, ["alpha", None])
        assert labels == ["alpha", None]

    def test_hash_ignores_formatting(self):
        rng = np.random.default_rng(83)
        ensemble = random_ensemble(rng, 2, 2)
        text = dump_json(ensemble_to_doc(ensemble, None))
        reparsed, labels = parse_instance(text)
        assert instance_hash(reparsed, labels) == instance_hash(ensemble, None)

    def test_matrix_codec_roundtrip(self):
        rng = np.random.default_rng(84)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        np.testing.assert_array_equal(decode_matrix(encode_matrix(m), "m"), m)


class TestInstanceDiagnostics:
    def good_doc(self):
        return {
            "version": "qsd-1",
            "dimension": 2,
            "states": [
                {"prior": 0.5, "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]},
                {"prior": 0.5, "matrix": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]},
            ],
        }

    def test_good_doc_parses(self):
        text = dump_json(self.good_doc())
        ensemble, _ = parse_instance(text)
        assert len(ensemble) == 2

    def test_not_json(self):
        with pytest.raises(FormatError, match="JSON"):
            parse_instance("not json at all {")

    def test_integer_too_long_to_read(self):
        # Python caps int conversion at 4300 digits by default, where json
        # raises a plain ValueError.
        with pytest.raises(FormatError):
            parse_instance('{"version": "qsd-1", "dimension": ' + "1" * 5000 + "}")

    def test_wrong_version(self):
        doc = self.good_doc()
        doc["version"] = "qsd-2"
        with pytest.raises(FormatError, match="version"):
            parse_instance(dump_json(doc))

    def test_bad_dimension(self):
        doc = self.good_doc()
        doc["dimension"] = "two"
        with pytest.raises(FormatError, match="dimension"):
            parse_instance(dump_json(doc))

    @pytest.mark.parametrize("dimension", [1, 3])
    def test_matrix_of_another_dimension_than_declared(self, dimension):
        doc = self.good_doc()
        doc["dimension"] = dimension
        with pytest.raises(FormatError) as error:
            parse_instance(dump_json(doc))
        assert str(error.value) == f"states[0].matrix: dimension 2, expected {dimension}"

    @pytest.mark.parametrize("entry", [3, 2.5, True, ["a"], "a", None], ids=["int", "float", "bool", "list", "string", "null"])
    def test_state_that_is_not_an_object_rejected(self, entry):
        doc = self.good_doc()
        doc["states"][1] = entry
        with pytest.raises(FormatError) as error:
            parse_instance(dump_json(doc))
        assert str(error.value) == "states[1]: expected an object"

    def test_too_few_states(self):
        doc = self.good_doc()
        doc["states"] = doc["states"][:1]
        with pytest.raises(FormatError, match="states"):
            parse_instance(dump_json(doc))

    def test_bad_prior_type(self):
        doc = self.good_doc()
        doc["states"][1]["prior"] = "half"
        with pytest.raises(FormatError, match=r"states\[1\].prior"):
            parse_instance(dump_json(doc))

    def test_boolean_prior_rejected(self):
        doc = self.good_doc()
        doc["states"][1]["prior"] = True
        with pytest.raises(FormatError, match=r"states\[1\].prior: expected a number, got True"):
            parse_instance(dump_json(doc))

    def test_huge_integer_prior_rejected(self):
        doc = self.good_doc()
        doc["states"][1]["prior"] = 10**400
        with pytest.raises(FormatError, match=r"states\[1\].prior: out of range"):
            parse_instance(dump_json(doc))

    def test_boolean_dimension_rejected(self):
        doc = self.good_doc()
        doc["dimension"] = True
        with pytest.raises(FormatError, match="dimension: expected a positive integer, got True"):
            parse_instance(dump_json(doc))

    @pytest.mark.parametrize("pair", [[True, False], ["1", "0"], [1, None]], ids=["booleans", "strings", "null"])
    def test_non_number_entry_rejected(self, pair):
        doc = self.good_doc()
        doc["states"][0]["matrix"][1][1] = pair
        with pytest.raises(FormatError, match=r"states\[0\].matrix: entry \(1,1\) is not numeric"):
            parse_instance(dump_json(doc))

    def test_huge_integer_entry_rejected(self):
        doc = self.good_doc()
        doc["states"][0]["matrix"][0][0] = [10**400, 0]
        with pytest.raises(FormatError, match=r"states\[0\].matrix: entry \(0,0\) is out of range"):
            parse_instance(dump_json(doc))

    def test_integer_entries_and_prior_stay_valid(self):
        doc = self.good_doc()
        doc["states"] = [
            {"prior": 1, "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]},
            {"prior": 0, "matrix": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]},
        ]
        ensemble, _ = parse_instance(dump_json(doc))
        assert ensemble.priors.tolist() == [1.0, 0.0]
        np.testing.assert_array_equal(ensemble.matrices[1], np.diag([0.0, 1.0]))

    def test_trace_deficient_state_names_index(self):
        doc = self.good_doc()
        doc["states"][1]["matrix"] = [[[0.9, 0], [0, 0]], [[0, 0], [0, 0]]]
        with pytest.raises(FormatError, match=r"states\[1\].matrix.*trace"):
            parse_instance(dump_json(doc))

    def test_priors_checked_after_states(self):
        doc = self.good_doc()
        doc["states"][0]["prior"] = 0.7
        with pytest.raises(FormatError, match="states: priors sum to"):
            parse_instance(dump_json(doc))

    def test_bad_state_named_with_bad_priors(self):
        doc = self.good_doc()
        doc["states"][0]["prior"] = 0.7
        doc["states"][1]["matrix"] = [[[0.5, 0], [0, 0]], [[0, 0], [-0.5, 0]]]
        with pytest.raises(FormatError, match=r"states\[1\].matrix: density matrix: min eigenvalue"):
            parse_instance(dump_json(doc))

    def test_ragged_matrix(self):
        doc = self.good_doc()
        doc["states"][0]["matrix"] = [[[1, 0]], [[0, 0], [0, 0]]]
        with pytest.raises(FormatError, match=r"states\[0\].matrix"):
            parse_instance(dump_json(doc))

    @pytest.mark.parametrize("label", [3, 2.5, True, ["a"], {"name": "a"}], ids=["int", "float", "bool", "list", "dict"])
    def test_non_string_label_rejected(self, label):
        doc = self.good_doc()
        doc["states"][1]["label"] = label
        with pytest.raises(FormatError) as error:
            parse_instance(dump_json(doc))
        assert str(error.value) == f"states[1].label: expected a string, got {label!r}"

    def test_string_and_null_labels_accepted(self):
        doc = self.good_doc()
        doc["states"][0]["label"] = "3"
        doc["states"][1]["label"] = None
        assert parse_instance(dump_json(doc))[1] == ["3", None]

    def test_bad_pair(self):
        doc = self.good_doc()
        doc["states"][0]["matrix"][0][1] = [1, 2, 3]
        with pytest.raises(FormatError, match=r"\(0,1\)"):
            parse_instance(dump_json(doc))


class TestReportParsing:
    def test_wrong_version_rejected(self):
        with pytest.raises(FormatError, match="version"):
            parse_report('{"version": "other"}')

    def test_integer_too_long_to_read(self):
        with pytest.raises(FormatError):
            parse_report('{"version": "other", "iterations": ' + "1" * 5000 + "}")

    def test_not_an_object(self):
        with pytest.raises(FormatError):
            parse_report("[1, 2]")
