"""Command-line contract: exit codes, reports, certification, determinism."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from qsd import DetectorStatistics, kkt_check, make_ensemble, Povm
from qsd.cli import main
from qsd.serialize import decode_matrix, dump_json, ensemble_to_doc, parse_instance

from .conftest import projector, trine_states


def write_instance(path, ensemble, labels=None):
    path.write_text(dump_json(ensemble_to_doc(ensemble, labels)))
    return str(path)


@pytest.fixture
def orthogonal_file(tmp_path):
    ensemble = make_ensemble([0.5, 0.5], [projector(1, 0), projector(0, 1)])
    return write_instance(tmp_path / "orthogonal.json", ensemble, ["zero", "one"])


@pytest.fixture
def trine_file(tmp_path):
    ensemble = make_ensemble([1 / 3] * 3, trine_states())
    return write_instance(tmp_path / "trine.json", ensemble)


class TestSolveCommand:
    def test_orthogonal_converges_with_value_one(self, orthogonal_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["solve", orthogonal_file, "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["result"]["guess_probability"] == pytest.approx(1.0, abs=1e-9)
        assert report["result"]["converged"] is True
        assert "steering" in report["result"]

    def test_trine_value(self, trine_file, tmp_path):
        out = tmp_path / "report.json"
        assert main(["solve", trine_file, "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["result"]["guess_probability"] == pytest.approx(2 / 3, abs=1e-6)

    def test_report_to_stdout_by_default(self, orthogonal_file, capsys):
        assert main(["solve", orthogonal_file]) == 0
        captured = capsys.readouterr()
        assert '"command": "solve"' in captured.out

    def test_invalid_state_names_index(self, tmp_path, capsys):
        doc = {
            "version": "qsd-1",
            "dimension": 2,
            "states": [
                {"prior": 0.5, "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]},
                {"prior": 0.5, "matrix": [[[0.9, 0], [0, 0]], [[0, 0], [0, 0]]]},
            ],
        }
        bad = tmp_path / "bad.json"
        bad.write_text(dump_json(doc))
        assert main(["solve", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "states[1]" in err

    def test_missing_file(self, capsys):
        assert main(["solve", "/does/not/exist.json"]) == 1
        assert "error" in capsys.readouterr().err

    def test_exhausted_budget_exits_two(self, trine_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["solve", trine_file, "--max-iter", "2", "--output", str(out)]) == 2
        report = json.loads(out.read_text())
        assert report["result"]["converged"] is False
        assert "steering" not in report["result"]


class TestBoundCommand:
    def test_two_state_bound_equals_helstrom(self, tmp_path):
        ensemble = make_ensemble([0.5, 0.5], [projector(1, 0), projector(1, 1)])
        instance = write_instance(tmp_path / "zp.json", ensemble)
        out = tmp_path / "bound.json"
        assert main(["bound", instance, "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["result"]["lower_bound"] == pytest.approx(0.8535533905932737, abs=1e-12)

    def test_trine_bound(self, trine_file, tmp_path):
        out = tmp_path / "bound.json"
        assert main(["bound", trine_file, "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["result"]["lower_bound"] == pytest.approx(0.6220085, abs=1e-6)

    def test_identical_states_bound(self, tmp_path):
        ensemble = make_ensemble([0.25] * 4, [np.eye(2) / 2] * 4)
        instance = write_instance(tmp_path / "same.json", ensemble)
        out = tmp_path / "bound.json"
        assert main(["bound", instance, "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["result"]["lower_bound"] == pytest.approx(0.25, abs=1e-12)

    def test_best_cyclic_flag_adds_block(self, trine_file, tmp_path):
        out = tmp_path / "bound.json"
        assert main(["bound", trine_file, "--best-cyclic", "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert "best_cyclic" in report["result"]
        assert report["result"]["best_cyclic"]["lower_bound"] >= report["result"]["lower_bound"] - 1e-15


class TestCertifyCommand:
    def test_fresh_report_certifies(self, trine_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["solve", trine_file, "--output", str(out)]) == 0
        assert main(["certify", trine_file, str(out)]) == 0
        assert "PASSED" in capsys.readouterr().out

    def test_corrupted_povm_entry_fails_with_matching_residual(self, trine_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        main(["solve", trine_file, "--output", str(out)])
        report = json.loads(out.read_text())
        report["matrices"]["povm"][0][0][0][0] += 1e-3
        corrupted = tmp_path / "corrupted.json"
        corrupted.write_text(dump_json(report))
        assert main(["certify", trine_file, str(corrupted)]) == 3
        table = capsys.readouterr().out
        assert "FAILED" in table
        povm_line = next(line for line in table.splitlines() if line.startswith("povm_validity"))
        assert float(povm_line.split()[1]) == pytest.approx(1e-3, rel=0.2)

    def test_povm_element_of_wrong_dimension_is_an_input_error(self, trine_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        main(["solve", trine_file, "--output", str(out)])
        report = json.loads(out.read_text())
        report["matrices"]["povm"][1] = [[[1.0, 0.0]] * 3] * 3
        corrupted = tmp_path / "corrupted.json"
        corrupted.write_text(dump_json(report))
        assert main(["certify", trine_file, str(corrupted)]) == 1
        assert "POVM element 1" in capsys.readouterr().err

    def test_instance_hash_mismatch(self, trine_file, orthogonal_file, tmp_path):
        out = tmp_path / "report.json"
        main(["solve", trine_file, "--output", str(out)])
        assert main(["certify", orthogonal_file, str(out)]) == 1

    def test_non_converged_report_fails_certification(self, trine_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["solve", trine_file, "--max-iter", "2", "--output", str(out)]) == 2
        assert main(["certify", trine_file, str(out)]) == 3
        assert "FAILED" in capsys.readouterr().out

    def test_round_trip_reproduces_residuals(self, trine_file, tmp_path):
        out = tmp_path / "report.json"
        main(["solve", trine_file, "--output", str(out)])
        report = json.loads(out.read_text())
        ensemble, _ = parse_instance(Path(trine_file).read_text(encoding="utf-8"))
        povm = Povm(elements=tuple(decode_matrix(m, "povm") for m in report["matrices"]["povm"]))
        k = decode_matrix(report["matrices"]["k_operator"], "k")
        checks = kkt_check(ensemble, povm, k)
        recorded = report["result"]["residuals"]
        assert abs(checks.primal_residual - recorded["primal"]) <= 1e-12
        assert abs(checks.dual_residual - recorded["dual"]) <= 1e-12
        assert abs(checks.slackness_residual - recorded["slackness"]) <= 1e-12
        assert abs(checks.gap - recorded["gap"]) <= 1e-12


class TestSimulateCommand:
    def test_trine_million_shots_saturates_bound(self, trine_file, tmp_path):
        out = tmp_path / "sim.json"
        assert main(["simulate", trine_file, "--shots", "1000000", "--seed", "0", "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        diag = report["result"]["diagonal_sum"]
        assert 1.0 - 3e-3 <= diag <= 1.0 + 3e-3
        assert report["result"]["nosignaling_ok"] is True

    def test_signaling_statistics_exit_three(self, trine_file, tmp_path, monkeypatch):
        # A detector that always answers correctly would signal: diagonal sum 3.
        def perfect(decompositions, povm, shots, seed):
            return DetectorStatistics(counts=np.eye(len(decompositions), dtype=np.int64) * shots, shots_per_message=shots)

        monkeypatch.setattr("qsd.cli.simulate_protocol", perfect)
        out = tmp_path / "sim.json"
        assert main(["simulate", trine_file, "--shots", "1000", "--output", str(out)]) == 3
        report = json.loads(out.read_text())
        assert report["result"]["diagonal_sum"] == pytest.approx(3.0)
        assert report["result"]["nosignaling_ok"] is False

    def test_zero_shots_rejected(self, trine_file, capsys):
        assert main(["simulate", trine_file, "--shots", "0"]) == 1
        assert "shots must be positive" in capsys.readouterr().err

    def test_orthogonal_statistics(self, tmp_path):
        ensemble = make_ensemble([0.7, 0.3], [projector(1, 0), projector(0, 1)])
        instance = write_instance(tmp_path / "orth.json", ensemble)
        out = tmp_path / "sim.json"
        assert main(["simulate", instance, "--shots", "200000", "--seed", "4", "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        table = np.array(report["result"]["probabilities"])
        # diagonal approaches the steering probabilities (= priors here); the
        # messages prepare identical mixtures, so the columns must coincide
        np.testing.assert_allclose(np.diag(table), [0.7, 0.3], atol=0.01)
        np.testing.assert_allclose(table[:, 0], table[:, 1], atol=0.01)


def test_log_env_var_enables_diagnostics(orthogonal_file, tmp_path, monkeypatch):
    monkeypatch.setenv("QSD_LOG", "debug")
    out = tmp_path / "report.json"
    assert main(["solve", orthogonal_file, "--output", str(out)]) == 0


class TestDeterminism:
    def test_solve_reports_are_byte_identical(self, trine_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["solve", trine_file, "--seed", "9", "--output", str(a)])
        main(["solve", trine_file, "--seed", "9", "--output", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_simulate_reports_are_byte_identical(self, trine_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["simulate", trine_file, "--shots", "5000", "--seed", "2", "--output", str(a)])
        main(["simulate", trine_file, "--shots", "5000", "--seed", "2", "--output", str(b)])
        assert a.read_bytes() == b.read_bytes()
