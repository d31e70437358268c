"""Command-line contract: exit codes, reports, certification, determinism."""

from __future__ import annotations

import ast
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from qsd import DetectorStatistics, cli, kkt_check, make_ensemble, Povm, solver
from qsd.cli import main
from qsd.rand import random_ensemble
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


@pytest.fixture
def slow_file(tmp_path):
    # Needs 43 iterations, so a budget of 2 runs out (the trine needs 1).
    return write_instance(tmp_path / "slow.json", random_ensemble(7, 4, 3))


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

    def test_exhausted_budget_exits_two(self, slow_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["solve", slow_file, "--max-iter", "2", "--output", str(out)]) == 2
        report = json.loads(out.read_text())
        assert report["result"]["converged"] is False
        assert "steering" not in report["result"]

    @pytest.mark.parametrize("command", ["solve", "simulate"])
    def test_non_finite_prior_is_an_input_error(self, trine_file, tmp_path, capsys, command):
        doc = json.loads(Path(trine_file).read_text())
        doc["states"][0]["prior"] = float("nan")
        bad = tmp_path / "nan-prior.json"
        bad.write_text(json.dumps(doc))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: states: ") and "prior" in err
        assert "serialize" not in err and "Warning" not in err
        assert caught == []


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

    def test_non_converged_report_fails_certification(self, slow_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["solve", slow_file, "--max-iter", "2", "--output", str(out)]) == 2
        assert main(["certify", slow_file, str(out)]) == 3
        assert "FAILED" in capsys.readouterr().out

    def test_report_cannot_loosen_its_own_check(self, tmp_path, capsys):
        # Stopped after 5 of its 9 iterations, the solve leaves a dual
        # residual near 1e-7; a report edited to claim kkt_tolerance 1e-5 is
        # still checked at 1e-9.
        path = write_instance(tmp_path / "early.json", random_ensemble(0, 4, 3))
        out = tmp_path / "report.json"
        assert main(["solve", path, "--max-iter", "5", "--output", str(out)]) == 2
        report = json.loads(out.read_text())
        assert 1e-9 < report["result"]["residuals"]["dual"] < 1e-6
        report["options"]["kkt_tolerance"] = 1e-5
        out.write_text(json.dumps(report))
        assert main(["certify", path, str(out)]) == 3
        assert "(tolerance 1.0e-09)" in capsys.readouterr().out
        assert main(["certify", path, str(out), "--tolerance", "1e-5"]) == 0

    def test_report_tolerance_tightens_the_check(self, trine_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        main(["solve", trine_file, "--output", str(out)])
        report = json.loads(out.read_text())
        report["options"]["kkt_tolerance"] = 1e-12
        out.write_text(json.dumps(report))
        assert main(["certify", trine_file, str(out), "--tolerance", "1e-6"]) == 0
        assert "(tolerance 1.0e-12)" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "path, value",
        [
            (("options",), []),
            (("instance",), 5),
            (("options", "kkt_tolerance"), "1e-9x"),
            (("options", "kkt_tolerance"), None),
            (("options", "kkt_tolerance"), float("inf")),
            (("result", "guess_probability"), "abc"),
        ],
        ids=["options-list", "instance-number", "tolerance-text", "tolerance-null", "tolerance-infinite", "value-text"],
    )
    def test_malformed_report_field_is_an_input_error(self, trine_file, tmp_path, capsys, path, value):
        out = tmp_path / "report.json"
        main(["solve", trine_file, "--output", str(out)])
        report = json.loads(out.read_text())
        section = report
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value
        out.write_text(json.dumps(report))
        assert main(["certify", trine_file, str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and path[-1] in err

    def test_non_hermitian_dual_operator_is_an_input_error(self, trine_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        main(["solve", trine_file, "--output", str(out)])
        report = json.loads(out.read_text())
        report["matrices"]["k_operator"][0][1][0] += 1e-3
        out.write_text(json.dumps(report))
        assert main(["certify", trine_file, str(out)]) == 1
        assert "dual operator" in capsys.readouterr().err

    def test_non_finite_dual_operator_is_an_input_error(self, trine_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        main(["solve", trine_file, "--output", str(out)])
        report = json.loads(out.read_text())
        report["matrices"]["k_operator"][0][0][0] = float("nan")
        out.write_text(json.dumps(report))
        capsys.readouterr()
        assert main(["certify", trine_file, str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: dual operator") and "Traceback" not in captured.err

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_povm_is_an_input_error(self, trine_file, tmp_path, capsys, bad):
        out = tmp_path / "report.json"
        main(["solve", trine_file, "--output", str(out)])
        report = json.loads(out.read_text())
        report["matrices"]["povm"][0][0][0][0] = bad
        out.write_text(json.dumps(report))
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["certify", trine_file, str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: POVM element 0: NaN or Inf entries\n"
        assert caught == []

    @pytest.mark.parametrize("field", ["k_operator", "povm"])
    def test_overflowing_entry_is_an_input_error(self, trine_file, tmp_path, capsys, field):
        out = tmp_path / "report.json"
        main(["solve", trine_file, "--output", str(out)])
        report = json.loads(out.read_text())
        if field == "k_operator":
            for i in range(2):
                report["matrices"]["k_operator"][i][i][0] = 1e308
        else:
            report["matrices"]["povm"][0][0][0][0] = 1e308
        out.write_text(json.dumps(report))
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["certify", trine_file, str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        name = "dual operator" if field == "k_operator" else "POVM element 0"
        assert captured.err == f"error: {name}: entry of magnitude 1.000e+308 overflows\n"
        assert caught == []

    @pytest.mark.parametrize(
        ("huge", "povm_too", "message"),
        [
            (8e307, False, "dual operator: entry of magnitude 8.000e+307 overflows"),
            (1e200, True, "POVM element 0: entry of magnitude 1.000e+200 overflows"),
        ],
        ids=["k-diagonal-8e307", "k-and-povm-diagonals-1e200"],
    )
    def test_entries_whose_sums_would_overflow_are_an_input_error(self, tmp_path, capsys, huge, povm_too, message):
        # Below the largest float, yet tr K or a slackness tr[sigma_x M_x] of the qutrit pair would overflow.
        instance = str(Path(__file__).resolve().parent.parent / "instances" / "qutrit-pair.json")
        out = tmp_path / "report.json"
        main(["solve", instance, "--output", str(out)])
        report = json.loads(out.read_text())
        for matrix in [report["matrices"]["k_operator"]] + (report["matrices"]["povm"] if povm_too else []):
            for i, row in enumerate(matrix):
                row[i][0] = huge
        out.write_text(json.dumps(report))
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["certify", instance, str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert caught == []

    def test_unedited_report_records_its_value_exactly(self, trine_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        main(["solve", trine_file, "--output", str(out)])
        capsys.readouterr()
        assert main(["certify", trine_file, str(out)]) == 0
        rows = {line.split()[0]: line.split()[1] for line in capsys.readouterr().out.splitlines()}
        assert rows["value_recorded"] == "0.000e+00"

    def test_bound_report_is_an_input_error(self, trine_file, tmp_path, capsys):
        out = tmp_path / "bound.json"
        assert main(["bound", trine_file, "--output", str(out)]) == 0
        assert main(["certify", trine_file, str(out)]) == 1
        assert "certify needs a solve report" in capsys.readouterr().err

    def test_report_without_povm_is_an_input_error(self, trine_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        main(["solve", trine_file, "--output", str(out)])
        report = json.loads(out.read_text())
        del report["matrices"]["povm"]
        out.write_text(json.dumps(report))
        assert main(["certify", trine_file, str(out)]) == 1
        assert "missing POVM" in capsys.readouterr().err

    def test_edited_value_fails_only_value_recorded(self, trine_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        main(["solve", trine_file, "--output", str(out)])
        report = json.loads(out.read_text())
        report["result"]["guess_probability"] += 1e-10
        out.write_text(json.dumps(report))
        assert main(["certify", trine_file, str(out)]) == 3
        verdicts = {line.split()[0]: line.split()[-1] for line in capsys.readouterr().out.splitlines()}
        assert verdicts.pop("value_recorded") == "FAIL"
        assert verdicts.pop("certification") == "FAILED"
        assert set(verdicts.values()) == {"ok"}

    def test_one_run_evaluates_the_dual_side_once(self, trine_file, tmp_path, monkeypatch):
        out = tmp_path / "report.json"
        main(["solve", trine_file, "--output", str(out)])
        # kkt_check still runs once: the benchmark times the certify check through it,
        # rebinding the name where the command looks it up, as this test does.
        calls = {"_residuals": 0, "_dual": 0, "kkt_check": 0}
        for name in calls:
            module = cli if name == "kkt_check" else solver
            original = getattr(module, name)

            def counted(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(module, name, counted)
        assert main(["certify", trine_file, str(out)]) == 0
        assert calls == {"_residuals": 1, "_dual": 0, "kkt_check": 1}

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

    def test_exhausted_budget_exits_two(self, slow_file, capsys):
        assert main(["simulate", slow_file, "--max-iter", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "did not converge" in captured.err

    def test_zero_prior_instance_passes(self, tmp_path):
        ensemble = make_ensemble([0.5, 0.5, 0.0], [projector(1, 0), projector(1, 1), np.eye(2) / 2])
        instance = write_instance(tmp_path / "zero-prior.json", ensemble)
        out = tmp_path / "sim.json"
        assert main(["simulate", instance, "--shots", "10000", "--output", str(out)]) == 0
        assert json.loads(out.read_text())["result"]["nosignaling_ok"] is True

    def test_zero_shots_rejected(self, trine_file, capsys):
        assert main(["simulate", trine_file, "--shots", "0"]) == 1
        assert "shots must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("shots", [str(2**63), "100000000000000000000"])
    def test_shots_beyond_int64_are_an_input_error(self, trine_file, capsys, shots):
        assert main(["simulate", trine_file, "--shots", shots]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: shots must be positive and at most 9223372036854775807\n"

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


class TestUnreadableFiles:
    @pytest.fixture
    def paths(self, trine_file, tmp_path):
        report = tmp_path / "report.json"
        main(["solve", trine_file, "--output", str(report)])
        latin1 = tmp_path / "latin1.json"
        latin1.write_bytes('{"version": "qsd-1", "name": "\u00e9"}'.encode("latin-1"))
        return {"instance": trine_file, "latin1": str(latin1), "missing": str(tmp_path / "missing.json")}

    @pytest.mark.parametrize(
        "argv, bad",
        [(["solve", "latin1"], "latin1"), (["certify", "instance", "latin1"], "latin1"), (["certify", "instance", "missing"], "missing")],
        ids=["non-utf8-instance", "non-utf8-report", "missing-report"],
    )
    def test_is_an_input_error_naming_the_path(self, paths, capsys, argv, bad):
        assert main([argv[0]] + [paths[key] for key in argv[1:]]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and paths[bad] in err
        assert "Traceback" not in err


class TestUsageErrors:
    """argparse's own exit code 2 would read as "not converged"; usage errors exit 1."""

    @pytest.mark.parametrize(
        "args",
        [
            ["solve", "x.json", "--seed", "3"],  # solve has no --seed
            ["certify", "x.json"],  # missing report argument
            ["simulate", "x.json", "--shots", "many"],
            ["certify", "x.json", "r.json", "--tolerance", "0"],
            ["solve", "x.json", "--tolerance", "inf"],
            ["solve", "x.json", "--tolerance", "tight"],
            ["solve", "x.json", "--max-iter", "0"],
            ["simulate", "x.json", "--max-iter", "-5"],
            ["simulate", "x.json", "--seed", "-1"],
        ],
        ids=[
            "unknown-flag",
            "missing-argument",
            "non-integer",
            "zero-tolerance",
            "infinite-tolerance",
            "text-tolerance",
            "zero-budget",
            "negative-budget",
            "negative-seed",
        ],
    )
    def test_usage_error_exits_one(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 1
        assert "usage: qsd" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, message",
        [
            (["solve", "{}", "--max-iter", "0"], "argument --max-iter: expected an integer >= 1, got '0'"),
            (["simulate", "{}", "--max-iter", "-1"], "argument --max-iter: expected an integer >= 1, got '-1'"),
            (["simulate", "{}", "--seed", "-1"], "argument --seed: expected an integer >= 0, got '-1'"),
            (["simulate", "{}", "--seed", "1.5"], "argument --seed: expected an integer >= 0, got '1.5'"),
        ],
        ids=["solve-budget", "simulate-budget", "negative-seed", "fractional-seed"],
    )
    def test_integer_flags_are_usage_errors(self, trine_file, args, message, capsys):
        # Before these flags were checked, SolverOptions and default_rng raised ValueError.
        with pytest.raises(SystemExit) as exc:
            main([a.format(trine_file) for a in args])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--help"])
        assert exc.value.code == 0
        assert "--seed" not in capsys.readouterr().out


class TestParserReuse:
    """main builds its parser on the first call and reuses it for every later call in the process."""

    @staticmethod
    def _help(parse, argv, capsys) -> str:
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        assert exc.value.code == 0
        return capsys.readouterr().out

    def test_one_build_serves_every_command(self, trine_file, tmp_path, capsys):
        cli._build_parser.cache_clear()
        report = str(tmp_path / "report.json")
        assert main(["solve", trine_file, "--output", report]) == 0
        assert main(["certify", trine_file, report]) == 0
        assert main(["bound", trine_file, "--best-cyclic"]) == 0
        assert main(["simulate", trine_file, "--shots", "1000"]) == 0
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 3)
        assert cli._build_parser() is cli._build_parser()

    def test_a_flag_does_not_carry_into_the_next_call(self, slow_file, tmp_path, capsys):
        # One iteration short of convergence the dual residual is near 3e-7:
        # within a report edited to claim 1e-5, outside the default 1e-9.
        out = tmp_path / "report.json"
        assert main(["solve", slow_file, "--max-iter", "41", "--output", str(out)]) == 2
        report = json.loads(out.read_text())
        report["options"]["kkt_tolerance"] = 1e-5
        out.write_text(json.dumps(report))
        assert main(["certify", slow_file, str(out), "--tolerance", "1e-5"]) == 0
        assert main(["certify", slow_file, str(out)]) == 3
        assert "(tolerance 1.0e-09)" in capsys.readouterr().out.split("certification PASSED")[1]

    def test_a_usage_error_leaves_the_next_call_unchanged(self, trine_file, capsys):
        assert main(["solve", trine_file]) == 0
        before = capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["solve", trine_file, "--seed", "3"])
        assert exc.value.code == 1
        assert capsys.readouterr().err.startswith("usage: qsd")
        assert main(["solve", trine_file]) == 0
        assert capsys.readouterr() == before

    @pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]], ids=["qsd", "solve"])
    def test_help_equals_a_fresh_parser_help(self, trine_file, argv, capsys):
        assert main(["bound", trine_file]) == 0
        capsys.readouterr()
        reused = self._help(main, argv, capsys)
        fresh = self._help(cli._build_parser.__wrapped__().parse_args, argv, capsys)
        assert reused == fresh
        assert reused.startswith("usage: qsd")


def test_log_env_var_enables_diagnostics(orthogonal_file, tmp_path, monkeypatch):
    monkeypatch.setenv("QSD_LOG", "debug")
    out = tmp_path / "report.json"
    assert main(["solve", orthogonal_file, "--output", str(out)]) == 0


class TestDeterminism:
    def test_solve_reports_are_byte_identical(self, trine_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["solve", trine_file, "--output", str(a)])
        main(["solve", trine_file, "--output", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_simulate_reports_are_byte_identical(self, trine_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["simulate", trine_file, "--shots", "5000", "--seed", "2", "--output", str(a)])
        main(["simulate", trine_file, "--shots", "5000", "--seed", "2", "--output", str(b)])
        assert a.read_bytes() == b.read_bytes()


def test_cli_imports_no_private_solver_name():
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in ("solver", "qsd.solver")
        for alias in node.names
    ]
    assert "solve" in imported
    assert [name for name in imported if name.startswith("_")] == []
