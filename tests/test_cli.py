"""Command-line surface: flags, exit codes, report formats, determinism."""

import contextlib
import io
import json

import numpy as np
import pytest

from jeffreys import ValidationError
from jeffreys.cli import EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, main
from jeffreys.reports import RunReport
from conftest import planted_blobs


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def pair_csv(tmp_path):
    path = tmp_path / "pair.csv"
    path.write_text("0.5,0.5\n0.9,0.1\n")
    return str(path)


@pytest.fixture
def identical_csv(tmp_path):
    path = tmp_path / "same.csv"
    path.write_text("0.3,0.7\n0.3,0.7\n")
    return str(path)


@pytest.fixture
def blobs_csv(tmp_path):
    rng = np.random.default_rng(123)
    rows, labels = planted_blobs(rng, n=30, d=6)
    path = tmp_path / "blobs.csv"
    path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in rows) + "\n")
    return str(path), labels


class TestCentroidCommand:
    def test_positive_on_identical_members(self, identical_csv):
        code, out, _ = run_cli(
            ["centroid", "--input", identical_csv, "--format", "csv",
             "--kind", "frequency", "--mode", "positive"]
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["centroid"] == pytest.approx([0.3, 0.7], abs=1e-12)
        assert report["objective"] == pytest.approx(0.0, abs=1e-12)

    def test_bisection_reports_52_iterations(self, pair_csv):
        code, out, _ = run_cli(
            ["centroid", "--input", pair_csv, "--format", "csv",
             "--kind", "frequency", "--mode", "bisection", "--tol", "1e-12"]
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["iterations"] == 52
        assert report["lambda_star"] <= 0.0

    def test_normalized_compare_exact(self, pair_csv):
        code, out, _ = run_cli(
            ["centroid", "--input", pair_csv, "--format", "csv",
             "--kind", "frequency", "--mode", "normalized", "--compare-exact"]
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert 1.0 - 1e-12 <= report["alpha_vs_exact"] <= report["bound_factor"] + 1e-12

    def test_report_json_round_trips(self, pair_csv):
        _, out, _ = run_cli(
            ["centroid", "--input", pair_csv, "--format", "csv",
             "--kind", "frequency", "--mode", "fixedpoint"]
        )
        report = RunReport.from_json(out)
        assert report.to_json() == out.strip()

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda report: json.dumps([report]),
            lambda report: json.dumps({**report, "surprise": 1}),
            lambda report: json.dumps({k: v for k, v in report.items() if k != "objective"}),
        ],
        ids=["array", "unknown_key", "missing_key"],
    )
    def test_report_json_rejects_bad_shapes(self, pair_csv, mutate):
        _, out, _ = run_cli(
            ["centroid", "--input", pair_csv, "--format", "csv",
             "--kind", "frequency", "--mode", "fixedpoint"]
        )
        with pytest.raises(ValidationError):
            RunReport.from_json(mutate(json.loads(out)))

    def test_csv_output(self, pair_csv):
        code, out, _ = run_cli(
            ["centroid", "--input", pair_csv, "--format", "csv",
             "--kind", "frequency", "--mode", "veldhuis", "--output", "csv"]
        )
        assert code == EXIT_OK
        header, row = out.strip().splitlines()
        assert header.split(",")[0] == "mode"
        assert header.split(",")[-2:] == ["bin_0", "bin_1"]
        assert row.split(",")[0] == "veldhuis"

    def test_mode_kind_mismatch_is_validation_error(self, pair_csv):
        code, _, err = run_cli(
            ["centroid", "--input", pair_csv, "--format", "csv",
             "--kind", "positive", "--mode", "bisection"]
        )
        assert code == EXIT_VALIDATION
        assert "frequency" in err

    def test_bad_tol_is_validation_error(self, pair_csv):
        for mode in ("bisection", "fixedpoint"):
            for tol in ("-1", "nan", "inf"):
                code, out, err = run_cli(
                    ["centroid", "--input", pair_csv, "--format", "csv",
                     "--kind", "frequency", "--mode", mode, "--tol", tol]
                )
                assert code == EXIT_VALIDATION
                assert out == ""
                assert "tol" in err

    @pytest.mark.parametrize("mode", ["positive", "normalized", "veldhuis"])
    def test_tol_with_a_mode_that_ignores_it_is_validation_error(self, pair_csv, mode):
        code, out, err = run_cli(
            ["centroid", "--input", pair_csv, "--format", "csv",
             "--kind", "frequency", "--mode", mode, "--tol", "1e-12"]
        )
        assert code == EXIT_VALIDATION
        assert out == ""
        assert "--tol" in err

    def test_tol_reaches_fixedpoint(self, pair_csv):
        argv = ["centroid", "--input", pair_csv, "--format", "csv",
                "--kind", "frequency", "--mode", "fixedpoint"]
        coarse = json.loads(run_cli(argv + ["--tol", "1e-2"])[1])
        fine = json.loads(run_cli(argv)[1])
        assert coarse["iterations"] < fine["iterations"]

    def test_unachievable_tol_is_numeric_failure(self, pair_csv):
        code, _, _ = run_cli(
            ["centroid", "--input", pair_csv, "--format", "csv",
             "--kind", "frequency", "--mode", "bisection", "--tol", "1e-18"]
        )
        assert code == EXIT_NUMERIC

    def test_missing_file_is_validation_error(self):
        code, _, err = run_cli(
            ["centroid", "--input", "/nonexistent.csv", "--format", "csv",
             "--kind", "positive", "--mode", "positive"]
        )
        assert code == EXIT_VALIDATION
        assert "no such file" in err

    def test_unknown_flag_exits_64(self, pair_csv):
        code, _, _ = run_cli(
            ["centroid", "--input", pair_csv, "--format", "csv",
             "--kind", "frequency", "--mode", "positive", "--bogus"]
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("command", [
        ["centroid", "--mode", "positive"],
        ["kmeans", "--k", "1"],
    ])
    def test_threads_flag_is_gone(self, pair_csv, command):
        code, _, err = run_cli(
            command[:1] + ["--input", pair_csv, "--format", "csv", "--kind", "frequency"]
            + command[1:] + ["--threads", "2"]
        )
        assert code == EXIT_USAGE
        assert "--threads" in err

    def test_unknown_mode_exits_64(self, pair_csv):
        code, _, _ = run_cli(
            ["centroid", "--input", pair_csv, "--format", "csv",
             "--kind", "frequency", "--mode", "median"]
        )
        assert code == EXIT_USAGE


class TestKMeansCommand:
    def test_blob_partition_and_determinism(self, blobs_csv):
        path, labels = blobs_csv
        argv = ["kmeans", "--input", path, "--format", "csv", "--kind", "frequency",
                "--k", "2", "--seed", "7", "--centroid-mode", "frequency_exact"]
        code1, out1, _ = run_cli(argv)
        code2, out2, _ = run_cli(argv)
        assert code1 == code2 == EXIT_OK
        assert out1 == out2  # byte-identical under a fixed seed
        payload = json.loads(out1)
        assignments = np.asarray(payload["assignments"])
        agreement = max(np.mean(assignments == labels), np.mean(assignments == 1 - labels))
        assert agreement == 1.0
        trace = payload["objective_trace"]
        assert all(trace[i + 1] <= trace[i] + 1e-12 for i in range(len(trace) - 1))

    def test_k_one_matches_whole_set_centroid(self, pair_csv):
        code, out, _ = run_cli(
            ["kmeans", "--input", pair_csv, "--format", "csv", "--kind", "frequency",
             "--k", "1", "--seed", "0", "--centroid-mode", "frequency_exact"]
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        ref_code, ref_out, _ = run_cli(
            ["centroid", "--input", pair_csv, "--format", "csv",
             "--kind", "frequency", "--mode", "bisection"]
        )
        ref = json.loads(ref_out)
        assert payload["centroids"][0] == pytest.approx(ref["centroid"], abs=1e-12)

    def test_k_exceeding_n_exits_1(self, pair_csv):
        code, _, err = run_cli(
            ["kmeans", "--input", pair_csv, "--format", "csv", "--kind", "frequency",
             "--k", "5", "--seed", "0"]
        )
        assert code == EXIT_VALIDATION
        assert "exceeds" in err


class TestBenchCommand:
    def test_table_structure(self):
        code, out, _ = run_cli(["bench", "--trials", "500", "--dims", "4", "--seed", "2"])
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "stat,alpha_positive,alpha_normalized,w_c,alpha_veldhuis"
        table = {row.split(",")[0]: [float(v) for v in row.split(",")[1:]] for row in lines[1:4]}
        assert set(table) == {"avg", "min", "max"}
        # positive centroid never loses to the frequency optimum
        assert table["max"][0] <= 1.0 + 1e-12
        assert table["min"][1] >= 1.0 - 1e-12
        assert table["max"][2] <= 1.0 + 1e-12
        assert "metric,value" in out
        assert "mean_fixedpoint_iterations" in out

    def test_zero_trials_validation(self):
        code, _, _ = run_cli(["bench", "--trials", "0"])
        assert code == EXIT_VALIDATION

    def test_zero_threads_validation(self):
        code, out, err = run_cli(["bench", "--trials", "10", "--threads", "0"])
        assert code == EXIT_VALIDATION
        assert out == ""
        assert "threads" in err

    def test_threads_do_not_change_output(self):
        argv = ["bench", "--trials", "3000", "--dims", "2", "--seed", "3"]
        _, out1, _ = run_cli(argv)
        _, out2, _ = run_cli(argv + ["--threads", "3"])
        assert out1 == out2
