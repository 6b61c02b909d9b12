"""Command-line surface: flags, exit codes, report formats, determinism."""

import contextlib
import io
import json

import numpy as np
import pytest

from jeffreys import (
    BISECTION_HALVINGS,
    MODES,
    WeightedHistogramSet,
    centroids,
    clustering,
    load_dataset,
    run_alpha_trials,
)
from jeffreys.cli import EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, build_parser, main
from conftest import planted_blobs


def _must_not_run(*args, **kwargs):
    raise AssertionError("a solver ran although the arguments are invalid")


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


#: The ``centroid`` report's keys, in the order both output formats write them.
REPORT_KEYS = [
    "mode", "kind", "centroid", "iterations", "objective", "wall_clock_seconds", "w_c",
    "lambda_star", "bound_factor", "alpha_vs_exact", "simplex_defect", "epsilon_scale",
    "fallback",
]

HUGE_ROWS = [[1e307, 1.7e308], [1.7e308, 1e307]]


@pytest.fixture
def huge_json(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"histograms": HUGE_ROWS}))
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
             "--kind", "frequency", "--mode", "bisection"]
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

    def test_fixedpoint_rescue_is_reported(self, pair_csv, monkeypatch):
        # A one-step cap forces the rescue; the report carries its flag.
        monkeypatch.setattr(centroids, "_FIXEDPOINT_CAP", 1)
        with pytest.warns(RuntimeWarning, match="Newton"):
            code, out, _ = run_cli(
                ["centroid", "--input", pair_csv, "--format", "csv",
                 "--kind", "frequency", "--mode", "fixedpoint"]
            )
        assert code == EXIT_OK
        assert json.loads(out)["fallback"] is True

    @pytest.mark.parametrize("output", ["json", "csv"])
    @pytest.mark.parametrize("mode", [name for name, m in MODES.items() if m.solver])
    def test_report_carries_the_library_result(self, pair_csv, mode, output):
        code, out, _ = run_cli(
            ["centroid", "--input", pair_csv, "--format", "csv",
             "--kind", "frequency", "--mode", mode, "--output", output]
        )
        assert code == EXIT_OK
        dataset = load_dataset(pair_csv, "csv", "frequency")
        r = getattr(centroids, MODES[mode].solver)(dataset.histograms)
        expected = {
            "mode": mode, "kind": "frequency", "centroid": r.centroid.tolist(),
            "iterations": r.iterations, "objective": r.objective, "w_c": r.w_c, "lambda_star": r.lambda_star, "bound_factor": r.bound_factor,
            "alpha_vs_exact": None, "simplex_defect": r.simplex_defect,
            "epsilon_scale": dataset.epsilon_scale, "fallback": r.fallback,
        }
        if output == "json":
            report = json.loads(out)
            assert list(report) == REPORT_KEYS
            assert report.pop("wall_clock_seconds") >= 0.0
            assert report == expected
            return
        header, row = out.splitlines()
        scalars = [k for k in REPORT_KEYS if k != "centroid"]
        assert header.split(",") == scalars + ["bin_0", "bin_1"]
        cells = row.split(",")
        assert float(cells[scalars.index("wall_clock_seconds")]) >= 0.0
        cells[scalars.index("wall_clock_seconds")] = ""
        values = [expected.get(k) for k in scalars] + expected["centroid"]
        assert cells == ["" if v is None else repr(v) if isinstance(v, float) else str(v)
                         for v in values]

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

    def test_tol_flag_is_gone(self, pair_csv):
        code, out, err = run_cli(
            ["centroid", "--input", pair_csv, "--format", "csv",
             "--kind", "frequency", "--mode", "bisection", "--tol", "1e-12"]
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "--tol" in err

    def test_solver_failure_is_numeric_failure(self, pair_csv, monkeypatch):
        # W0 scaled by 4 moves the root out of the bracket: the final check raises.
        real = centroids.lambert_w0_values
        monkeypatch.setattr(centroids, "lambert_w0_values", lambda x, **kw: 4.0 * real(x, **kw))
        code, out, err = run_cli(
            ["centroid", "--input", pair_csv, "--format", "csv",
             "--kind", "frequency", "--mode", "bisection"]
        )
        assert code == EXIT_NUMERIC
        assert out == ""
        assert "simplex defect" in err

    def test_nan_w0_lane_is_numeric_failure(self, pair_csv, monkeypatch):
        # A NaN centroid coordinate is a solver failure, not malformed input.
        real = centroids.lambert_w0_values

        def nan_lane(x, **kw):
            # The fixed point asks for W alone, the positive solver for (W, steps).
            out = real(x, **kw)
            (out[0] if isinstance(out, tuple) else out)[..., -1] = np.nan
            return out

        monkeypatch.setattr(centroids, "lambert_w0_values", nan_lane)
        for mode, message in [("positive", "objective is not finite"),
                              ("fixedpoint", "multiplier is not finite")]:
            code, out, err = run_cli(
                ["centroid", "--input", pair_csv, "--format", "csv",
                 "--kind", "frequency", "--mode", mode]
            )
            assert code == EXIT_NUMERIC, mode
            assert out == ""
            assert message in err

    # Finite members whose divergences exceed the double range: the centroid
    # is finite, its objective overflows, and the solver raises NumericError.
    @pytest.mark.parametrize("output", ["json", "csv"])
    def test_non_finite_objective_is_numeric_failure(self, huge_json, output):
        code, out, err = run_cli(
            ["centroid", "--input", huge_json, "--format", "json",
             "--kind", "positive", "--mode", "positive", "--output", output]
        )
        assert code == EXIT_NUMERIC
        assert out == ""
        assert "objective is not finite" in err

    @pytest.mark.parametrize("output", ["json", "csv"])
    def test_non_finite_report_field_is_numeric_failure(self, pair_csv, monkeypatch, output):
        # Both formats refuse a non-finite number, whatever produced it.
        def infinite_mass(s):
            return centroids.CentroidResult(
                centroid=s.matrix[0], mode="positive", objective=0.0, iterations=0,
                w_c=float("inf"),
            )

        monkeypatch.setattr(centroids, "positive_centroid", infinite_mass)
        code, out, err = run_cli(
            ["centroid", "--input", pair_csv, "--format", "csv",
             "--kind", "frequency", "--mode", "positive", "--output", output]
        )
        assert code == EXIT_NUMERIC
        assert out == ""
        assert "not finite" in err

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

    def test_compare_exact_is_rejected_before_solving(self, pair_csv, monkeypatch):
        monkeypatch.setattr(centroids, "positive_centroid", _must_not_run)
        code, out, err = run_cli(
            ["centroid", "--input", pair_csv, "--format", "csv",
             "--kind", "positive", "--mode", "positive", "--compare-exact"]
        )
        assert code == EXIT_VALIDATION
        assert out == ""
        assert "--compare-exact" in err

    def test_compare_exact_with_bisection_solves_once(self, pair_csv, monkeypatch):
        calls = []
        real = centroids.frequency_centroid_bisection

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(centroids, "frequency_centroid_bisection", counting)
        argv = ["centroid", "--input", pair_csv, "--format", "csv",
                "--kind", "frequency", "--mode", "bisection", "--compare-exact"]
        code, out, _ = run_cli(argv)
        assert code == EXIT_OK
        assert len(calls) == 1
        assert json.loads(out)["alpha_vs_exact"] == 1.0


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

    def test_overflowing_seeding_weights_are_numeric_failure(self, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"histograms": [HUGE_ROWS[0], HUGE_ROWS[1], [1e307, 1.6e308]]}))
        code, out, err = run_cli(
            ["kmeans", "--input", str(path), "--format", "json", "--kind", "positive",
             "--k", "2"]
        )
        assert code == EXIT_NUMERIC
        assert out == ""
        assert "seeding" in err

    def test_overflowing_objective_is_numeric_failure(self, tmp_path):
        path = tmp_path / "huge.json"
        rows = [*HUGE_ROWS, [1e307, 1.6e308], [1e307, 1.6e308]]
        path.write_text(json.dumps({"histograms": rows}))
        code, out, err = run_cli(
            ["kmeans", "--input", str(path), "--format", "json", "--kind", "positive",
             "--k", "1"]
        )
        assert code == EXIT_NUMERIC
        assert out == ""
        assert "objective is not finite" in err

    def test_huge_members_cluster_without_warnings(self, tmp_path):
        # The rows of the test above at k = n: the costs overflow while
        # assigning, the elementwise recompute decides, and nothing warns.
        path = tmp_path / "huge.json"
        rows = [*HUGE_ROWS, [1e307, 1.6e308], [1e307, 1.6e308]]
        path.write_text(json.dumps({"histograms": rows}))
        code, out, _ = run_cli(
            ["kmeans", "--input", str(path), "--format", "json", "--kind", "positive",
             "--k", "4"]
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["assignments"] == [0, 1, 3, 2]
        assert payload["objective_trace"] == [0.0]

    def test_non_finite_output_is_numeric_failure(self, pair_csv, monkeypatch):
        # The payload itself refuses a non-finite number, whatever produced it.
        def infinite(s, cfg):
            return clustering.ClusteringResult(
                assignments=np.zeros(s.n, dtype=np.int64),
                centroids=s.matrix[:1],
                objective_trace=(float("inf"),),
                iterations=1,
            )

        monkeypatch.setattr("jeffreys.cli.kmeans", infinite)
        code, out, err = run_cli(
            ["kmeans", "--input", pair_csv, "--format", "csv", "--kind", "frequency",
             "--k", "1"]
        )
        assert code == EXIT_NUMERIC
        assert out == ""
        assert "not finite" in err

    def test_frequency_mode_on_positive_kind_is_rejected_before_solving(
        self, pair_csv, monkeypatch
    ):
        # The rows of pair.csv sum to one, so only the rule can reject them.
        monkeypatch.setattr(centroids, "positive_centroid", _must_not_run)
        monkeypatch.setattr("jeffreys.cli.kmeans", _must_not_run)
        code, out, err = run_cli(
            ["kmeans", "--input", pair_csv, "--format", "csv", "--kind", "positive",
             "--k", "1", "--centroid-mode", "frequency_exact"]
        )
        assert code == EXIT_VALIDATION
        assert out == ""
        assert "frequency" in err


def _choices(subcommand: str, dest: str) -> list:
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    return next(a.choices for a in sub.choices[subcommand]._actions if a.dest == dest)


class TestModeRegistry:
    def test_every_named_function_exists(self):
        for mode in MODES.values():
            assert mode.solver is None or callable(getattr(centroids, mode.solver))
            assert mode.builder is None or callable(getattr(centroids, mode.builder))
            assert mode.solver or mode.builder

    def test_cli_choices_are_the_registry_rows(self):
        assert list(_choices("centroid", "mode")) == [n for n, m in MODES.items() if m.solver]
        assert list(_choices("kmeans", "centroid_mode")) == [
            n for n, m in MODES.items() if m.builder
        ]

    @pytest.mark.parametrize("rows", [[[0.5, 0.5], [0.9, 0.1]], [[0.3, 0.7]]])
    def test_solver_results_carry_their_row_name(self, rows):
        s = WeightedHistogramSet(rows, frequency=True)
        for name, mode in MODES.items():
            if mode.solver:
                assert getattr(centroids, mode.solver)(s).mode == name

    def test_singleton_results_set_their_mode_fields(self):
        # A one-member set reports the diagnostics its mode reports at n >= 2.
        one = WeightedHistogramSet([[0.3, 0.7]], frequency=True)
        two = WeightedHistogramSet([[0.5, 0.5], [0.9, 0.1]], frequency=True)
        diagnostics = ("w_c", "lambda_star", "bound_factor", "simplex_defect")
        for name, mode in MODES.items():
            if not mode.solver:
                continue
            solver = getattr(centroids, mode.solver)
            single, pair = solver(one), solver(two)
            assert [getattr(single, f) is None for f in diagnostics] == [
                getattr(pair, f) is None for f in diagnostics
            ], name
            assert single.objective == 0.0 and single.iterations == 0 and not single.fallback
            if single.w_c is not None:
                assert single.w_c == pytest.approx(1.0, abs=1e-15)
            if single.bound_factor is not None:
                assert single.bound_factor == 1.0 / single.w_c
            if single.lambda_star is not None:
                assert single.lambda_star == 0.0 and single.simplex_defect <= 1e-15

    @pytest.mark.parametrize("name", [n for n, m in MODES.items() if m.frequency])
    def test_frequency_only_rows_reject_positive_kind(self, pair_csv, name):
        io_flags = ["--input", pair_csv, "--format", "csv", "--kind", "positive"]
        mode = MODES[name]
        runs = []
        if mode.solver:
            runs.append(["centroid", *io_flags, "--mode", name])
        if mode.builder:
            runs.append(["kmeans", *io_flags, "--k", "1", "--centroid-mode", name])
        for argv in runs:
            code, out, err = run_cli(argv)
            assert code == EXIT_VALIDATION
            assert out == ""
            assert "requires --kind frequency" in err


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

    def test_table_is_trial_data_reduced(self):
        # Every cell is repr() of one TrialData array's mean, min or max.
        code, out, err = run_cli(["bench", "--trials", "3000", "--dims", "3", "--seed", "4"])
        data = run_alpha_trials(3000, 3, seed=4)
        columns = [data.alpha_positive, data.alpha_normalized, data.w_c, data.alpha_veldhuis]
        expected = ["stat,alpha_positive,alpha_normalized,w_c,alpha_veldhuis"]
        for stat, reduce in [("avg", np.mean), ("min", np.min), ("max", np.max)]:
            expected.append(",".join([stat] + [repr(float(reduce(c))) for c in columns]))
        expected += [
            "",
            "metric,value",
            "trials,3000",
            "dims,3",
            f"mean_bisection_halvings,{float(BISECTION_HALVINGS)!r}",
            f"mean_fixedpoint_iterations,{float(data.fixedpoint_iterations.mean())!r}",
        ]
        assert (code, err) == (EXIT_OK, "")
        assert out == "\n".join(expected) + "\n"

    def test_zero_trials_validation(self):
        code, _, _ = run_cli(["bench", "--trials", "0"])
        assert code == EXIT_VALIDATION

    def test_zero_threads_validation(self):
        code, out, err = run_cli(["bench", "--trials", "10", "--threads", "0"])
        assert code == EXIT_VALIDATION
        assert out == ""
        assert "threads" in err

    @pytest.mark.parametrize(
        "flags, names",
        [(["--trials", "0"], "num_trials"), (["--trials", "10", "--dims", "1"], "d must"),
         (["--trials", "10", "--threads", "0"], "threads")],
        ids=["trials", "dims", "threads"],
    )
    def test_sizes_are_left_to_the_harness(self, flags, names):
        # run_alpha_trials refuses each of them; the CLI adds no check of its own.
        code, out, err = run_cli(["bench", *flags])
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err.startswith("error: ")
        assert names in err

    def test_threads_do_not_change_output(self):
        argv = ["bench", "--trials", "3000", "--dims", "2", "--seed", "3"]
        _, out1, _ = run_cli(argv)
        _, out2, _ = run_cli(argv + ["--threads", "3"])
        assert out1 == out2
