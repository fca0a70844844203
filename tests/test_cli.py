import ast
import csv
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import ebct
import ebct.cli as cli
import ebct.drf as drf
from ebct import Dataset
from ebct.cli import main, read_csv
from ebct.errors import MissingColumn, ParseError, ResampleDegenerate, ScenarioDegenerate
from ebct.simulation import gen_covariates, gen_outcome, gen_treatment, replication_rng


def write_simulated_csv(path, n=120, sigma=4.0, eta=1.0, seed=0):
    rng = replication_rng(seed, 0)
    x = gen_covariates(n, rng)
    t = gen_treatment(x, sigma, rng)
    y = gen_outcome(x, t, eta, rng)
    header = ["id", "T"] + [f"X{j}" for j in range(1, 11)] + ["Y"]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for i in range(n):
            writer.writerow(
                [f"u{i}", repr(float(t[i]))]
                + [repr(float(v)) for v in x[i]]
                + [repr(float(y[i]))]
            )
    return path


COVARIATES = ",".join(f"X{j}" for j in range(1, 11))


def load_json(path):
    """Parse an output sidecar as strict JSON: NaN and Infinity are errors."""

    def reject(constant):
        raise ValueError(f"{path} holds {constant}, which is not JSON")

    return json.loads(Path(path).read_text(), parse_constant=reject)


class TestReadCsv:

    def test_minimal_file(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("id,T,X1\n1,0.5,1.0\n2,1.5,2.0\n")
        ds = read_csv(path, "T", ["X1"])
        assert ds.n == 2 and ds.k == 1
        assert list(ds.unit_ids) == ["1", "2"]
        np.testing.assert_array_equal(ds.treatment, [0.5, 1.5])

    def test_parse_error_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("T,X1\n0.5,abc\n")
        with pytest.raises(ParseError) as excinfo:
            read_csv(path, "T", ["X1"])
        assert excinfo.value.row == 2
        assert excinfo.value.column == "X1"

    def test_missing_column(self, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("T,X1\n0.5,1.0\n")
        with pytest.raises(MissingColumn):
            read_csv(path, "T", ["X1", "X9"])

    def test_row_index_ids_without_id_column(self, tmp_path):
        path = tmp_path / "noid.csv"
        path.write_text("T,X1\n0.5,1.0\n1.5,2.0\n")
        ds = read_csv(path, "T", ["X1"])
        assert list(ds.unit_ids) == [1, 2]


class TestBalanceCommand:

    def run_balance(self, tmp_path, *extra):
        data = write_simulated_csv(tmp_path / "data.csv")
        out = tmp_path / "out"
        argv = [
            "balance",
            "--input", str(data),
            "--treatment-col", "T",
            "--covariate-cols", COVARIATES,
            "--out", str(out),
            *extra,
        ]
        return main(argv), out

    def test_writes_outputs_and_balances(self, tmp_path, capsys):
        code, out = self.run_balance(tmp_path)
        assert code == 0
        table = (out / "balance_table.txt").read_text()
        weighted_cells = [line.split()[-1] for line in table.splitlines()[1:11]]
        assert all(cell == "0.00" for cell in weighted_cells)
        report = load_json(out / "balance_report.json")
        assert report["method"] == "ebct"
        assert report["converged"] is True
        assert report["weighted"]["max_abs_correlation"] < 1e-6

    def test_weight_file_round_trips_ids(self, tmp_path):
        data = write_simulated_csv(tmp_path / "data.csv", n=200)
        out = tmp_path / "out"
        argv = [
            "balance", "--input", str(data),
            "--treatment-col", "T", "--covariate-cols", COVARIATES,
            "--out", str(out),
        ]
        assert main(argv) == 0
        with open(out / "weights.csv", newline="") as handle:
            weight_by_id = {row["id"]: float(row["weight"]) for row in csv.DictReader(handle)}
        with open(data, newline="") as handle:
            input_ids = [row["id"] for row in csv.DictReader(handle)]
        assert len(input_ids) == 200
        assert list(weight_by_id) == input_ids  # joinable, original order
        assert sum(weight_by_id.values()) == pytest.approx(1.0, abs=1e-9)

    def test_methods_produce_distinct_reports(self, tmp_path):
        data = write_simulated_csv(tmp_path / "data.csv")
        codes = {}
        reports = {}
        for method in ("ebct", "ipw"):
            out = tmp_path / method
            argv = [
                "balance", "--input", str(data),
                "--treatment-col", "T", "--covariate-cols", COVARIATES,
                "--method", method, "--out", str(out),
            ]
            codes[method] = main(argv)
            reports[method] = load_json(out / "balance_report.json")
        assert codes == {"ebct": 0, "ipw": 0}
        assert reports["ebct"]["method"] == "ebct"
        assert reports["ipw"]["method"] == "ipw"
        assert (
            reports["ipw"]["weighted"]["max_abs_correlation"]
            > reports["ebct"]["weighted"]["max_abs_correlation"]
        )

    def test_truncation_caps_weight_share(self, tmp_path):
        code, out = self.run_balance(tmp_path, "--truncate", "0.04")
        assert code == 0
        report = load_json(out / "balance_report.json")
        assert report["weighted"]["max_weight_share"] <= 0.04 + 1e-6
        assert report["weighted"]["max_abs_correlation"] < 1e-6

    def test_reported_share_is_the_written_maximum(self, tmp_path):
        # The report's share is the largest weight weights.csv holds, not
        # that weight after a second division by the weights' float sum.
        code, out = self.run_balance(tmp_path, "--truncate", "0.03")
        assert code == 0
        share = load_json(out / "balance_report.json")["weighted"]["max_weight_share"]
        written = np.loadtxt(out / "weights.csv", delimiter=",", skiprows=1, usecols=1)
        assert share == written.max()
        assert share <= 0.03

    def test_truncated_iterations_count_both_solves(self, tmp_path, monkeypatch):
        # The report counts the Newton steps of the untruncated solve and of
        # the one capped solve that truncation makes.
        import ebct.solver as solver

        solve, capped_steps = solver.solve, []

        def recording(*args, **kwargs):
            result = solve(*args, **kwargs)
            capped_steps.append(result[0].iterations)
            return result

        monkeypatch.setattr(solver, "solve", recording)
        reports = {}
        for name, extra in (("plain", ()), ("capped", ("--truncate", "0.03"))):
            (tmp_path / name).mkdir()
            code, out = self.run_balance(tmp_path / name, *extra)
            assert code == 0
            reports[name] = load_json(out / "balance_report.json")
        assert reports["plain"]["weighted"]["max_weight_share"] > 0.03
        assert reports["capped"]["weighted"]["max_weight_share"] <= 0.03 + 1e-10
        written = np.loadtxt(
            tmp_path / "capped" / "out" / "weights.csv", delimiter=",", skiprows=1, usecols=1
        )
        assert written.max() <= 0.03
        (steps,) = capped_steps
        assert steps > 0 and reports["plain"]["iterations"] > 0
        assert reports["capped"]["iterations"] == reports["plain"]["iterations"] + steps

    def test_certified_infeasible_cap_is_one_error_line(self, tmp_path, capsys):
        # 0.01 is above 1/n = 0.0083, but no balancing weights fit under it
        # (an LP puts the smallest feasible cap at 0.0166).
        code, out = self.run_balance(tmp_path, "--truncate", "0.01")
        assert code == 1
        assert capsys.readouterr().err == (
            "error: threshold 0.01 is infeasible: no weights at or below the cap balance "
            "the sample (Farkas certificate verified)\n"
        )
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "command, method",
        [("balance", "uniform"), ("balance", "ipw"), ("balance", "ebct"), ("drf", "uniform")],
    )
    def test_threshold_below_one_over_n_is_an_input_error(self, tmp_path, capsys, command, method):
        data = write_simulated_csv(tmp_path / "data.csv", n=60)
        out = tmp_path / "out"
        argv = [
            command, "--input", str(data), "--treatment-col", "T",
            "--covariate-cols", COVARIATES, "--method", method,
            "--truncate", "0.001", "--out", str(out),
        ]
        if command == "drf":
            argv += ["--outcome-col", "Y", "--bootstrap", "0"]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: threshold 0.001 is below 1/n = {1.0 / 60}\n"
        )
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(
        "command, method",
        [("balance", "uniform"), ("balance", "ipw"), ("balance", "ebct"), ("drf", "ebct")],
    )
    def test_non_finite_threshold_is_an_input_error(
        self, tmp_path, capsys, command, method, value
    ):
        data = write_simulated_csv(tmp_path / "data.csv", n=60)
        out = tmp_path / "out"
        argv = [
            command, "--input", str(data), "--treatment-col", "T",
            "--covariate-cols", COVARIATES, "--method", method,
            "--truncate", value, "--out", str(out),
        ]
        if command == "drf":
            argv += ["--outcome-col", "Y", "--bootstrap", "0"]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: threshold {float(value)} is not a finite weight share\n"
        )
        assert list(out.iterdir()) == []

    def test_too_few_units_for_ipw_is_one_error_line(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("T,X1,X2\n0.5,1.0,2.0\n1.5,0.0,1.0\n-0.3,2.0,0.5\n")
        out = tmp_path / "out"
        argv = [
            "balance", "--input", str(data), "--treatment-col", "T",
            "--covariate-cols", "X1,X2", "--method", "ipw", "--out", str(out),
        ]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: need at least K+2 = 4 units for K=2 covariates, got 3\n"
        )
        assert list(out.iterdir()) == []

    def test_no_covariates_writes_null_aggregates(self, tmp_path):
        code, out = self.run_balance(tmp_path, "--covariate-cols", ",")
        assert code == 0
        report = load_json(out / "balance_report.json")
        for side in ("unweighted", "weighted"):
            assert report[side]["correlations"] == {}
            assert report[side]["max_abs_correlation"] is None
            assert report[side]["mean_abs_correlation"] is None

    def test_column_named_y_without_an_outcome(self, tmp_path, capsys):
        # Without --outcome-col no outcome is read, so a column named Y is
        # free to be a covariate or the treatment.
        code, out = self.run_balance(tmp_path, "--covariate-cols", "X1,Y")
        assert code == 0
        assert list(load_json(out / "balance_report.json")["weighted"]["correlations"]) == [
            "X1", "Y",
        ]
        code, out = self.run_balance(tmp_path, "--treatment-col", "Y", "--force")
        assert code == 0
        assert capsys.readouterr().err == ""
        data = tmp_path / "data.csv"
        argv = [
            "drf", "--input", str(data), "--treatment-col", "T",
            "--covariate-cols", "X1,Y", "--outcome-col", "Y", "--bootstrap", "0",
            "--out", str(tmp_path / "drf"),
        ]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: column names must be unique\n"

    def test_relative_input_recorded_normalized(self, tmp_path, monkeypatch):
        write_simulated_csv(tmp_path / "x.csv")
        monkeypatch.chdir(tmp_path)
        argv = [
            "balance", "--input", "./x.csv",
            "--treatment-col", "T", "--covariate-cols", COVARIATES + ",",
            "--out", "out",
        ]
        assert main(argv) == 0
        report = load_json(tmp_path / "out" / "balance_report.json")
        assert report["input"] == "x.csv"

    def test_method_choices(self, tmp_path, capsys):
        for command in ("balance", "drf"):
            with pytest.raises(SystemExit) as excinfo:
                cli.build_parser().parse_args(
                    [command, "--input", "d.csv", "--treatment-col", "T",
                     "--covariate-cols", "X1", "--outcome-col", "Y", "--method", "unweighted"]
                )
            assert excinfo.value.code == 2
            assert "choose from 'ebct', 'ipw', 'uniform'" in capsys.readouterr().err

    def test_refuses_overwrite_without_force(self, tmp_path):
        code, out = self.run_balance(tmp_path)
        assert code == 0
        data = tmp_path / "data.csv"
        argv = [
            "balance", "--input", str(data),
            "--treatment-col", "T", "--covariate-cols", COVARIATES,
            "--out", str(out),
        ]
        assert main(argv) == 1
        assert main(argv + ["--force"]) == 0

    def test_input_errors_exit_one(self, tmp_path):
        argv = [
            "balance", "--input", str(tmp_path / "absent.csv"),
            "--treatment-col", "T", "--covariate-cols", "X1",
            "--out", str(tmp_path / "out"),
        ]
        assert main(argv) == 1

    def test_row_without_id_cell_is_an_input_error(self, tmp_path, capsys):
        data = tmp_path / "short.csv"
        data.write_text("T,X,id\n1.0,2.0,a\n3.0,4.0\n5.0,7.0,c\n")
        argv = [
            "balance", "--input", str(data),
            "--treatment-col", "T", "--covariate-cols", "X",
            "--out", str(tmp_path / "out"),
        ]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: cannot parse '' in column 'id', row 3\n"

    def test_oversized_field_is_an_input_error(self, tmp_path, capsys):
        data = tmp_path / "long.csv"
        data.write_text("T,X,id\n1.0,2.0,a\n3.0,4.0," + "x" * 140_000 + "\n5.0,7.0,c\n")
        argv = [
            "balance", "--input", str(data),
            "--treatment-col", "T", "--covariate-cols", "X",
            "--out", str(tmp_path / "out"),
        ]
        assert main(argv) == 1
        limit = csv.field_size_limit()
        assert capsys.readouterr().err == (
            f"error: cannot read row 3: field larger than field limit ({limit})\n"
        )

    def test_nul_rejected_by_the_reader_is_an_input_error(self, tmp_path, capsys, monkeypatch):
        # csv.reader before Python 3.11 rejects a line holding a NUL character.
        real_reader = csv.reader

        def reader_without_nul(lines, *args, **kwargs):
            def checked():
                for line in lines:
                    if "\x00" in line:
                        raise csv.Error("line contains NUL")
                    yield line

            return real_reader(checked(), *args, **kwargs)

        monkeypatch.setattr(csv, "reader", reader_without_nul)
        data = tmp_path / "nul.csv"
        data.write_text("T,X,id\n1.0,2.0,a\n3.0,4.0,b\x00\n5.0,7.0,c\n")
        argv = [
            "balance", "--input", str(data),
            "--treatment-col", "T", "--covariate-cols", "X",
            "--out", str(tmp_path / "out"),
        ]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: cannot read row 3: line contains NUL\n"

    def test_weights_csv_matches_csv_writer(self, tmp_path):
        ids = ("plain", "a,b", 'say "hi"', '"', "cr\rid", "lf\nid", "crlf\r\nid", " spaced ", "", 7)
        rng = np.random.default_rng(3)
        n = len(ids)
        dataset = Dataset(
            treatment=rng.standard_normal(n), covariates=rng.standard_normal((n, 1)), unit_ids=ids
        )
        weights = SimpleNamespace(weights=rng.dirichlet(np.full(n, 0.05)))
        cli._write_weights_csv(tmp_path / "weights.csv", dataset, weights)
        with open(tmp_path / "oracle.csv", "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["id", "weight"])
            for unit_id, weight in zip(ids, weights.weights):
                writer.writerow([unit_id, repr(float(weight))])
        assert (tmp_path / "weights.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    def test_weights_csv_quotes_an_id_past_the_first_block(self, tmp_path):
        # The writer looks for ids that need quoting one block of rows at a
        # time; here the first such id is in the second block, read back as
        # read_csv gives it.
        n = cli._WRITE_ROWS + 100
        ids = [f"u{i}" for i in range(n)]
        ids[cli._WRITE_ROWS + 7] = 'x,"y"'
        rng = np.random.default_rng(4)
        with open(tmp_path / "input.csv", "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["id", "T", "X"])
            writer.writerows(zip(ids, rng.standard_normal(n).tolist(), rng.standard_normal(n).tolist()))
        dataset = read_csv(tmp_path / "input.csv", "T", ["X"])
        assert dataset.unit_ids.dtype == np.dtypes.StringDType()
        weights = SimpleNamespace(weights=rng.dirichlet(np.ones(n)))
        cli._write_weights_csv(tmp_path / "weights.csv", dataset, weights)
        with open(tmp_path / "oracle.csv", "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["id", "weight"])
            for unit_id, weight in zip(ids, weights.weights):
                writer.writerow([unit_id, repr(float(weight))])
        assert (tmp_path / "weights.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    def test_non_convergence_still_writes_outputs(self, tmp_path, monkeypatch):
        from ebct.data import uniform_weights
        from ebct.errors import NotConverged

        def stubborn(dataset, method, truncation=None):
            weights = uniform_weights(dataset.n)
            object.__setattr__(weights, "method_tag", "ebct")
            object.__setattr__(weights, "converged", False)
            object.__setattr__(weights, "iterations", 200)
            object.__setattr__(weights, "final_gradient_norm", 1.0)
            raise NotConverged(weights)

        monkeypatch.setattr(cli, "estimate_weights", stubborn)
        data = write_simulated_csv(tmp_path / "data.csv")
        out = tmp_path / "out"
        argv = [
            "balance", "--input", str(data),
            "--treatment-col", "T", "--covariate-cols", COVARIATES,
            "--out", str(out),
        ]
        assert main(argv) == 2
        assert (out / "weights.csv").exists()
        report = load_json(out / "balance_report.json")
        assert report["converged"] is False


class TestDrfCommand:

    def test_parser_defaults_match_contract(self):
        args = cli.build_parser().parse_args(
            ["drf", "--input", "x.csv", "--treatment-col", "T",
             "--covariate-cols", "X1", "--outcome-col", "Y"]
        )
        assert args.degree == 3
        assert args.bootstrap == 1000

    def test_bootstrap_skipped_when_zero(self, tmp_path):
        data = write_simulated_csv(tmp_path / "data.csv")
        out = tmp_path / "out"
        argv = [
            "drf", "--input", str(data),
            "--treatment-col", "T", "--covariate-cols", COVARIATES,
            "--outcome-col", "Y", "--bootstrap", "0", "--out", str(out),
        ]
        assert main(argv) == 0
        lines = (out / "drf.csv").read_text().splitlines()
        assert lines[0] == "t,drf,derivative,se,significant"
        assert len(lines) == 51
        assert all(line.endswith(",,") for line in lines[1:])
        meta = load_json(out / "drf.json")
        assert meta["degree"] == 3 and meta["bootstrap_reps"] == 0

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--grid-points", "0", "grid points must be at least 1, got 0"),
            ("--bootstrap", "-2", "--bootstrap must be non-negative, got -2"),
            ("--bootstrap", "1", "--bootstrap must be 0 or at least 2, got 1"),
            ("--degree", "0", "--degree must be at least 1, got 0"),
            ("--degree", "-2", "--degree must be at least 1, got -2"),
            ("--seed", "-1", "--seed must be non-negative, got -1"),
        ],
        ids=["grid-points", "bootstrap", "bootstrap-1", "degree-0", "degree-negative", "seed"],
    )
    def test_bad_counts_are_input_errors(self, tmp_path, capsys, monkeypatch, flag, value,
                                         message):
        def unreachable(*args, **kwargs):
            pytest.fail("the weights were estimated before the settings were checked")

        monkeypatch.setattr(cli, "estimate_weights", unreachable)
        data = write_simulated_csv(tmp_path / "data.csv")
        out = tmp_path / "out"
        argv = [
            "drf", "--input", str(data),
            "--treatment-col", "T", "--covariate-cols", COVARIATES,
            "--outcome-col", "Y", flag, value, "--out", str(out),
        ]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_small_bootstrap_fills_columns(self, tmp_path):
        data = write_simulated_csv(tmp_path / "data.csv")
        out = tmp_path / "out"
        argv = [
            "drf", "--input", str(data),
            "--treatment-col", "T", "--covariate-cols", COVARIATES,
            "--outcome-col", "Y", "--bootstrap", "20", "--grid-points", "8",
            "--method", "uniform", "--seed", "5", "--out", str(out),
        ]
        assert main(argv) == 0
        with open(out / "drf.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 8
        assert all(float(row["se"]) > 0 for row in rows)
        assert all(row["significant"] in ("0", "1") for row in rows)

    @pytest.mark.parametrize("method", ["ipw", "uniform", "ebct"])
    def test_bootstrap_on_fewer_units_than_ebct_needs(self, tmp_path, capsys, method):
        # n=8 and K=4: below EBCT's 2K+2 = 10 units, within IPW's K+2 = 6.
        data = write_simulated_csv(tmp_path / "data.csv", n=8)
        out = tmp_path / "out"
        argv = [
            "drf", "--input", str(data), "--treatment-col", "T",
            "--covariate-cols", "X1,X2,X3,X4", "--outcome-col", "Y", "--bootstrap", "20",
            "--grid-points", "5", "--method", method, "--seed", "1", "--out", str(out),
        ]
        if method == "ebct":
            assert main(argv) == 1
            assert capsys.readouterr().err == (
                "error: need at least 2K+2 = 10 units for K=4 covariates, got 8\n"
            )
            return
        assert main(argv) == 0
        with open(out / "drf.csv", newline="") as handle:
            assert all(float(row["se"]) > 0 for row in csv.DictReader(handle))

    def test_same_seed_byte_identical(self, tmp_path):
        data = write_simulated_csv(tmp_path / "data.csv")
        outputs = []
        for run in ("first", "second"):
            out = tmp_path / run
            argv = [
                "drf", "--input", str(data),
                "--treatment-col", "T", "--covariate-cols", COVARIATES,
                "--outcome-col", "Y", "--bootstrap", "20", "--seed", "3", "--out", str(out),
            ]
            assert main(argv) == 0
            outputs.append([(out / name).read_bytes() for name in ("drf.csv", "drf.json")])
        assert outputs[0] == outputs[1]

    def test_truncated_bootstrap_starts_at_untruncated_multipliers(self, tmp_path, monkeypatch):
        # Each replicate's first solve is untruncated, so it starts at the
        # untruncated full-sample optimum, which the truncated weights keep as
        # their gamma. Zeroing that gamma gives the cold start.
        import ebct.weighting as weighting

        data = write_simulated_csv(tmp_path / "data.csv")
        solve, iterations = weighting.solve, []

        def counting_solve(*args, **kwargs):
            result = solve(*args, **kwargs)
            iterations.append(result[0].iterations)
            return result

        def run(name):
            iterations.clear()
            argv = [
                "drf", "--input", str(data), "--treatment-col", "T",
                "--covariate-cols", COVARIATES, "--outcome-col", "Y", "--truncate", "0.03",
                "--bootstrap", "20", "--grid-points", "6", "--seed", "4",
                "--out", str(tmp_path / name),
            ]
            assert main(argv) == 0
            with open(tmp_path / name / "drf.csv", newline="") as handle:
                return list(csv.DictReader(handle)), sum(iterations)

        monkeypatch.setattr(weighting, "solve", counting_solve)
        warm, warm_iterations = run("warm")
        bootstrap_se = cli.bootstrap_se
        monkeypatch.setattr(
            cli,
            "bootstrap_se",
            lambda fit, dataset, weights, *args: bootstrap_se(
                fit, dataset, replace(weights, gamma=np.zeros_like(weights.gamma)), *args
            ),
        )
        cold, cold_iterations = run("cold")
        assert warm_iterations < cold_iterations
        for w, c in zip(warm, cold):
            assert (w["t"], w["drf"], w["derivative"]) == (c["t"], c["drf"], c["derivative"])
            assert float(w["se"]) == pytest.approx(float(c["se"]), rel=1e-7, abs=0)
            assert w["significant"] == c["significant"]

    @pytest.mark.parametrize("method", ["ebct", "ipw"])
    def test_truncated_full_sample_is_estimated_once(self, tmp_path, monkeypatch, method):
        # Truncation acts on the weights already estimated: one standardize
        # and one solve (the capped solve goes through ebct.solver.solve), or
        # one GPS fit, then one truncation.
        import ebct.weighting as weighting

        calls = []
        for name in ("standardize", "solve", "ipw_weights", "truncate_and_rebalance"):
            fn = getattr(weighting, name)

            def counted(*args, _fn=fn, _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(weighting, name, counted)
        data = write_simulated_csv(tmp_path / "data.csv")
        argv = [
            "drf", "--input", str(data), "--treatment-col", "T",
            "--covariate-cols", COVARIATES, "--outcome-col", "Y", "--method", method,
            "--truncate", "0.03", "--bootstrap", "0", "--out", str(tmp_path / "out"),
        ]
        assert main(argv) == 0
        if method == "ebct":
            assert calls == ["standardize", "solve", "truncate_and_rebalance"]
        else:
            assert calls == ["ipw_weights"]

    def test_certified_infeasible_replicate_is_redrawn(self, tmp_path, monkeypatch):
        # The full sample fits under 0.03; a resample that does not is
        # proven infeasible and drawn again.
        import ebct.weighting as weighting
        from ebct.errors import ThresholdInfeasible

        truncate, certified = weighting.truncate_and_rebalance, []

        def recording(*args, **kwargs):
            try:
                return truncate(*args, **kwargs)
            except ThresholdInfeasible as err:
                certified.append(err.certificate)
                raise

        monkeypatch.setattr(weighting, "truncate_and_rebalance", recording)
        data = write_simulated_csv(tmp_path / "data.csv")
        out = tmp_path / "out"
        argv = [
            "drf", "--input", str(data), "--treatment-col", "T",
            "--covariate-cols", COVARIATES, "--outcome-col", "Y", "--truncate", "0.03",
            "--bootstrap", "5", "--grid-points", "4", "--seed", "1", "--out", str(out),
        ]
        assert main(argv) == 0
        assert len(certified) == 2 and all(r is not None for r in certified)
        assert load_json(out / "drf.json")["bootstrap_reps"] == 5
        with open(out / "drf.csv", newline="") as handle:
            assert all(float(row["se"]) > 0 for row in csv.DictReader(handle))

    def test_non_convergence_with_bootstrap_still_writes_outputs(
        self, tmp_path, monkeypatch, capsys
    ):
        # The full-sample solve stops after one Newton step; the resamples
        # solve normally. Only the full sample comes without copy counts.
        from unittest import mock

        from ebct import estimate_weights, solve, solver, standardize

        data = write_simulated_csv(tmp_path / "data.csv")

        def one_step_on_full_sample(dataset, method, truncation=None, counts=None):
            if counts is None:
                with mock.patch.object(solver, "_MAX_ITERATIONS", 1):
                    return solve(standardize(dataset))[0]  # raises NotConverged
            return estimate_weights(dataset, method, truncation, counts=counts)

        monkeypatch.setattr(cli, "estimate_weights", one_step_on_full_sample)
        monkeypatch.setattr(drf, "estimate_weights", one_step_on_full_sample)
        out = tmp_path / "out"
        argv = [
            "drf", "--input", str(data),
            "--treatment-col", "T", "--covariate-cols", COVARIATES,
            "--outcome-col", "Y", "--bootstrap", "5", "--grid-points", "4",
            "--out", str(out),
        ]
        assert main(argv) == 2
        assert "warning:" in capsys.readouterr().err
        with open(out / "drf.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 4
        assert all(float(row["se"]) > 0 for row in rows)
        assert load_json(out / "drf.json")["bootstrap_reps"] == 5

    def test_bootstrap_failure_exit_code(self, tmp_path, monkeypatch):
        data = write_simulated_csv(tmp_path / "data.csv")

        def explode(*args, **kwargs):
            raise ResampleDegenerate("synthetic")

        monkeypatch.setattr(cli, "bootstrap_se", explode)
        argv = [
            "drf", "--input", str(data),
            "--treatment-col", "T", "--covariate-cols", COVARIATES,
            "--outcome-col", "Y", "--bootstrap", "5", "--out", str(tmp_path / "out"),
        ]
        assert main(argv) == 3


def limit_first_solve(monkeypatch, module, iterations):
    """Stop the first solve looked up as ``module.solve`` after ``iterations`` steps.

    ``ebct.weighting.solve`` is the untruncated full-sample solve and
    ``ebct.solver.solve`` the capped solve of its truncation; later solves,
    the bootstrap replicates' included, run to convergence.
    """
    from unittest import mock

    import ebct.solver as solver

    solve, calls = module.solve, []

    def limited(*args, **kwargs):
        calls.append(args)
        if len(calls) > 1:
            return solve(*args, **kwargs)
        with mock.patch.object(solver, "_MAX_ITERATIONS", iterations):
            return solve(*args, **kwargs)

    monkeypatch.setattr(module, "solve", limited)
    return calls


class TestTruncationFailurePaths:
    """A solve that stops at the iteration limit never lets weights overrun the cap.

    Without the limit both commands exit 0; with it they exit 2 with a
    warning, and the weights they use are capped all the same. The limits
    are chosen so that the weights the cap acts on exceed it: 0.044 for the
    untruncated solve after 3 steps, and 0.077 for the uncapped weights of
    the capped solve's multipliers after 2 of the 3 steps it needs.
    """

    CAP = 0.03

    @pytest.fixture(params=["untruncated-solve", "rebalancing-round"])
    def limited(self, request, monkeypatch):
        import ebct.solver as solver
        import ebct.weighting as weighting

        if request.param == "untruncated-solve":
            return limit_first_solve(monkeypatch, weighting, 3)
        return limit_first_solve(monkeypatch, solver, 2)

    def argv(self, tmp_path, command, *extra):
        data = write_simulated_csv(tmp_path / "data.csv")
        return [
            command, "--input", str(data), "--treatment-col", "T",
            "--covariate-cols", COVARIATES, "--truncate", repr(self.CAP),
            "--out", str(tmp_path / "out"), *extra,
        ]

    def test_balance_writes_capped_weights(self, tmp_path, capsys, limited):
        assert main(self.argv(tmp_path, "balance")) == 2
        assert limited
        assert "warning: no convergence" in capsys.readouterr().err
        out = tmp_path / "out"
        weights = np.loadtxt(out / "weights.csv", delimiter=",", skiprows=1, usecols=1)
        assert weights.max() <= self.CAP + 1e-10
        report = load_json(out / "balance_report.json")
        assert report["converged"] is False
        assert report["truncation_threshold"] == self.CAP
        assert report["weighted"]["max_weight_share"] <= self.CAP + 1e-10

    def test_drf_fits_capped_weights(self, tmp_path, capsys, monkeypatch, limited):
        fitted = []
        estimate_drf = cli.estimate_drf

        def recording(dataset, weights, **kwargs):
            fitted.append(weights)
            return estimate_drf(dataset, weights, **kwargs)

        monkeypatch.setattr(cli, "estimate_drf", recording)
        argv = self.argv(tmp_path, "drf", "--outcome-col", "Y", "--bootstrap", "5",
                         "--grid-points", "4")
        assert main(argv) == 2
        assert limited
        assert "warning: no convergence" in capsys.readouterr().err
        (weights,) = fitted
        assert not weights.converged
        assert weights.max_share <= self.CAP + 1e-10
        with open(tmp_path / "out" / "drf.csv", newline="") as handle:
            assert all(float(row["se"]) > 0 for row in csv.DictReader(handle))


class TestSimulateCommand:

    def simulate_argv(self, out, seed="9", reps="30", jobs=None):
        argv = [
            "simulate", "--n", "200", "--sigma", "4", "--eta", "1", "--spec", "1",
            "--replications", reps, "--seed", seed, "--out", str(out),
        ]
        if jobs:
            argv += ["--jobs", jobs]
        return argv

    def test_single_cell_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(self.simulate_argv(out)) == 0
        lines = (out / "scenarios.csv").read_text().splitlines()
        assert len(lines) == 4
        table = (out / "scenarios_table.txt").read_text()
        assert "N=200" in table
        assert load_json(out / "scenarios.json")["cells"] == 1

    def test_same_seed_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(self.simulate_argv(out1)) == 0
        assert main(self.simulate_argv(out2)) == 0
        assert (out1 / "scenarios.csv").read_bytes() == (out2 / "scenarios.csv").read_bytes()

    def test_jobs_do_not_change_bytes(self, tmp_path):
        # Several cells, so that --jobs 2 really hands them to worker processes.
        outputs = []
        for jobs in ("1", "2"):
            out = tmp_path / jobs
            argv = [
                "simulate", "--paper-grid", "--sizes", "200", "--replications", "3",
                "--seed", "9", "--jobs", jobs, "--out", str(out),
            ]
            assert main(argv) == 0
            assert load_json(out / "scenarios.json")["cells"] >= 2
            outputs.append((out / "scenarios.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_method_names(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(self.simulate_argv(out, reps="2") + ["--methods", "uniform"]) == 1
        assert "unknown methods: ['uniform']" in capsys.readouterr().err
        assert main(self.simulate_argv(out, reps="8") + ["--methods", "ebct,ebct"]) == 1
        assert capsys.readouterr().err == "error: methods must not repeat, got ['ebct', 'ebct']\n"
        assert not out.exists()
        assert main(self.simulate_argv(out, reps="2") + ["--methods", "ebct,unweighted"]) == 0
        header, *rows = (out / "scenarios.csv").read_text().splitlines()
        assert [row.split(",")[4] for row in rows] == ["ebct", "unweighted"]
        assert cli.build_parser().parse_args(["simulate"]).methods == "unweighted,ipw,ebct"

    def test_repeated_grid_size_is_an_input_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = [
            "simulate", "--paper-grid", "--sizes", "200,200", "--replications", "2",
            "--out", str(out),
        ]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: sample sizes must not repeat, got [200, 200]\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--sizes", "500"], "--sizes applies only with --paper-grid"),
            (["--paper-grid", "--sizes", ""],
             "--sizes must be comma-separated sample sizes, got ''"),
            (["--paper-grid", "--sizes", "200,"],
             "--sizes must be comma-separated sample sizes, got '200,'"),
        ],
        ids=["without-paper-grid", "empty", "trailing-comma"],
    )
    def test_sizes_it_would_ignore_or_widen_are_an_input_error(
        self, tmp_path, capsys, extra, message
    ):
        # Each would otherwise run cells nobody asked for: the default n=200
        # cell, or every size's.
        out = tmp_path / "out"
        assert main(["simulate", "--replications", "2", "--out", str(out), *extra]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--n", "500"], "--n cannot be given with --paper-grid"),
            (["--sigma", "2"], "--sigma cannot be given with --paper-grid"),
            (["--eta", "1.5"], "--eta cannot be given with --paper-grid"),
            (["--spec", "3"], "--spec cannot be given with --paper-grid"),
            # A value equal to the one-cell default is still a given option.
            (["--n", "200"], "--n cannot be given with --paper-grid"),
            (["--n", "500", "--spec", "3", "--sigma", "2"],
             "--n, --sigma, --spec cannot be given with --paper-grid"),
        ],
        ids=["n", "sigma", "eta", "spec", "n-at-default", "several"],
    )
    def test_cell_options_under_paper_grid_are_an_input_error(
        self, tmp_path, capsys, extra, message
    ):
        # The grid runs its own cells, so it would silently ignore them.
        out = tmp_path / "out"
        argv = ["simulate", "--paper-grid", "--sizes", "200", "--replications", "2",
                "--out", str(out), *extra]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    def test_one_cell_defaults(self, tmp_path):
        # Without the cell options, the one cell is n=200, sigma 4, eta 1, spec 1.
        implicit, explicit = tmp_path / "implicit", tmp_path / "explicit"
        base = ["simulate", "--replications", "3", "--seed", "4", "--methods", "ebct"]
        assert main([*base, "--out", str(implicit)]) == 0
        assert main([*base, "--out", str(explicit), "--n", "200", "--sigma", "4.0",
                     "--eta", "1.0", "--spec", "1"]) == 0
        for name in ("scenarios.csv", "scenarios_table.txt", "scenarios.json"):
            assert (implicit / name).read_bytes() == (explicit / name).read_bytes()
        row = (implicit / "scenarios.csv").read_text().splitlines()[1]
        assert row.startswith("200,4.0,1.0,1,ebct,")

    def test_negative_seed_is_an_input_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(self.simulate_argv(out, seed="-1")) == 1
        assert capsys.readouterr().err == "error: --seed must be non-negative, got -1\n"
        assert not out.exists()

    def test_different_seed_changes_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(self.simulate_argv(out1, seed="9")) == 0
        assert main(self.simulate_argv(out2, seed="10")) == 0
        assert (out1 / "scenarios.csv").read_bytes() != (out2 / "scenarios.csv").read_bytes()

    def test_paper_grid_cardinality(self, tmp_path):
        out = tmp_path / "out"
        argv = [
            "simulate", "--paper-grid", "--replications", "2",
            "--methods", "unweighted,ipw,ebct", "--seed", "3", "--out", str(out),
        ]
        assert main(argv) == 0
        lines = (out / "scenarios.csv").read_text().splitlines()
        # 54 cells x 3 methods + header
        assert len(lines) == 163
        table = (out / "scenarios_table.txt").read_text()
        for n in (200, 500, 1000):
            assert f"N={n}" in table

    def test_degenerate_scenario_exit_code(self, tmp_path, monkeypatch):
        def explode(configs, jobs=1):
            raise ScenarioDegenerate("synthetic")

        monkeypatch.setattr(cli, "run_grid", explode)
        assert main(self.simulate_argv(tmp_path / "out")) == 4


class TestJobsEnvironment:

    def run_simulate(self, tmp_path, monkeypatch, *extra):
        """Exit code and the worker count handed to run_grid (no cells run)."""
        recorded = []

        def record(configs, jobs=1):
            recorded.append(jobs)
            return []

        monkeypatch.setattr(cli, "run_grid", record)
        argv = ["simulate", "--replications", "1", "--out", str(tmp_path), "--force", *extra]
        return main(argv), recorded

    @pytest.mark.parametrize("env", ["3", "two", "0"])
    def test_environment_sets_no_jobs(self, tmp_path, monkeypatch, env):
        # --jobs is the one way to set the worker count; it defaults to 1.
        monkeypatch.setenv("EBCT_JOBS", env)
        assert self.run_simulate(tmp_path, monkeypatch) == (0, [1])
        assert self.run_simulate(tmp_path, monkeypatch, "--jobs", "2") == (0, [2])

    @pytest.mark.parametrize(
        "extra, message",
        [
            (("--jobs", "-3"), "--jobs must be at least 1, got -3"),
            (("--jobs", "0"), "--jobs must be at least 1, got 0"),
        ],
        ids=["jobs-negative", "jobs-zero"],
    )
    def test_jobs_below_one_are_input_errors(self, tmp_path, monkeypatch, capsys, extra, message):
        assert self.run_simulate(tmp_path, monkeypatch, *extra) == (1, [])
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not any(tmp_path.iterdir())


class TestVersionFlag:

    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0


class TestUsageErrors:
    """argparse exits 2 on a usage error; ``main`` makes it an input error,
    since 2 means "not converged, outputs written"."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["balance", "--input", "x.csv"], "the following arguments are required"),
            (["simulate", "--n", "300"], "invalid choice: 300"),
            (["drf", "--input", "x.csv", "--seed", "one"], "invalid int value"),
            ([], "the following arguments are required: command"),
        ],
        ids=["missing", "choice", "type", "no-command"],
    )
    def test_usage_errors_exit_one(self, tmp_path, monkeypatch, capsys, argv, message):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [["--help"], ["balance", "--help"]], ids=["top", "command"])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 0
        assert "usage: ebct" in capsys.readouterr().out


def imported_modules(*args):
    """Every module a fresh interpreter imports to run ``python args``."""
    src = str(Path(ebct.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    lines = [line for line in result.stderr.splitlines() if line.startswith("import time:")]
    return {line.rsplit("|", 1)[-1].strip() for line in lines[1:]}


class TestImports:

    @pytest.mark.parametrize(
        "args", [("-c", "import ebct.cli"), ("-m", "ebct.cli", "--version")], ids=["import", "version"]
    )
    def test_cli_does_not_import_scipy(self, args):
        modules = imported_modules(*args)
        assert {"numpy", "ebct.solver", "ebct.drf"} <= modules
        assert not [name for name in modules if name.split(".")[0] == "scipy"]

    def test_only_the_solver_imports_numpy_internals(self):
        # A numpy module with a private component in its dotted name, such as
        # numpy.linalg._umath_linalg, may change in any release. One module
        # owns that dependency, and its tests pin what it relies on.
        def private(name):
            parts = name.split(".")
            return parts[0] == "numpy" and any(part.startswith("_") for part in parts)

        importers = set()
        for path in Path(ebct.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module:
                    names = [f"{node.module}.{alias.name}" for alias in node.names]
                else:
                    continue
                if any(map(private, names)):
                    importers.add(path.name)
        assert importers == {"solver.py"}

    def test_the_solver_reads_only_kernels_of_the_numpy_floor(self):
        # pyproject's floor is numpy 2.0, whose _umath_linalg has cholesky_lo
        # and solve. Any other kernel, or the module handed on whole, must
        # first be checked against that release.
        tree = ast.parse((Path(ebct.__file__).parent / "solver.py").read_text())
        module = [
            node for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "_umath_linalg"
        ]
        reads = [
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.value in module
        ]
        assert set(reads) == {"cholesky_lo", "solve"}
        assert len(reads) == len(module)

    def test_every_private_helper_is_used(self):
        # A module-level private function, class or constant that no module
        # of the package reads is dead code left behind by a change.
        defined, loaded = set(), set()
        for path in Path(ebct.__file__).parent.glob("*.py"):
            tree = ast.parse(path.read_text())
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    names = [node.name]
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
                else:
                    continue
                defined.update(
                    (path.name, name)
                    for name in names
                    if name.startswith("_") and not name.endswith("__")
                )
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    loaded.add(node.id)
                elif isinstance(node, ast.Attribute):
                    loaded.add(node.attr)
        assert len(defined) > 50
        assert sorted(f"{module}:{name}" for module, name in defined if name not in loaded) == []

    def test_cli_does_not_import_the_process_pool(self):
        # Only simulate --jobs 2 and up needs it; test_jobs_do_not_change_bytes
        # covers that path.
        modules = imported_modules("-c", "import ebct.cli")
        assert "ebct.simulation" in modules
        assert "concurrent.futures.process" not in modules

    @pytest.mark.parametrize(
        "command",
        [
            ("balance", "--truncate", "0.03"),
            ("drf", "--outcome-col", "Y", "--bootstrap", "5"),
            (
                "drf", "--outcome-col", "Y", "--method", "ipw", "--truncate", "0.02",
                "--bootstrap", "5", "--degree", "1",
            ),
            ("simulate", "--paper-grid", "--sizes", "200", "--replications", "2"),
        ],
        ids=["balance-truncate", "drf-bootstrap", "drf-ipw-truncate-linear", "simulate-paper-grid"],
    )
    def test_runs_load_neither_numpy_polynomial_nor_numpy_ma(self, tmp_path, command):
        # Each would stay in memory for the whole run, and no command needs
        # either: drf's polynomials are numpy core's np.vander, np.polyval and
        # np.polyder, and its distinct counts and grid are stand-ins.
        name, *options = command
        if name != "simulate":
            data = write_simulated_csv(tmp_path / "in.csv")
            options += ["--input", str(data), "--treatment-col", "T", "--covariate-cols", COVARIATES]
        modules = imported_modules("-m", "ebct.cli", name, *options, "--out", str(tmp_path / "out"))
        assert {"numpy", "numpy.linalg", "ebct.drf"} <= modules
        assert not [m for m in modules if m.split(".")[:2] in (["numpy", "polynomial"], ["numpy", "ma"])]
