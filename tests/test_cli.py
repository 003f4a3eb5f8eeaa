"""Tests for the command-line interface: outputs, exit codes, determinism."""

import json
import math

import numpy as np
import pytest

from ffparadox.cli import main
from ffparadox.metrics import stats_from_degrees


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPredictCommand:
    def test_limit_branch_json(self, capsys):
        code, out, _ = run(capsys, "predict", "--alpha", "2", "--kmin", "1",
                           "--kmax", "100")
        assert code == 0
        payload = json.loads(out)
        assert payload["branch"] == "LIMIT_ALPHA_2"
        assert payload["mean_k"] == pytest.approx(100 * math.log(100) / 99)
        assert payload["k_ff"] == pytest.approx(99 / math.log(100))
        assert payload["var_to_mean"] == pytest.approx(
            payload["k_ff"] - payload["mean_k"]
        )

    def test_alpha_one_rejected(self, capsys):
        code, _, err = run(capsys, "predict", "--alpha", "1.0", "--kmax", "10")
        assert code == 2
        assert "alpha" in err

    def test_unbounded_kmax_converges_for_alpha4(self, capsys):
        code, out, _ = run(capsys, "predict", "--alpha", "4", "--kmin", "1",
                           "--kmax", "inf")
        assert code == 0
        payload = json.loads(out)
        assert payload["k_max"] == "inf"
        assert payload["mean_k"] == pytest.approx(1.5)

    def test_key_order(self, capsys):
        _, out, _ = run(capsys, "predict", "--alpha", "3", "--kmax", "100")
        assert list(json.loads(out)) == [
            "alpha", "k_min", "k_max", "c", "mean_k", "second_moment",
            "variance", "var_to_mean", "k_ff", "branch",
        ]

    def test_point_mass_has_null_constant(self, capsys):
        code, out, _ = run(capsys, "predict", "--alpha", "2.5", "--kmin", "5",
                           "--kmax", "5")
        assert code == 0
        assert '"c": null' in out
        payload = json.loads(out)
        assert payload["branch"] == "DEGENERATE"
        assert payload["mean_k"] == payload["k_ff"] == 5.0
        assert payload["variance"] == payload["var_to_mean"] == 0.0

    def test_unbounded_kmax_divergent_for_alpha2(self, capsys):
        code, _, err = run(capsys, "predict", "--alpha", "2", "--kmax", "inf")
        assert code == 2
        assert "diverge" in err


class TestSweepCommand:
    def test_grid_cardinality_and_header(self, capsys):
        code, out, _ = run(capsys, "sweep", "--alphas", "1.5:3.0:0.5",
                           "--kmaxs", "10,100,1000", "--kmin", "1")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "alpha,k_min,k_max,mean_k,k_ff,var_to_mean,branch"
        assert len(lines) == 1 + 4 * 3

    def test_var_to_mean_increases_with_kmax_within_alpha(self, capsys):
        _, out, _ = run(capsys, "sweep", "--alphas", "1.5:3.0:0.5",
                        "--kmaxs", "10,100,1000")
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        by_alpha = {}
        for row in rows:
            by_alpha.setdefault(row[0], []).append(float(row[5]))
        for alpha, values in by_alpha.items():
            assert values == sorted(values)
            assert all(b > a for a, b in zip(values, values[1:]))

    def test_branch_column_at_alpha2(self, capsys):
        _, out, _ = run(capsys, "sweep", "--alphas", "2.0", "--kmaxs", "10,100")
        for line in out.strip().split("\n")[1:]:
            assert line.endswith("LIMIT_ALPHA_2")

    def test_byte_identical_repeat(self, capsys):
        _, first, _ = run(capsys, "sweep", "--alphas", "1.2:3.0:0.2",
                          "--kmaxs", "10,100,1000")
        _, second, _ = run(capsys, "sweep", "--alphas", "1.2:3.0:0.2",
                           "--kmaxs", "10,100,1000")
        assert first == second

    def test_bad_range_is_usage_error(self, capsys):
        code, _, err = run(capsys, "sweep", "--alphas", "1.5:3.0",
                           "--kmaxs", "10")
        assert code == 1
        assert "usage" in err.lower()


class TestExperimentCommand:
    def test_small_run_structure(self, capsys):
        code, out, _ = run(
            capsys, "experiment", "--alpha", "2", "--kmin", "1",
            "--kmaxs", "10,32", "--n", "500", "--models", "A,B,KALISKY",
            "--seeds", "0,1",
        )
        assert code == 0
        lines = out.strip().split("\n")
        header = lines[0].split(",")
        assert header[0] == "kind"
        cells = [dict(zip(header, line.split(","))) for line in lines[1:]]
        cell_rows = [r for r in cells if r["kind"] == "cell"]
        summary_rows = [r for r in cells if r["kind"] == "summary"]
        assert len(cell_rows) == 2 * 3 * 2  # kmax x model x seed
        assert len(summary_rows) == 2 * 3  # kmax x model
        for row in cell_rows:
            assert row["error"] == ""
            mean = float(row["empirical_mean"])
            var = float(row["empirical_variance"])
            ratio = float(row["empirical_ratio"])
            assert ratio == pytest.approx(var / mean, rel=1e-10)
            assert float(row["predicted_lo"]) <= float(row["predicted_hi"])
            assert 0.0 < float(row["giant_fraction"]) <= 1.0
            assert 1.0 < float(row["alpha_hat"]) <= 6.0

    def test_byte_identical_repeat(self, capsys):
        args = ("experiment", "--kmaxs", "10", "--n", "300", "--seeds", "3,4",
                "--models", "A,B")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_models_share_target_sequence(self, capsys):
        # same (k_max, seed) cell: identical degree sample, so empirical
        # ratios across models differ only through dropped stubs
        _, out, _ = run(capsys, "experiment", "--kmaxs", "10", "--n", "2000",
                        "--seeds", "5", "--models", "A,KALISKY")
        lines = out.strip().split("\n")
        header = lines[0].split(",")
        ratios = [
            float(dict(zip(header, line.split(",")))["empirical_ratio"])
            for line in lines[1:]
            if line.startswith("cell")
        ]
        assert len(ratios) == 2
        assert ratios[0] == pytest.approx(ratios[1], rel=0.02)

    def test_empty_models_is_usage_error(self, capsys):
        code, _, err = run(capsys, "experiment", "--models", "", "--n", "300",
                           "--kmaxs", "10", "--seeds", "0")
        assert code == 1

    def test_unknown_model_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "experiment", "--models", "A,Z", "--n", "300",
                         "--kmaxs", "10", "--seeds", "0")
        assert code == 1

    def test_infinite_kmax_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "experiment", "--kmaxs", "inf", "--n", "300",
                         "--seeds", "0")
        assert code == 1

    @pytest.mark.parametrize("block_size", ["0", "-3"])
    def test_non_positive_block_size_is_usage_error(self, capsys, block_size):
        code, out, err = run(capsys, "experiment", "--n", "300", "--kmaxs", "10",
                             "--seeds", "0", "--block-size", block_size)
        assert code == 1
        assert out == ""
        assert "block size" in err

    def test_small_n_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "experiment", "--n", "99", "--kmaxs", "10",
                         "--seeds", "0")
        assert code == 1

    def test_generator_error_fills_error_column_and_continues(self, capsys):
        # seed 0 at k_max=10^4 samples a degree >= n=150, which no simple
        # graph on 150 vertices can realize; the k_max=10 cells still succeed
        code, out, _ = run(capsys, "experiment", "--kmaxs", "10,10000",
                           "--n", "150", "--seeds", "0", "--models", "A")
        assert code == 0
        lines = out.strip().split("\n")
        header = lines[0].split(",")
        cells = [
            dict(zip(header, line.split(",")))
            for line in lines[1:]
            if line.startswith("cell")
        ]
        by_kmax = {row["k_max"]: row for row in cells}
        assert by_kmax["10000.0"]["error"] == "IMPOSSIBLE_SEQUENCE"
        assert by_kmax["10000.0"]["empirical_ratio"] == ""
        assert by_kmax["10.0"]["error"] == ""
        assert float(by_kmax["10.0"]["empirical_ratio"]) > 0


    def test_all_failed_group_summary_row(self, capsys):
        # every degree sample at alpha 1.3, k_max 5000 has a degree >= n = 100
        code, out, _ = run(capsys, "experiment", "--alpha", "1.3",
                           "--kmaxs", "5000", "--n", "100", "--seeds", "0",
                           "--models", "A,B")
        assert code == 0
        lines = out.strip().split("\n")
        assert [line.split(",")[-1] for line in lines[1:3]] == [
            "IMPOSSIBLE_SEQUENCE"] * 2
        assert lines[3:] == [
            f"summary,{m},,100,5000.0,,,,,1884.1251364739578,,,,,ALL_CELLS_FAILED"
            for m in ("A", "B")
        ]


class TestGenerateCommand:
    def test_writes_deterministic_edge_list(self, capsys, tmp_path):
        out1 = tmp_path / "a.txt"
        out2 = tmp_path / "b.txt"
        for out in (out1, out2):
            code, _, _ = run(capsys, "generate", "--alpha", "2", "--kmax", "50",
                             "--n", "500", "--model", "A", "--seed", "7",
                             "--out", str(out))
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().strip().split("\n")
        pairs = [tuple(map(int, line.split())) for line in lines]
        assert all(u < v for u, v in pairs)
        assert pairs == sorted(pairs)

    def test_stdout_when_no_out_flag(self, capsys):
        code, out, _ = run(capsys, "generate", "--alpha", "2", "--kmax", "10",
                           "--n", "200", "--model", "B", "--seed", "1")
        assert code == 0
        assert all(len(line.split()) == 2 for line in out.strip().split("\n"))

    @pytest.mark.parametrize("block_size", ["0", "-3"])
    def test_non_positive_block_size_is_usage_error(self, capsys, tmp_path,
                                                    block_size):
        out = tmp_path / "g.txt"
        code, _, err = run(capsys, "generate", "--kmax", "100", "--n", "1000",
                           "--model", "B", "--seed", "1", "--block-size",
                           block_size, "--out", str(out))
        assert code == 1
        assert "--block-size" in err
        assert not out.exists()

    @pytest.mark.parametrize("model", ["A", "B", "KALISKY"])
    def test_matches_experiment_cell(self, capsys, tmp_path, model):
        # README contract: generate realizes the graph of the experiment
        # cell with the same seed, k_max, model and n
        n, seed, kmax = 500, 3, "32"
        path = tmp_path / "g.txt"
        code, _, _ = run(capsys, "generate", "--kmax", kmax, "--n", str(n),
                         "--model", model, "--seed", str(seed),
                         "--out", str(path))
        assert code == 0
        ids = np.array(path.read_text().split(), dtype=np.int64)
        stats = stats_from_degrees(np.bincount(ids, minlength=n))
        _, out, _ = run(capsys, "experiment", "--kmaxs", kmax, "--n", str(n),
                        "--models", model, "--seeds", str(seed))
        header, cell = out.split("\n")[:2]
        row = dict(zip(header.split(","), cell.split(",")))
        assert row["kind"] == "cell" and row["error"] == ""
        assert float(row["empirical_mean"]) == stats.mean_k
        assert float(row["empirical_variance"]) == stats.variance

    def test_infinite_kmax_is_domain_error(self, capsys):
        code, _, err = run(capsys, "generate", "--kmax", "inf", "--n", "200",
                           "--seed", "1")
        assert code == 2
        assert "finite" in err


class TestAnalyzeCommand:
    def test_star_metrics(self, capsys, tmp_path):
        path = tmp_path / "star.txt"
        path.write_text("0 1\n0 2\n0 3\n")
        code, out, _ = run(capsys, "analyze", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 4
        assert payload["stats"]["mean_k"] == pytest.approx(1.5)
        assert payload["stats"]["k_ff"] == pytest.approx(2.0)
        assert payload["central_point_dominance"] == pytest.approx(1.0)
        assert payload["components"] == {"count": 1, "sizes": [4]}

    def test_key_order(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n0 2\n0 3\n1 2\n3 4\n4 5\n")
        _, out, _ = run(capsys, "analyze", str(path))
        payload = json.loads(out)
        assert list(payload) == [
            "n", "edges", "stats", "components", "global_efficiency",
            "central_point_dominance", "fit",
        ]
        assert list(payload["stats"]) == [
            "mean_k", "second_moment", "variance", "k_ff", "gap",
        ]
        assert list(payload["fit"]) == [
            "alpha_hat", "stderr", "k_min_used", "n_tail", "ks_distance",
        ]

    def test_empty_file_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 2

    def test_duplicate_edge_reports_line(self, capsys, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("0 1\n0 1\n")
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 2
        assert "line 2" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, _ = run(capsys, "analyze", str(tmp_path / "nope.txt"))
        assert code == 2

    def test_fit_error_reported_inline(self, capsys, tmp_path):
        path = tmp_path / "tri.txt"
        path.write_text("0 1\n0 2\n1 2\n")  # regular graph: no interior MLE
        code, out, _ = run(capsys, "analyze", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["fit"] == {"error": "NO_MAXIMUM"}

    def test_too_many_vertex_pairs_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "path.txt"
        path.write_text("".join(f"{v} {v + 1}\n" for v in range(39999)))
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 2
        assert out == ""
        assert "1599960000 connected ordered vertex pairs" in err
