"""Tests for the command-line interface: outputs, exit codes, determinism."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ffparadox
from ffparadox import cli, fit, powerlaw
from ffparadox.cli import UsageError, _parse_values, main, run_experiment, run_sweep
from ffparadox.metrics import stats_from_degrees
from ffparadox.netgen import Model
from ffparadox.powerlaw import PowerLawSpec


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_piped(text, *argv):
    """``ffparadox argv`` in a fresh interpreter with ``text`` on a stdin pipe."""
    src = os.path.dirname(os.path.dirname(ffparadox.__file__))
    return subprocess.run(
        [sys.executable, "-m", "ffparadox.cli", *argv],
        input=text.encode("ascii"),
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
    )


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

    @pytest.mark.parametrize(
        "argv",
        [
            ("predict", "--alpha", "1.2", "--kmax", "1e200"),
            ("predict", "--alpha", "1.01", "--kmax", "1e200"),
            # a point mass whose k_min**2 overflows, alone and as a sweep cell
            ("predict", "--alpha", "2.5", "--kmin", "1e200", "--kmax", "1e200"),
            ("sweep", "--alphas", "2", "--kmaxs", "1e200", "--kmin", "1e200"),
        ],
        ids=["1.2-1e200", "1.01-1e200", "point-mass-1e200", "sweep-point-mass-1e200"],
    )
    def test_float_overflow_is_a_domain_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: moments not finite") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "alpha, k_max, mean_k",
        [("3", "1e200", 2.0), ("2", "1.7e308", 709.72683689322824)],
        ids=["3-1e200", "2-1.7e308"],
    )
    def test_huge_support_with_finite_moments_is_answered(
        self, capsys, alpha, k_max, mean_k
    ):
        code, out, err = run(capsys, "predict", "--alpha", alpha, "--kmax", k_max)
        assert code == 0
        assert err == ""
        payload = json.loads(out)
        assert payload["mean_k"] == pytest.approx(mean_k, rel=1e-13)
        assert all(math.isfinite(payload[key]) for key in ("second_moment", "k_ff"))


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
        # Not three numbers, a backward range, or an empty list.
        for kmaxs in ("1.5:3.0", "1:2:3:4", "1::2", ":", "5:1:1", ","):
            code, out, err = run(capsys, "sweep", "--alphas", "2", "--kmaxs", kmaxs)
            assert code == 1 and out == ""
            assert err == (f"usage error: cannot parse --kmaxs {kmaxs!r}: "
                           "expected 'a,b,c' or 'start:stop:step'\n")

    @pytest.mark.parametrize("alphas", ["1.5:1e12:1e-3", "1.5:inf:1"])
    def test_huge_range_is_usage_error(self, capsys, alphas):
        # refused from its value count, before any value list is built
        code, out, err = run(capsys, "sweep", "--alphas", alphas, "--kmaxs", "10")
        assert code == 1
        assert out == ""
        assert err == (
            f"usage error: --alphas {alphas!r} expands to more than 10^6 values\n"
        )

    def test_grid_of_more_than_a_million_rows_is_usage_error(self, capsys):
        # 1000 x 1001 rows, refused before any row is computed
        code, out, err = run(capsys, "sweep", "--alphas", "1.5:2.499:0.001",
                             "--kmaxs", "10:1010:1")
        assert code == 1
        assert out == ""
        assert err == (
            "usage error: --alphas x --kmaxs gives 1001000 rows, more than 10^6\n"
        )

    def test_kmin_below_one_is_domain_error(self, capsys):
        # checked by PowerLawSpec, as in predict, experiment and generate
        code, out, err = run(capsys, "sweep", "--alphas", "2", "--kmaxs", "10",
                             "--kmin", "0.5")
        assert code == 2
        assert out == ""
        assert err == "error: k_min must be finite and >= 1, got 0.5\n"

    def test_range_of_a_million_values_is_accepted(self):
        values = _parse_values("0:999999:1", "--alphas")
        assert len(values) == 10**6 and values[-1] == 999999.0

    # Pinned output bytes.  A change that alters the sweep's output on purpose
    # (new columns, say) restates these digests in the same change.
    @pytest.mark.parametrize("argv, digest", [
        # 630 rows: 90 DEGENERATE (k_max 1), and LIMIT_ALPHA_2 and _3 rows
        (["--alphas", "1.05:5.5:0.05", "--kmaxs", "1,2,10,31.6,100,1000,1e6"],
         "858c000e42f36f36371627ff70b708a1b70f99e44cbb9dfbb8e3a00af4ec33d1"),
        # how an unbounded k_max is written
        (["--alphas", "3.5:6:0.5", "--kmaxs", "inf", "--kmin", "2"],
         "45cc7bd0cacee86ebbe557ef308cddababda694a7811116d70b8d0feae9f871c"),
    ])
    def test_output_bytes_are_pinned(self, capsys, argv, digest):
        code, out, _ = run(capsys, "sweep", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


@settings(deadline=None, max_examples=100)
@given(
    st.lists(st.floats(1.5, 5.5), max_size=20),
    st.floats(1e-7, 1e-6),
    st.floats(1.0, 100.0),
    st.lists(st.floats(1.5, 1e12), min_size=1, max_size=8),
)
def test_sweep_var_to_mean_is_monotone(alphas, step, k_min, ratios):
    # steps down to 1e-7, some crossing alpha = 2 and 3
    grid = []
    for a in sorted(alphas + [p + i * step for p in (2.0, 3.0) for i in (-1, 0, 1)]):
        if not grid or a - grid[-1] >= 1e-7:
            grid.append(a)
    kmaxs = sorted(k_min * r for r in ratios)
    rows = run_sweep(grid, kmaxs, k_min)
    ratio, k_ff = (
        np.array([getattr(row, name) for row in rows]).reshape(len(grid), len(kmaxs))
        for name in ("var_to_mean", "k_ff")
    )
    assert (np.diff(ratio, axis=0) < 0).all()
    # Saturates in k_max at large alpha, so only non-decreasing; k_max values
    # a float step apart may differ by the rounding error, at most 1e-13 * k_ff
    # (test_predict_matches_high_precision_closed_forms).
    assert (np.diff(ratio, axis=1) >= -1e-13 * k_ff[:, 1:]).all()


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

    # Refused by powerlaw as in generate: by predict at alpha <= 3, and by
    # the degree draw otherwise.
    @pytest.mark.parametrize("alpha, message", [
        ("2", "mean or variance diverges for alpha <= 3 with unbounded k_max"),
        ("4", "degree sampling requires finite k_max"),
    ], ids=["2", "4"])
    def test_infinite_kmax_is_domain_error(self, capsys, alpha, message):
        code, out, err = run(capsys, "experiment", "--alpha", alpha, "--kmaxs", "inf",
                             "--n", "300", "--seeds", "0")
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    # Model B's block size is a constant, not an option.
    @pytest.mark.parametrize("block_size", ["0", "8"])
    def test_block_size_is_unrecognized(self, capsys, block_size):
        code, out, err = run(capsys, "experiment", "--n", "300", "--kmaxs", "10",
                             "--seeds", "0", "--block-size", block_size)
        assert code == 1
        assert out == ""
        assert err == (
            f"usage error: ffparadox: unrecognized arguments: --block-size {block_size}\n"
        )

    def test_no_seeds_is_usage_error(self):
        with pytest.raises(UsageError) as info:
            run_experiment(2.0, 1.0, [10.0], 300, [Model.A], seeds=[])
        assert str(info.value) == "at least one seed is required"

    @pytest.mark.parametrize("seed, k_max", [(0, 10.0), (3, 100.0), (7, 1000.0)])
    def test_fit_reads_the_draws_of_the_target_sequence(self, monkeypatch, seed,
                                                        k_max):
        # The fit's sample and the integer sequence share one sub-seed: the
        # sample rounds to sample_degrees' draw, which make_graphical's parity
        # bump may raise by 1 at one vertex.
        fitted = []
        fit_alpha = fit.fit_alpha

        def captured(data, **kwargs):
            fitted.append(data.copy())
            return fit_alpha(data, **kwargs)

        monkeypatch.setattr(fit, "fit_alpha", captured)
        run_experiment(2.0, 1.0, [k_max], 1001, [Model.A], [seed])
        spec = PowerLawSpec(2.0, 1.0, k_max)
        (sample,) = fitted
        rounded = np.floor(sample + 0.5).astype(np.int64)
        sub_seed = cli._sub_seed(seed, k_max, cli._TAG_SAMPLE)
        assert np.array_equal(rounded, powerlaw.sample_degrees(spec, 1001, sub_seed))
        bump = cli._target_sequence(spec, 1001, seed) - rounded
        assert np.count_nonzero(bump) <= 1 and set(bump.tolist()) <= {0, 1}

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
            f"summary,{m},,100,5000.0,,,,,1884.125136473961,,,,,,ALL_CELLS_FAILED"
            for m in ("A", "B")
        ]


    @pytest.mark.parametrize("k_max", [100.0, 1000.0])
    def test_band_holds_every_fitted_ratio(self, k_max):
        # var_to_mean peaks near alpha 1.15, inside the fitted exponents
        rows = run_experiment(1.15, 1.0, [k_max], 1000, [Model.A], list(range(8)))
        for row in rows:
            ratio = powerlaw.predict(PowerLawSpec(row.alpha_hat, 1.0, k_max)).var_to_mean
            assert row.predicted_lo <= ratio <= row.predicted_hi

    def test_point_mass_cells_carry_no_maximum(self, capsys):
        # on k_min == k_max the likelihood does not depend on alpha; the
        # 5-regular graph is still realized and measured
        code, out, err = run(capsys, "experiment", "--kmin", "5", "--kmaxs", "5",
                             "--n", "100", "--seeds", "0", "--models", "A")
        assert code == 0
        assert err == ""
        header, cell, summary = (line.split(",") for line in out.splitlines())
        cell = dict(zip(header, cell))
        assert cell["error"] == "NO_MAXIMUM"
        assert cell["alpha_hat"] == ""
        assert float(cell["empirical_mean"]) == 5.0
        assert float(cell["empirical_ratio"]) == 0.0
        assert cell["components"] == "1"
        assert dict(zip(header, summary))["error"] == "ALL_CELLS_FAILED"


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

    def test_dropped_stubs_reported_in_both_output_modes(self, capsys, tmp_path):
        args = ["generate", "--kmax", "1000", "--n", "2000", "--model", "B",
                "--seed", "11"]
        path = tmp_path / "g.txt"
        _, to_stdout, stdout_err = run(capsys, *args)
        _, to_file, file_err = run(capsys, *args, "--out", str(path))
        assert to_file == "" and path.read_text() == to_stdout
        edges = to_stdout.count("\n")
        assert stdout_err == file_err == (
            f"{edges} edges on 2000 vertices (326 stubs dropped)\n"
        )

    @pytest.mark.parametrize("block_size", ["0", "8"])
    def test_block_size_is_unrecognized(self, capsys, tmp_path, block_size):
        out = tmp_path / "g.txt"
        code, _, err = run(capsys, "generate", "--kmax", "100", "--n", "1000",
                           "--model", "B", "--seed", "1", "--block-size",
                           block_size, "--out", str(out))
        assert code == 1
        assert err == (
            f"usage error: ffparadox: unrecognized arguments: --block-size {block_size}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("model", ["A", "B", "KALISKY"])
    def test_matches_experiment_cell(self, capsys, tmp_path, model):
        # README contract: generate realizes the graph of the experiment
        # cell with the same seed, k_max, model and n
        n, seed, kmax = 500, 3, "32"
        path = tmp_path / "g.txt"
        code, _, err = run(capsys, "generate", "--kmax", kmax, "--n", str(n),
                           "--model", model, "--seed", str(seed),
                           "--out", str(path))
        assert code == 0
        report = re.fullmatch(r"\d+ edges on 500 vertices \((\d+) stubs dropped\)\n",
                              err)
        ids = np.array(path.read_text().split(), dtype=np.int64)
        stats = stats_from_degrees(np.bincount(ids, minlength=n))
        _, out, _ = run(capsys, "experiment", "--kmaxs", kmax, "--n", str(n),
                        "--models", model, "--seeds", str(seed))
        header, cell = out.split("\n")[:2]
        row = dict(zip(header.split(","), cell.split(",")))
        assert row["kind"] == "cell" and row["error"] == ""
        assert float(row["empirical_mean"]) == stats.mean_k
        assert float(row["empirical_variance"]) == stats.variance
        assert row["dropped_stubs"] == report[1]  # 2 under model B

    def test_infinite_kmax_is_domain_error(self, capsys):
        code, _, err = run(capsys, "generate", "--kmax", "inf", "--n", "200",
                           "--seed", "1")
        assert code == 2
        assert "finite" in err

    def test_unbounded_kmax_is_refused_before_drawing(self, capsys):
        # Drawing at alpha 1.001 would overflow; nothing but the error shows.
        code, out, err = run(capsys, "generate", "--alpha", "1.001", "--kmax", "inf",
                             "--n", "200", "--seed", "1")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    def test_steep_alpha_with_a_huge_kmax_is_answered(self, capsys):
        code, out, err = run(capsys, "generate", "--alpha", "3", "--kmax", "1e300",
                             "--n", "1000", "--seed", "1")
        assert code == 0
        assert len(out.splitlines()) == 945
        assert err == "945 edges on 1000 vertices (0 stubs dropped)\n"


@pytest.mark.parametrize("argv, lines_read", [
    (["generate", "--kmax", "100", "--n", "200000", "--seed", "1"], 1),
    (["sweep", "--alphas", "1.5:4:0.0005", "--kmaxs", "10,100,1000"], 1),
    # closed before anything is read: the write fails at the last flush
    (["predict", "--alpha", "2", "--kmax", "100"], 0),
])
def test_a_reader_that_closes_early_is_success(argv, lines_read):
    # A fresh interpreter on a real pipe, since the rule rewires fd 1; stdout
    # is block-buffered, as it is for a console script in a shell pipeline.
    src = os.path.dirname(os.path.dirname(ffparadox.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "ffparadox.cli", *argv],
        env={**env, "PYTHONPATH": src},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    for _ in range(lines_read):
        assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


# Draws of 2**63 or more are refused before rounding, with no numpy warning.
@pytest.mark.parametrize("command", [
    ["generate", "--kmax", "1e300", "--n", "1000", "--seed", "1"],
    ["experiment", "--kmaxs", "1e30", "--n", "1000", "--seeds", "0", "--models", "A"],
])
def test_draws_past_int64_are_domain_errors(capsys, command):
    code, out, err = run(capsys, *command, "--alpha", "1.01")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: a draw of ") and "int64 degree range" in err


# A malformed seed is a usage error, reported on one line before any work.
@pytest.mark.parametrize("command, message", [
    (["experiment", "--seeds", "0,x"], "cannot parse --seeds '0,x'"),
    (["experiment", "--seeds=-1"], "seeds must be non-negative"),
    (["generate", "--kmax", "10", "--seed", "-1"], "--seed must be non-negative"),
], ids=["unparsed-seeds", "negative-seeds", "negative-seed"])
def test_bad_seeds_are_usage_errors(capsys, command, message):
    code, out, err = run(capsys, *command)
    assert code == 1 and out == ""
    assert err == f"usage error: {message}\n"


# generate refuses a vertex count below 1 before drawing; one vertex is a
# graph, on which a positive degree is a domain error.
@pytest.mark.parametrize("n", ["0", "-5"])
def test_generate_n_below_one_is_usage_error(capsys, n):
    code, out, err = run(capsys, "generate", "--kmax", "10", "--n", n, "--seed", "1")
    assert code == 1 and out == ""
    assert err == "usage error: n must be at least 1\n"
    code, out, err = run(capsys, "generate", "--kmax", "10", "--n", "1", "--seed", "1")
    assert code == 2 and out == "" and err.startswith("error: ")


# Both commands derive their graphs through one seed-to-graph path, which
# refuses a vertex count above the edge-list limit before drawing anything.
@pytest.mark.parametrize("command", [
    ["generate", "--kmax", "100", "--seed", "1"], ["experiment", "--seeds", "0"],
])
def test_n_above_the_vertex_limit_is_refused_before_drawing(capsys, command):
    start = time.perf_counter()
    code, out, err = run(capsys, *command, "--n", "10000001")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err == "error: n = 10000001 exceeds the limit of 10000000 vertices\n"


# --kmax and --kmaxs parse k_max as the same float: 'inf' is unbounded, and
# 'infinite' is no number.
@pytest.mark.parametrize("command", [
    ["predict", "--alpha", "4", "--kmax"], ["sweep", "--alphas", "4", "--kmaxs"],
])
def test_kmax_flags_parse_alike(capsys, command):
    assert run(capsys, *command, "inf")[0] == 0
    code, out, err = run(capsys, *command, "infinite")
    assert code == 1 and out == ""
    assert err.startswith("usage error: ") and "'infinite'" in err


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

    def test_non_ascii_byte_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"0 1\n1 \xe9\n")
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_piped_duplicate_edge_reports_line(self):
        done = run_piped("0 1\n1 2\n1 0\n", "analyze", "/dev/stdin")
        assert done.returncode == 2
        assert done.stderr == b"error: line 3: duplicate edge (0, 1)\n"

    def test_piped_file_parsed_line_by_line(self, capsys, tmp_path):
        text = "0 1\n1_000 0\n1 2\n2 0\n"  # loadtxt declines "1_000"
        path = tmp_path / "g.txt"
        path.write_text(text)
        _, by_path, _ = run(capsys, "analyze", str(path))
        done = run_piped(text, "analyze", "/dev/stdin")
        assert done.returncode == 0
        assert json.loads(by_path)["n"] == 1001
        assert done.stdout.decode() == by_path

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

    @pytest.mark.parametrize(
        "big_id",
        ["10000000", "4000000000", "9223372036854775807", "99999999999999999999"],
    )
    def test_id_too_large_is_domain_error(self, capsys, tmp_path, big_id):
        # Refused from the edges alone: id 10^7 would already cost about 1 GB
        # of per-vertex arrays.
        path = tmp_path / "big.txt"
        path.write_text(f"0 1\n1 {big_id}\n")
        start = time.perf_counter()
        code, out, err = run(capsys, "analyze", str(path))
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err.startswith("error: line 2: ") and err.count("\n") == 1

    def test_path_counts_past_the_float_range_are_domain_error(self, capsys,
                                                               tmp_path):
        # 660 layers of three vertices, each joined to all of the next
        # layer's: 3**658 shortest paths end to end, past the float range.
        path = tmp_path / "chain.txt"
        path.write_text("".join(
            f"{3 * i + a} {3 * i + 3 + b}\n"
            for i in range(659) for a in range(3) for b in range(3)
        ))
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert "float range" in err

    def test_too_many_vertex_pairs_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "path.txt"
        path.write_text("".join(f"{v} {v + 1}\n" for v in range(39999)))
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 2
        assert out == ""
        assert "1599960000 connected ordered vertex pairs" in err
