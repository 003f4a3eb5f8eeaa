"""Acceptance suite: one test per criterion, at the stated tolerances, and
a full-size oracle for the betweenness behind criterion 9.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
PASS lines.  Criteria with runtime budgets time their computational core.
"""

import hashlib
import math
import time
from collections import defaultdict

import numpy as np
import pytest
from scipy.integrate import quad

from ffparadox import fit, metrics, netgen, powerlaw
from ffparadox.cli import experiment_csv, run_experiment, run_sweep
from ffparadox.netgen import Graph, Model
from ffparadox.powerlaw import Branch, PowerLawSpec
from paper_forms import moments_at_alpha2, moments_at_alpha3, moments_general

SEEDS = [0, 1, 2, 3, 4]
KMAX_GRID = [10.0, 32.0, 100.0, 316.0, 1000.0]


def assemble(mean, m2):
    variance = m2 - mean * mean
    return {
        "mean": mean,
        "m2": m2,
        "variance": variance,
        "var_to_mean": variance / mean,
        "k_ff": mean + variance / mean,
    }


@pytest.fixture(scope="module")
def experiment():
    start = time.perf_counter()
    rows = run_experiment(
        alpha=2.0, k_min=1.0, kmaxs=KMAX_GRID, n=10000,
        models=list(Model), seeds=SEEDS,
    )
    elapsed = time.perf_counter() - start
    assert all(r.error is None for r in rows)
    return rows, elapsed


def test_default_experiment_csv_bytes(experiment):
    # The fixture is the CLI's default grid, so this pins the bytes of a bare
    # ``ffparadox experiment``.  A change that alters that output on purpose
    # (new columns, say) restates the digest in the same change.
    rows, _ = experiment
    digest = hashlib.sha256(experiment_csv(rows).encode("ascii")).hexdigest()
    assert digest == "cc4ddc853eafac3cee6f0130098347bf648544977a40c1192819e0cde356044b"


@pytest.fixture(scope="module")
def structure_graphs():
    spec = PowerLawSpec(2.0, 1.0, 100.0)
    seq = netgen.make_graphical(powerlaw.sample_degrees(spec, 10000, 11), seed=1)
    graphs = {model: netgen.generate(seq, model, seed=7) for model in Model}
    return seq, graphs


def test_criterion_1_closed_form_vs_quadrature():
    start = time.perf_counter()
    worst = 0.0
    for alpha in (1.1, 1.5, 2.5, 3.5):
        for k_min in (1.0, 2.0):
            for k_max in (10.0, 100.0, 1000.0):
                z = quad(lambda k: k**-alpha, k_min, k_max, epsabs=0, epsrel=1e-12)[0]
                m1 = (
                    quad(lambda k: k ** (1 - alpha), k_min, k_max,
                         epsabs=0, epsrel=1e-12)[0] / z
                )
                m2 = (
                    quad(lambda k: k ** (2 - alpha), k_min, k_max,
                         epsabs=0, epsrel=1e-12)[0] / z
                )
                var = m2 - m1 * m1
                r = powerlaw.predict(PowerLawSpec(alpha, k_min, k_max))
                for got, want in (
                    (r.mean_k, m1),
                    (r.variance, var),
                    (r.var_to_mean, var / m1),
                ):
                    rel = abs(got - want) / abs(want)
                    worst = max(worst, rel)
                    assert rel <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 1 PASS: closed form vs quadrature, worst rel err "
          f"{worst:.2e} <= 1e-8, runtime {elapsed:.2f}s < 1s")


def test_criterion_2_singularity_continuity():
    worst = 0.0
    for k_max in (10.0, 1000.0):
        lim2 = assemble(*moments_at_alpha2(1.0, k_max))
        lim3 = assemble(*moments_at_alpha3(1.0, k_max))
        for eps in (-1e-6, 1e-6):
            gen2 = assemble(*moments_general(2.0 + eps, 1.0, k_max))
            gen3 = assemble(*moments_general(3.0 + eps, 1.0, k_max))
            for limit, general in ((lim2, gen2), (lim3, gen3)):
                for field in ("mean", "m2", "variance", "var_to_mean", "k_ff"):
                    rel = abs(general[field] - limit[field]) / abs(limit[field])
                    worst = max(worst, rel)
                    assert rel <= 1e-4
    print(f"criterion 2 PASS: limit vs general branch at the singularities, "
          f"worst rel err {worst:.2e} <= 1e-4")


def test_criterion_3_cross_formula_identity():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        k_min = float(rng.uniform(1.0, 10.0))
        k_max = k_min * float(rng.uniform(1.5, 1e4))
        kff3 = powerlaw.predict(PowerLawSpec(3.0, k_min, k_max)).k_ff
        mean2 = powerlaw.predict(PowerLawSpec(2.0, k_min, k_max)).mean_k
        rel = abs(kff3 - mean2) / abs(mean2)
        worst = max(worst, rel)
        assert rel <= 1e-12
    print(f"criterion 3 PASS: k_ff at alpha->3 equals mean at alpha->2, "
          f"worst rel err {worst:.2e} <= 1e-12")


def test_criterion_4_gap_identity_and_paradox():
    rng = np.random.default_rng(99)
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(2, 120))
        if rng.random() < 0.1:
            degrees = np.full(n, int(rng.integers(1, 20)))
        else:
            degrees = rng.integers(0, 50, size=n)
            if degrees.sum() == 0:
                degrees[0] = 1
        s = metrics.stats_from_degrees(degrees)
        scale = max(1.0, abs(s.gap))
        assert abs(s.k_ff - s.mean_k - s.variance / s.mean_k) <= 1e-12 * scale
        assert s.k_ff >= s.mean_k
        if not (degrees == degrees[0]).all():
            assert s.k_ff > s.mean_k
        checked += 1
    print(f"criterion 4 PASS: gap identity to 1e-12 and paradox inequality "
          f"on {checked} random degree sequences")


def test_criterion_5_adjacency_double_sum_identity():
    rng = np.random.default_rng(123)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(2, 201))
        p = float(rng.uniform(0.01, 0.3))
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
        ]
        g = Graph.from_edges(n, edges)
        degrees = g.degrees()
        assert metrics.ff_total_adjacency(g) == int(np.dot(degrees, degrees))
        checked += 1
    print(f"criterion 5 PASS: adjacency double sum equals sum of squared "
          f"degrees on {checked} random graphs (integer equality)")


def test_criterion_6_sampler_fidelity():
    spec = PowerLawSpec(2.0, 1.0, 1000.0)
    start = time.perf_counter()
    hits = 0
    worst = 0.0
    for seed in range(10):
        values = np.sort(powerlaw.sample_continuous(spec, 100000, seed))
        model = powerlaw.cdf(spec, values)
        n = values.size
        steps = np.arange(1, n + 1) / n
        ks = float(
            np.maximum(np.abs(steps - model), np.abs(steps - 1.0 / n - model)).max()
        )
        worst = max(worst, ks)
        if ks < 0.02:
            hits += 1
    elapsed = time.perf_counter() - start
    assert hits >= 9
    assert elapsed < 5.0
    print(f"criterion 6 PASS: sampler KS < 0.02 for {hits}/10 seeds "
          f"(worst {worst:.4f}), runtime {elapsed:.2f}s < 5s")


def test_criterion_7_simulation_vs_prediction(experiment):
    rows, elapsed = experiment
    assert len(rows) == len(KMAX_GRID) * len(SEEDS) * len(Model)

    in_band = [
        r for r in rows
        if 0.7 * r.predicted_ratio <= r.empirical_ratio <= 1.3 * r.predicted_ratio
    ]
    fraction = len(in_band) / len(rows)
    assert fraction >= 0.80

    cells = defaultdict(list)
    for r in rows:
        cells[(r.k_max, r.seed)].append(r.empirical_ratio)
    worst_spread = 0.0
    for values in cells.values():
        spread = max(values) / min(values) - 1.0
        worst_spread = max(worst_spread, spread)
        assert spread <= 0.15
    assert elapsed < 120.0
    print(f"criterion 7 PASS: empirical ratio in [0.7,1.3]x prediction for "
          f"{len(in_band)}/{len(rows)} cells ({fraction:.0%} >= 80%), models "
          f"mutually within {worst_spread:.1%} <= 15%, runtime {elapsed:.0f}s < 120s")


def test_criterion_8_fitted_alpha_band(experiment):
    rows, _ = experiment
    alpha_ok = [r for r in rows if 1.8 <= r.alpha_hat <= 2.2]
    assert len(alpha_ok) / len(rows) >= 0.90

    in_wide = [
        r for r in rows
        if 0.9 * r.predicted_lo <= r.empirical_ratio <= 1.1 * r.predicted_hi
    ]
    fraction = len(in_wide) / len(rows)
    assert fraction >= 0.70
    print(f"criterion 8 PASS: fitted alpha in [1.8,2.2] for "
          f"{len(alpha_ok)}/{len(rows)} cells, empirical ratio inside the "
          f"widened fitted band for {len(in_wide)}/{len(rows)} "
          f"({fraction:.0%} >= 70%)")


def test_criterion_9_model_structure(structure_graphs):
    _, graphs = structure_graphs
    comp = {m: metrics.components(g) for m, g in graphs.items()}
    giant_a = comp[Model.A][0] / graphs[Model.A].n
    giant_k = comp[Model.KALISKY][0] / graphs[Model.KALISKY].n
    assert giant_a >= 0.9
    assert giant_k >= 0.9
    assert len(comp[Model.B]) > 1

    eff_a = metrics.global_efficiency(graphs[Model.A])
    eff_b = metrics.global_efficiency(graphs[Model.B])
    assert eff_b < eff_a

    cpd_k = metrics.central_point_dominance(graphs[Model.KALISKY])
    cpd_b = metrics.central_point_dominance(graphs[Model.B])
    assert cpd_k >= cpd_b
    print(f"criterion 9 PASS: giant A {giant_a:.3f} / KALISKY {giant_k:.3f} "
          f">= 0.9; B has {len(comp[Model.B])} components with efficiency "
          f"{eff_b:.4f} < A's {eff_a:.4f}; CPD KALISKY {cpd_k:.4f} >= "
          f"B {cpd_b:.5f}")


def inner_path_vertices(g):
    """Half the sum of N_k (k - 1) over hop distances k, where N_k counts the
    ordered vertex pairs at distance k, pop-counted from the breadth-first
    levels of the whole graph: each unordered pair's shortest paths have
    k - 1 inner vertices, so betweenness sums to this."""
    vertices = np.flatnonzero(metrics._sizes(g)[g.labels] > 1)
    total = 0
    for _, adj, _, start, b in metrics._batches(g, vertices):
        for k, frontier in enumerate(metrics._levels(adj, start, b), 1):
            total += (k - 1) * int(np.bitwise_count(frontier).sum())
    assert total % 2 == 0
    return total // 2


@pytest.mark.parametrize("model, want", [(Model.KALISKY, 177_750_362),
                                         (Model.B, 3_663_525)])
def test_criterion_9_betweenness_sums_inner_path_vertices(structure_graphs,
                                                          model, want):
    g = structure_graphs[1][model]
    assert inner_path_vertices(g) == want
    total = metrics.betweenness(g).sum()
    assert total == pytest.approx(want, rel=1e-12)
    print(f"criterion 9 oracle PASS: {model.value} betweenness sums to "
          f"{total:.1f}, the {want} inner vertices of shortest paths")


def test_criterion_10_fit_round_trips():
    worst = 0.0
    for which in fit.Moment:
        for alpha in np.round(np.arange(1.2, 3.51, 0.1), 10):
            r = powerlaw.predict(PowerLawSpec(float(alpha), 1.0, 100.0))
            observed = {
                fit.Moment.MEAN: r.mean_k,
                fit.Moment.VARIANCE: r.variance,
                fit.Moment.VAR_TO_MEAN: r.var_to_mean,
            }[which]
            got = fit.alpha_from_moment(observed, which, 1.0, 100.0)
            err = abs(got - float(alpha))
            worst = max(worst, err)
            assert err <= 1e-6

    spec = PowerLawSpec(2.5, 1.0, powerlaw.INFINITE)
    covered = 0
    for seed in range(40):
        sample = powerlaw.sample_continuous(spec, 100000, seed)
        result = fit.fit_alpha(sample, k_min=1.0)
        if abs(result.alpha_hat - 2.5) <= 3.0 * result.stderr:
            covered += 1
    assert covered >= 38  # 95% of 40
    print(f"criterion 10 PASS: moment inversion worst |d_alpha| {worst:.2e} "
          f"<= 1e-6; MLE within 3 standard errors in {covered}/40 trials")


def test_criterion_11_sweep_monotonicity():
    alphas = [round(1.2 + 0.2 * i, 10) for i in range(10)]  # 1.2 .. 3.0
    kmaxs = [10.0, 31.6, 100.0, 316.0, 1000.0, 3162.0, 10000.0]
    rows = run_sweep(alphas, kmaxs, 1.0)
    table = {(r.alpha, r.k_max): r.var_to_mean for r in rows}
    for alpha in alphas:
        values = [table[(alpha, k)] for k in kmaxs]
        assert all(b > a for a, b in zip(values, values[1:]))
    for k_max in kmaxs:
        values = [table[(alpha, k_max)] for alpha in alphas]
        assert all(b < a for a, b in zip(values, values[1:]))
    print(f"criterion 11 PASS: variance-to-mean strictly increasing in k_max "
          f"and strictly decreasing in alpha on the "
          f"{len(alphas)}x{len(kmaxs)} grid")
