"""The benchmark's three workloads.

Each workload builds its inputs from the benchmark seed in ``setup``, runs
one pass of identical work in ``run_pass``, reduces a pass's output to a
``fingerprint`` that must be byte-identical across passes, and checks the
first pass's output in ``check`` against computations made apart from the
program.  A pass is a fixed sequence of steps, each one call into the
program made through ``step(label, fn, *args)``; the benchmark passes a
``step`` that times each call, and only those calls are timed.

* ``experiment``     - ``cli.run_experiment`` + ``cli.experiment_csv`` on the
                       paper's grid: many small realizations, no traversal.
* ``analyze``        - ``ffparadox analyze`` on one edge-list file per model:
                       exact efficiency and betweenness, no generation.
* ``generate_large`` - the ``ffparadox generate`` chain at n = 10^5 per model,
                       each file read back and measured with ``components``.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from ffparadox import cli, metrics, netgen, powerlaw
from ffparadox.netgen import Model

import oracles
from oracles import close, require

ALPHA = 2.0
K_MIN = 1.0
MODELS = tuple(Model)
EXPERIMENT_KMAXS = (10.0, 32.0, 100.0, 316.0, 1000.0)


def derive_seeds(seed, tag, count):
    """Program seeds drawn from the benchmark seed; one stream per workload."""
    state = np.random.SeedSequence([seed, tag]).generate_state(count)
    return [int(s) for s in state]


def file_digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def call(label, fn, *args):
    """The untimed ``step``: call ``fn`` and return its result."""
    return fn(*args)


def _load_json(path):
    with open(path, encoding="ascii") as fh:
        return json.load(fh)


class Experiment:
    """Theory against simulation on the paper's grid (alpha 2, k_min 1)."""

    name = "experiment"

    def __init__(self, seed, smoke, workdir):
        self.n = 1000 if smoke else 10_000
        self.kmaxs = (10.0, 32.0) if smoke else EXPERIMENT_KMAXS
        self.seeds = derive_seeds(seed, 1, 1 if smoke else 4)
        self.ops_per_pass = len(self.kmaxs) * len(self.seeds) * len(MODELS)

    def setup(self):
        """The grid itself is the input; there is nothing to build."""

    def run_pass(self, step=call):
        # One run_experiment call per k_max and model gives the rows of one call
        # over the whole grid: each k_max group draws its own samples and fits
        # its own band, and the models of a group share the samples.
        rows = []
        for k_max in self.kmaxs:
            for model in MODELS:
                rows += step(
                    f"run_experiment k_max={k_max:g} {model.value}", cli.run_experiment,
                    ALPHA, K_MIN, [k_max], self.n, [model], self.seeds,
                )
        return step("experiment_csv", cli.experiment_csv, rows)

    def fingerprint(self, csv_text):
        return csv_text

    def work_units(self, csv_text):
        return self.ops_per_pass

    def failed(self, csv_text):
        return sum(1 for r in _csv_rows(csv_text) if r["kind"] == "cell" and r["error"])

    def check(self, csv_text):
        rows = _csv_rows(csv_text)
        cells = [r for r in rows if r["kind"] == "cell"]
        summaries = [r for r in rows if r["kind"] == "summary"]
        require(len(cells) == self.ops_per_pass, f"{len(cells)} cell rows")
        require(len(summaries) == len(self.kmaxs) * len(MODELS), "summary row count")
        quad = {k: oracles.quad_var_to_mean(ALPHA, K_MIN, k) for k in self.kmaxs}
        in_band = 0
        for r in cells:
            if r["error"]:
                continue  # counted as a failed operation, and outside the band
            what = f"cell {r['model']} k_max={r['k_max']} seed={r['seed']}"
            require(int(r["n"]) == self.n, f"{what}: n")
            mean, var, gap = (
                float(r["empirical_mean"]),
                float(r["empirical_variance"]),
                float(r["empirical_ratio"]),
            )
            close(gap, var / mean, 1e-12, f"{what}: gap vs variance/mean")
            predicted = float(r["predicted_ratio"])
            close(predicted, quad[float(r["k_max"])], 1e-8, f"{what}: prediction vs quad")
            require(
                float(r["predicted_lo"]) <= float(r["predicted_hi"]),
                f"{what}: fitted band inverted",
            )
            require(1.001 < float(r["alpha_hat"]) <= 6.0, f"{what}: alpha_hat")
            require(int(r["components"]) >= 1, f"{what}: components")
            require(0.0 < float(r["giant_fraction"]) <= 1.0, f"{what}: giant fraction")
            in_band += 0.7 * predicted <= gap <= 1.3 * predicted
        require(
            in_band >= 0.8 * len(cells),
            f"only {in_band}/{len(cells)} cells within [0.7, 1.3] x prediction",
        )
        for s in summaries:
            group = [
                r for r in cells
                if r["model"] == s["model"] and r["k_max"] == s["k_max"] and not r["error"]
            ]
            for col in ("empirical_mean", "empirical_variance", "empirical_ratio"):
                mean = math.fsum(float(r[col]) for r in group) / len(group)
                close(float(s[col]), mean, 1e-12, f"summary {s['model']} {s['k_max']} {col}")


def _csv_rows(csv_text):
    header, *lines = csv_text.splitlines()
    names = header.split(",")
    rows = [dict(zip(names, line.split(","))) for line in lines]
    require(all(len(line.split(",")) == len(names) for line in lines), "ragged CSV")
    return rows


class _GraphFiles:
    """Realizes one graph per model with the ``ffparadox generate`` chain."""

    def __init__(self, seed, tag, n, k_max, workdir):
        self.n = n
        self.spec = powerlaw.PowerLawSpec(ALPHA, K_MIN, k_max)
        seeds = derive_seeds(seed, tag, 3 * len(MODELS))
        self.seeds = {m: seeds[3 * i: 3 * i + 3] for i, m in enumerate(MODELS)}
        self.paths = {m: str(workdir / f"{m.value}.txt") for m in MODELS}

    def realize(self, model):
        """sample_degrees -> make_graphical -> generate -> write_edge_list.

        Returns the target sequence, the edge count and the dropped-stub
        total that ``ffparadox generate`` reports.
        """
        s_sample, s_parity, s_model = self.seeds[model]
        seq = netgen.make_graphical(
            powerlaw.sample_degrees(self.spec, self.n, s_sample), seed=s_parity
        )
        g = netgen.generate(seq, model, s_model)
        netgen.write_edge_list(g, self.paths[model])
        return seq, len(g.edges), netgen.drop_report(g, seq).total


class Analyze:
    """``ffparadox analyze`` on one edge-list file per model."""

    name = "analyze"

    def __init__(self, seed, smoke, workdir):
        n, k_max = (200, 20.0) if smoke else (1200, 100.0)
        self.files = _GraphFiles(seed, 2, n, k_max, workdir)
        self.outs = {m: str(workdir / f"{m.value}.json") for m in MODELS}
        self.ops_per_pass = len(MODELS)

    def setup(self):
        for model in MODELS:
            self.files.realize(model)

    def run_pass(self, step=call):
        return [
            step(f"analyze {m.value}", cli.main,
                 ["analyze", self.files.paths[m], "--out", self.outs[m]])
            for m in MODELS
        ]

    def fingerprint(self, codes):
        return codes, [file_digest(self.outs[m]) for m in MODELS]

    def failed(self, codes):
        return sum(1 for code in codes if code != 0)

    def work_units(self, codes):
        total = 0
        for m in MODELS:
            n = _load_json(self.outs[m])["n"]
            total += n * (n - 1)
        return total

    def check(self, codes):
        for model, code in zip(MODELS, codes):
            what = f"analyze {model.value}"
            require(code == 0, f"{what}: exit code {code}")
            edges = oracles.parse_edge_file(self.files.paths[model])
            oracles.check_canonical_edges(edges, f"{what} input")
            n = int(edges.max()) + 1
            out = _load_json(self.outs[model])
            require(out["n"] == n and out["edges"] == len(edges), f"{what}: n or edges")

            degrees = np.bincount(edges.ravel(), minlength=n)
            s1, s2 = int(degrees.sum()), int(np.dot(degrees, degrees))
            mean, m2 = s1 / n, s2 / n
            stats = out["stats"]
            close(stats["mean_k"], mean, 1e-12, f"{what}: mean_k")
            close(stats["second_moment"], m2, 1e-12, f"{what}: second moment")
            close(stats["k_ff"], s2 / s1, 1e-12, f"{what}: k_ff")
            close(stats["variance"], m2 - mean * mean, 1e-12, f"{what}: variance")
            close(stats["gap"], stats["variance"] / stats["mean_k"], 1e-12, f"{what}: gap")

            sizes = oracles.component_sizes(edges, n)
            require(out["components"]["sizes"] == sizes, f"{what}: component sizes")
            require(out["components"]["count"] == len(sizes), f"{what}: component count")

            efficiency, dominance = oracles.networkx_structure(edges, n)
            close(out["global_efficiency"], efficiency, 1e-9, f"{what}: efficiency")
            close(out["central_point_dominance"], dominance, 1e-9, f"{what}: dominance")

            # fit_alpha(degrees) with unbounded support is the closed-form MLE
            # 1 + n / sum(ln(k / k_min)) over degrees >= the smallest positive.
            k = degrees[degrees > 0].astype(float)
            k_min = k.min()
            alpha = 1.0 + k.size / math.fsum(np.log(k / k_min))
            fit = out["fit"]
            require(fit["n_tail"] == k.size and fit["k_min_used"] == k_min, f"{what}: fit tail")
            close(fit["alpha_hat"], alpha, 1e-10, f"{what}: alpha_hat")
            model_cdf = 1.0 - (np.sort(k) / k_min) ** (1.0 - alpha)
            steps = np.arange(1, k.size + 1) / k.size
            ks = max(
                np.abs(steps - model_cdf).max(),
                np.abs(steps - 1.0 / k.size - model_cdf).max(),
            )
            require(abs(fit["ks_distance"] - ks) < 1e-9, f"{what}: KS distance")


class GenerateLarge:
    """The ``ffparadox generate`` chain at n = 10^5 per model, read back."""

    name = "generate_large"

    def __init__(self, seed, smoke, workdir):
        self.files = _GraphFiles(seed, 3, 2000 if smoke else 100_000, 100.0, workdir)
        self.ops_per_pass = len(MODELS)

    def setup(self):
        """The inputs are the seeds and the spec; the pass builds the graphs."""

    def run_pass(self, step=call):
        out = []
        for model in MODELS:
            seq, m, dropped = step(f"realize {model.value}", self.files.realize, model)
            g = step(f"read {model.value}", netgen.read_edge_list, self.files.paths[model])
            comps = step(f"components {model.value}", metrics.components, g)
            out.append((seq, m, dropped, g.n, comps))
            del g
        return out

    def fingerprint(self, out):
        return [
            (hashlib.sha256(seq.tobytes()).hexdigest(), m, dropped, n, comps,
             file_digest(self.files.paths[model]))
            for model, (seq, m, dropped, n, comps) in zip(MODELS, out)
        ]

    def failed(self, out):
        return 0

    def work_units(self, out):
        return sum(m for _, m, _, _, _ in out)

    def check(self, out):
        for model, (seq, m, dropped, n_read, comps) in zip(MODELS, out):
            what = f"generate {model.value}"
            path = self.files.paths[model]
            edges = oracles.parse_edge_file(path)
            oracles.check_canonical_edges(edges, what)
            require(len(edges) == m, f"{what}: {len(edges)} lines for {m} edges")
            require(seq.size == self.files.n, f"{what}: sequence length")
            realized = np.bincount(edges.ravel(), minlength=seq.size)
            require(realized.size == seq.size, f"{what}: vertex id out of range")
            require(bool((realized <= seq).all()), f"{what}: realized degree above target")
            require(
                int((seq - realized).sum()) == dropped,
                f"{what}: sum(target - realized) != {dropped} stubs dropped",
            )
            require(n_read == int(edges.max()) + 1, f"{what}: read-back vertex count")
            require(comps == oracles.component_sizes(edges, n_read), f"{what}: components")
            g = netgen.read_edge_list(path)
            require(
                np.array_equal(np.array(g.edges, dtype=np.int64).reshape(-1, 2), edges),
                f"{what}: read_edge_list round trip",
            )


WORKLOADS = {w.name: w for w in (Experiment, Analyze, GenerateLarge)}
