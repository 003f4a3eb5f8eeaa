"""Command-line driver.

Subcommands:

* ``predict``    - closed-form prediction for one (alpha, k_min, k_max), as JSON.
* ``sweep``      - CSV grid of predictions over alpha and k_max values.
* ``experiment`` - CSV of simulated-vs-predicted variance-to-mean ratios for
                   networks generated under models A, B and KALISKY.
* ``generate``   - write one realized network as an edge list, file or stdout.
* ``analyze``    - full metrics bundle for an external edge-list file, as JSON.

Exit codes: 0 success, 1 usage error, 2 domain error.  A reader that closes
stdout early (``| head``) counts as success: the rest of the output is
dropped and the exit code is 0.  All randomness comes from explicit seed
flags; identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import fit, metrics, netgen, powerlaw
from .errors import AllIsolatedError, DomainError
from .netgen import Model
from .powerlaw import PowerLawSpec

DEFAULT_KMAX_GRID = "10,32,100,316,1000"
DEFAULT_SEEDS = "0,1,2,3,4"

# Tags for deriving independent sub-streams from one user seed.  The degree
# sample (tag 0) depends only on (seed, k_max), so all models in a cell
# realize the same target sequence.
_TAG_SAMPLE = 0
_TAG_PARITY = 4
_MODEL_TAGS = {Model.A: 1, Model.B: 2, Model.KALISKY: 3}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


@dataclass(frozen=True, kw_only=True)
class ExperimentRow:
    """One experiment cell, its fields in CSV column order; the measured
    fields are None when the cell's graph could not be generated."""

    model: Model
    seed: int
    n: int
    k_max: float
    alpha_hat: float | None
    empirical_mean: float | None = None
    empirical_variance: float | None = None
    empirical_ratio: float | None = None
    predicted_ratio: float
    predicted_lo: float | None
    predicted_hi: float | None
    components: int | None = None
    giant_fraction: float | None = None
    dropped_stubs: int | None = None
    error: str | None = None


def _sub_seed(seed: int, k_max: float, tag: int) -> int:
    scaled = int(round(min(k_max, 2**40) * 1e6))
    ss = np.random.SeedSequence([seed, scaled, tag])
    return int(ss.generate_state(1)[0])


def _target_sequence(spec: PowerLawSpec, n: int, seed: int) -> np.ndarray:
    """The graphical integer degree sequence of (seed, k_max).

    ``experiment`` and ``generate`` both derive their graphs through this
    and ``_realize``, so a generated network is the one measured in the
    matching experiment cell.
    """
    if n > netgen._MAX_N:
        raise DomainError(f"n = {n} exceeds the limit of {netgen._MAX_N} vertices")
    seq = powerlaw.sample_degrees(spec, n, _sub_seed(seed, spec.k_max, _TAG_SAMPLE))
    return netgen.make_graphical(seq, seed=_sub_seed(seed, spec.k_max, _TAG_PARITY))


def _realize(seq, seed: int, k_max: float, model: Model):
    """The graph of (seed, k_max, model) on ``seq`` and its dropped stubs."""
    g = netgen.generate(seq, model, _sub_seed(seed, k_max, _MODEL_TAGS[model]))
    return g, int(seq.sum()) - g.adjacency.nnz


def _parse_values(text: str, name: str) -> list[float]:
    """Parse '1,2,3' lists or 'start:stop:step' ranges of floats."""
    text = text.strip()
    try:
        if ":" in text:
            start, stop, step = (float(p) for p in text.split(":"))
            if not (step > 0 and stop >= start):
                raise ValueError
            span = (stop - start) / step + 1e-9  # int(span) + 1 values
            if not span < 1e6:
                raise UsageError(f"{name} {text!r} expands to more than 10^6 values")
            return [start + i * step for i in range(int(span) + 1)]
        values = [float(p) for p in text.split(",") if p.strip()]
        if not values:
            raise ValueError
        return values
    except ValueError:
        raise UsageError(
            f"cannot parse {name} {text!r}: expected 'a,b,c' or 'start:stop:step'"
        ) from None


def _jsonable(value):
    if isinstance(value, float):
        if math.isnan(value):
            return None
        if math.isinf(value):
            return "inf"
    return value


def _csv(header, rows) -> str:
    """A header line, then one line per row, a mapping over the header's
    column names; a column a row has no key for, or holds None in, prints
    empty, and keys outside the header are left out."""
    out = io.StringIO()
    writer = csv.DictWriter(out, header, restval="", extrasaction="ignore",
                            lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


def run_sweep(alphas, kmaxs, k_min: float) -> list[powerlaw.PredictionResult]:
    return [powerlaw.predict(PowerLawSpec(alpha, k_min, k_max))
            for alpha in alphas for k_max in kmaxs]


def sweep_csv(rows) -> str:
    columns = ("alpha", "k_min", "k_max", "mean_k", "k_ff", "var_to_mean", "branch")
    return _csv(columns, map(vars, rows))


def run_experiment(
    alpha: float,
    k_min: float,
    kmaxs,
    n: int,
    models,
    seeds,
) -> list[ExperimentRow]:
    """Sample -> realize -> measure -> fit for every (k_max, seed, model) cell.

    Within a cell group (fixed k_max) the per-seed degree samples are shared
    by all models, the scaling parameter is fitted on the pre-rounding
    continuous sample, and the predicted band spans the closed form at every
    seed's fitted value (var_to_mean is not monotone in alpha).
    """
    if n < 100:
        raise UsageError("n must be at least 100")
    if not models:
        raise UsageError("at least one model is required")
    if not seeds:
        raise UsageError("at least one seed is required")

    rows: list[ExperimentRow] = []
    for k_max in kmaxs:
        spec = PowerLawSpec(alpha, k_min, k_max)
        predicted = powerlaw.predict(spec).var_to_mean
        targets = {}  # seed -> (sequence, alpha_hat, fit error code)
        for seed in seeds:
            seq = _target_sequence(spec, n, seed)
            # The fit reads the continuous draws that seq was rounded from.
            sample = powerlaw.sample_continuous(
                spec, n, _sub_seed(seed, k_max, _TAG_SAMPLE)
            )
            try:
                result = fit.fit_alpha(sample, k_min=k_min, k_max=k_max)
                targets[seed] = seq, result.alpha_hat, None
            except DomainError as exc:
                targets[seed] = seq, None, exc.code

        band = [
            powerlaw.predict(PowerLawSpec(a, k_min, k_max)).var_to_mean
            for _, a, _ in targets.values() if a is not None
        ]
        lo, hi = min(band, default=None), max(band, default=None)

        for model in models:
            for seed in seeds:
                seq, alpha_hat, error = targets[seed]
                measured = {}
                try:
                    g, dropped = _realize(seq, seed, k_max, model)
                    stats = metrics.stats_from_degrees(g.degrees())
                    comps = metrics.components(g)
                    measured = dict(
                        empirical_mean=stats.mean_k,
                        empirical_variance=stats.variance,
                        empirical_ratio=stats.gap,
                        components=len(comps),
                        giant_fraction=comps[0] / g.n,
                        dropped_stubs=dropped,
                    )
                except DomainError as exc:
                    error = exc.code
                rows.append(ExperimentRow(
                    model=model, seed=seed, n=n, k_max=k_max, alpha_hat=alpha_hat,
                    predicted_ratio=predicted, predicted_lo=lo, predicted_hi=hi,
                    error=error, **measured,
                ))
    return rows


# Averaged over a group's cells without an error in its summary row.
_MEASURED = (
    "empirical_mean", "empirical_variance", "empirical_ratio", "components",
    "giant_fraction", "dropped_stubs",
)


def experiment_csv(rows) -> str:
    """One ``cell`` row per ExperimentRow, then one ``summary`` row per
    (model, k_max) group."""
    records = []
    groups: dict[tuple, list[ExperimentRow]] = {}
    for r in rows:
        records.append(dict(vars(r), kind="cell"))
        groups.setdefault((r.model, r.k_max), []).append(r)
    for (model, k_max), members in groups.items():
        first = members[0]
        ok = [r for r in members if r.error is None]
        summary = dict(kind="summary", model=model, n=first.n, k_max=k_max,
                       predicted_ratio=first.predicted_ratio)
        if ok:
            summary.update(predicted_lo=first.predicted_lo,
                           predicted_hi=first.predicted_hi)
            for name in _MEASURED:
                summary[name] = sum(getattr(r, name) for r in ok) / len(ok)
        else:
            summary["error"] = "ALL_CELLS_FAILED"
        records.append(summary)
    return _csv(("kind", *(f.name for f in fields(ExperimentRow))), records)


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_predict(args) -> int:
    spec = PowerLawSpec(args.alpha, args.kmin, args.kmax)
    # Branch is a str enum, so json writes it as its value.
    payload = asdict(powerlaw.predict(spec))
    payload = {key: _jsonable(value) for key, value in payload.items()}
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def _cmd_sweep(args) -> int:
    alphas = _parse_values(args.alphas, "--alphas")
    kmaxs = _parse_values(args.kmaxs, "--kmaxs")
    if (count := len(alphas) * len(kmaxs)) > 10**6:
        raise UsageError(f"--alphas x --kmaxs gives {count} rows, more than 10^6")
    rows = run_sweep(alphas, kmaxs, args.kmin)
    _emit(sweep_csv(rows), args.out)
    return 0


def _cmd_experiment(args) -> int:
    kmaxs = _parse_values(args.kmaxs, "--kmaxs")
    try:
        models = [Model(name.strip()) for name in args.models.split(",") if name.strip()]
    except ValueError:
        raise UsageError(f"unknown model in {args.models!r}") from None
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError:
        raise UsageError(f"cannot parse --seeds {args.seeds!r}") from None
    if any(s < 0 for s in seeds):
        raise UsageError("seeds must be non-negative")
    rows = run_experiment(args.alpha, args.kmin, kmaxs, args.n, models, seeds)
    _emit(experiment_csv(rows), args.out)
    return 0


def _cmd_generate(args) -> int:
    spec = PowerLawSpec(args.alpha, args.kmin, args.kmax)
    if args.seed < 0:
        raise UsageError("--seed must be non-negative")
    if args.n < 1:
        raise UsageError("n must be at least 1")
    model = Model(args.model)
    seq = _target_sequence(spec, args.n, args.seed)
    g, dropped = _realize(seq, args.seed, spec.k_max, model)
    netgen.write_edge_list(g, args.out or sys.stdout)
    edges = g.adjacency.nnz // 2
    sys.stderr.write(f"{edges} edges on {g.n} vertices ({dropped} stubs dropped)\n")
    return 0


def _cmd_analyze(args) -> int:
    g = netgen.read_edge_list(args.path)
    if g.n == 0:
        raise AllIsolatedError("edge list is empty")
    degrees = g.degrees()
    stats = metrics.stats_from_degrees(degrees)
    comps = metrics.components(g)
    payload = {
        "n": g.n,
        "edges": g.adjacency.nnz // 2,
        "stats": {k: v for k, v in asdict(stats).items() if k != "n"},
        "components": {"count": len(comps), "sizes": comps},
        "global_efficiency": metrics.global_efficiency(g),
        "central_point_dominance": (
            metrics.central_point_dominance(g) if g.n >= 3 else None
        ),
    }
    try:
        payload["fit"] = asdict(fit.fit_alpha(degrees))
    except DomainError as exc:
        payload["fit"] = {"error": exc.code}
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="ffparadox", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("predict", help="closed-form prediction as JSON")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--kmin", type=float, default=1.0)
    p.add_argument("--kmax", type=float, required=True, help="number or 'inf'")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("sweep", help="prediction grid as CSV")
    p.add_argument("--alphas", type=str, required=True,
                   help="'a,b,c' or 'start:stop:step'")
    p.add_argument("--kmaxs", type=str, required=True,
                   help="'a,b,c' or 'start:stop:step'")
    p.add_argument("--kmin", type=float, default=1.0)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("experiment", help="simulation vs prediction as CSV")
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--kmin", type=float, default=1.0)
    p.add_argument("--kmaxs", type=str, default=DEFAULT_KMAX_GRID)
    p.add_argument("--n", type=int, default=10000)
    p.add_argument("--models", type=str, default="A,B,KALISKY")
    p.add_argument("--seeds", type=str, default=DEFAULT_SEEDS)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("generate", help="realize one network as an edge list")
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--kmin", type=float, default=1.0)
    p.add_argument("--kmax", type=float, required=True)
    p.add_argument("--n", type=int, default=10000)
    p.add_argument("--model", type=str, default="A", choices=[m.value for m in Model])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("analyze", help="metrics bundle for an edge-list file")
    p.add_argument("path", type=str)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=_cmd_analyze)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # so a closed pipe fails here, not at exit
        return code
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    except BrokenPipeError:
        # The reader closed early: that is success.  Point stdout at devnull
        # so the interpreter's final flush does not fail on the closed pipe.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
