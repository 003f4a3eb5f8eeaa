"""Reference figures for the README; not a workload and not a gate.

    python3 bench/reference.py layers            # per-layer times at n = 10^4
    python3 bench/reference.py scaling           # generate + components at 10^4..10^6
    python3 bench/reference.py overhead          # tracing overhead per workload

``layers`` times each layer once on the graph the ROADMAP baseline uses:
alpha 2, k_min 1, k_max 100, ``make_graphical(sample_degrees(spec, n, 11),
seed=1)`` and generator seed 7.  Exact efficiency and betweenness on the
three 10^4-vertex graphs take several minutes.  ``scaling`` runs every
(n, model) point in a fresh process, one at a time, and reports the time of
``generate`` and ``components`` and the process's peak resident memory.
``overhead`` alternates untraced and traced passes of each workload in one
process (four pairs, benchmark seed 1), so both sides see the same machine
state, and reports traced minus untraced median pass time.  Results are
printed as Markdown rows and written to ``bench/out/``.
"""

import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from ffparadox import cli, fit, metrics, netgen, powerlaw  # noqa: E402
from ffparadox.netgen import Model  # noqa: E402

SPEC = powerlaw.PowerLawSpec(2.0, 1.0, 100.0)


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


def layers(n=10_000):
    rows = {}
    sample, rows["powerlaw.sample_continuous"] = timed(powerlaw.sample_continuous, SPEC, n, 11)
    degrees, rows["powerlaw.sample_degrees"] = timed(powerlaw.sample_degrees, SPEC, n, 11)
    _, rows["fit.fit_alpha"] = timed(fit.fit_alpha, sample, k_min=1.0, k_max=100.0)
    seq, rows["netgen.make_graphical"] = timed(netgen.make_graphical, degrees, seed=1)
    path = BENCH / "out" / "reference-graph.txt"
    path.parent.mkdir(exist_ok=True)
    for model in Model:
        g, rows[f"netgen.generate.{model.value}"] = timed(netgen.generate, seq, model, 7)
        _, rows[f"netgen.Graph.from_edges.{model.value}"] = timed(
            netgen.Graph.from_edges, g.n, g.edges
        )
        _, rows[f"netgen.write_edge_list.{model.value}"] = timed(netgen.write_edge_list, g, path)
        _, rows[f"netgen.read_edge_list.{model.value}"] = timed(netgen.read_edge_list, path)
        _, rows[f"metrics.components.{model.value}"] = timed(metrics.components, g)
        _, rows[f"metrics.global_efficiency.{model.value}"] = timed(metrics.global_efficiency, g)
        _, rows[f"metrics.betweenness.{model.value}"] = timed(metrics.betweenness, g)
        print(f"{model.value} done", file=sys.stderr, flush=True)
    path.unlink()
    return rows


def scaling_point(n, model):
    seq = netgen.make_graphical(powerlaw.sample_degrees(SPEC, n, 11), seed=1)
    g, generate_s = timed(netgen.generate, seq, Model(model), 7)
    comps, components_s = timed(metrics.components, g)
    return {
        "n": n, "model": model, "edges": len(g.edges), "components": len(comps),
        "generate_s": generate_s, "components_s": components_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def scaling(sizes=(10_000, 100_000, 1_000_000)):
    points = []
    for n in sizes:
        for model in Model:
            proc = subprocess.run(
                [sys.executable, __file__, "point", str(n), model.value],
                stdout=subprocess.PIPE, text=True, check=True,
            )
            points.append(json.loads(proc.stdout))
            print(json.dumps(points[-1]), file=sys.stderr, flush=True)
    return points


def overhead(seed=1, pairs=4):
    sys.path.insert(0, str(BENCH))
    from tracing import Tracer
    from workloads import WORKLOADS

    rows = {}
    for name, cls in WORKLOADS.items():
        workdir = BENCH / "out" / f"overhead-{name}"
        workdir.mkdir(parents=True, exist_ok=True)
        workload = cls(seed, False, workdir)
        workload.setup()
        workload.run_pass()
        tracer = Tracer()
        walls = {False: [], True: []}
        for _ in range(pairs):
            for traced in (False, True):
                if traced:
                    tracer.install((powerlaw, netgen, metrics, fit, cli), netgen.Graph)
                    tracer.reset()
                gc.collect()
                _, seconds = timed(workload.run_pass)
                walls[traced].append(seconds)
                tracer.uninstall()
        shutil.rmtree(workdir)
        plain, traced = statistics.median(walls[False]), statistics.median(walls[True])
        rows[name] = {
            "untraced_s": plain, "traced_s": traced, "passes": walls[False] + walls[True],
        }
        print(f"{name} done", file=sys.stderr, flush=True)
    return rows


def main(argv):
    if argv[:1] == ["point"]:
        print(json.dumps(scaling_point(int(argv[1]), argv[2])))
        return
    if argv[:1] == ["layers"]:
        rows = layers()
        for name, seconds in rows.items():
            print(f"| `{name}` | {seconds:.3f} |")
    elif argv[:1] == ["scaling"]:
        rows = scaling()
        for p in rows:
            print(f"| {p['n']} | {p['model']} | {p['edges']} | {p['generate_s']:.3f} "
                  f"| {p['components_s']:.3f} | {p['peak_rss_mb']:.0f} |")
    elif argv[:1] == ["overhead"]:
        rows = overhead()
        for name, r in rows.items():
            diff = r["traced_s"] - r["untraced_s"]
            print(f"| `{name}` | {r['untraced_s']:.3f} | {r['traced_s']:.3f} "
                  f"| {diff:+.3f} ({diff / r['untraced_s']:+.1%}) |")
    else:
        raise SystemExit(__doc__)
    out = BENCH / "out" / f"reference-{argv[0]}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(rows, indent=1), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
