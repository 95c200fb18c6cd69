"""Benchmark of the sample -> train -> eval pipeline of ``epiarg``.

    python3 perfbench/run.py --workload desk-protonet --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One run sets up the workload's inputs several times (``setup_s`` is their
median), then repeats whole rounds of the workload's pipeline until
``--seconds`` have passed, then checks the last round's outputs. With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced rounds and reports the per-layer metrics
and the tracing overhead. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The package is imported from ``src/`` of the checkout this file sits in.
BLAS runs single-threaded and every stage runs in this one process.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# Set-up is repeated at least this often, and until this much time has passed.
SETUP_REPEATS = 3
SETUP_SECONDS = 1.5

END_TO_END = {
    "setup_s": "s",
    "train_episodes_per_s": "episode/s",
    "eval_episodes_per_s": "episode/s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
}
# Reported by a traced run next to the per-layer metrics.
TRACE_EXTRA = {
    "evaluation.test_macro_f1": "%",
    "trace.pipeline_s": "s",
    "trace.untraced_pipeline_s": "s",
    "trace.overhead_pct": "%",
}


def _import_package() -> None:
    if not (ROOT / "src" / "epiarg" / "__init__.py").is_file():
        sys.exit(f"error: no epiarg package under {ROOT / 'src'}; run from a checkout of the repository")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_threads() -> int | None:
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line and line.rstrip().endswith(".so")}
        for path in paths:
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype, fn.argtypes = ctypes.c_int, []
                    return int(fn())
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
    }


def _median(values) -> float:
    return float(statistics.median(values))


def _shape(name: str, tracer, pipeline_s: float) -> dict[str, float]:
    """Shares that reproduce the baseline profile, each with its base."""
    from tracing import covered_s

    if name == "desk-protonet":
        train = covered_s(tracer, lambda s: s.name == "trainer.train")
        optimizer = covered_s(tracer, lambda s: s.name in ("trainer.step", "trainer.grad_zero_scale"))
        return {"optimizer_share_of_train": optimizer / train}
    if name == "doc-heads":
        heavy = covered_s(tracer, lambda s: s.name in ("heads.nnshot_classify", "heads.kmeans_nota")
                          or (s.name == "trainer.forward_backward" and s.head == "nnshot"))
        return {"nnshot_kmeans_share_of_pipeline": heavy / pipeline_s}
    io_names = {
        "sampler.generate_episode_set", "sampler.sample_episode", "sampler.write_episodes",
        "sampler.read_episodes", "corpus.parse_corpus", "corpus.write_corpus",
        "trainer.save_checkpoint", "trainer.load_checkpoint", "encoder.write_embeddings",
        "heads.write_prototypes",
    }
    return {"sampler_io_share_of_pipeline": covered_s(tracer, lambda s: s.name in io_names) / pipeline_s}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from tracing import TARGETS, PER_LAYER, Tracer, median_metrics, round_metrics
    from workloads import WORKLOADS

    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{name}-", dir=OUT) as tmp:
        workload = WORKLOADS[name](seed, Path(tmp))
        setup_s = []
        while len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_SECONDS:
            gc.collect()
            start = time.perf_counter()
            workload.setup()
            setup_s.append(time.perf_counter() - start)
        rounds, traced, layers, shapes = [], [], [], []
        tracer = Tracer()
        deadline = time.perf_counter() + seconds
        r = None
        while True:
            if r is not None:
                r.outputs = {}  # only the last round is checked; keep one round's outputs alive
            gc.collect()
            if trace and len(rounds) > len(traced):
                tracer.reset()
                with tracer.installed_on(TARGETS):
                    r = workload.run_round()
                traced.append(r)
                layers.append(round_metrics(tracer))
                shapes.append(_shape(name, tracer, r.pipeline_s))
            else:
                r = workload.run_round()
                rounds.append(r)
            if time.perf_counter() >= deadline and (traced or not trace):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems = workload.check(r)

    done = rounds + traced
    if trace:
        metrics = {k: (v, PER_LAYER[k][0]) for k, v in median_metrics(layers).items()}
        traced_s, untraced_s = _median(t.pipeline_s for t in traced), _median(t.pipeline_s for t in rounds)
        extra = {
            "evaluation.test_macro_f1": r.test_macro_f1,
            "trace.pipeline_s": traced_s,
            "trace.untraced_pipeline_s": untraced_s,
            "trace.overhead_pct": 100.0 * (traced_s - untraced_s) / untraced_s,
        }
        metrics.update({k: (v, TRACE_EXTRA[k]) for k, v in extra.items()})
    else:
        values = {
            "setup_s": _median(setup_s),
            "train_episodes_per_s": _median(x.rate("train") for x in rounds),
            "eval_episodes_per_s": _median(x.rate("eval") for x in rounds),
            "pipeline_s": _median(x.pipeline_s for x in rounds),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: (v, END_TO_END[k]) for k, v in values.items()}
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "rounds": len(done),
        "traced_rounds": len(traced),
        "test_macro_f1": r.test_macro_f1,
        "shape": {k: _median(s[k] for s in shapes) for k in shapes[0]} if shapes else {},
        "setup_s": setup_s,
        "round_seconds": [{**x.seconds, "pipeline": x.pipeline_s, "traced": x in traced} for x in done],
        "environment": environment(),
        "result": {
            "correct": not problems,
            "attempted": sum(x.attempted for x in done),
            "failed": sum(x.failed for x in done),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def _print_record(record: dict) -> None:
    print(f"# {record['workload']} seed {record['seed']}: {record['rounds']} rounds "
          f"({record['traced_rounds']} traced), test macro-F1 {record['test_macro_f1']:.2f}")
    print(f"# environment {json.dumps(record['environment'])}")
    for key, share in record["shape"].items():
        print(f"# shape {key} {share:.3f}")
    result = record["result"]
    print(f"# attempted {result['attempted']} failed {result['failed']} correct {result['correct']}")
    for key, metric in result["metrics"].items():
        print(f"{record['workload']:14s} {key:44s} {metric['value']:14.6g} {metric['unit']}")


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in a fresh process, one after the other."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} exited {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = metric
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="desk-protonet, doc-heads, cli-pipeline or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_package()
    from workloads import WORKLOADS

    if args.workload == "all":
        print(json.dumps(run_all(args.seed, args.seconds, bool(args.trace))))
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    (OUT / f"{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    _print_record(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
