"""Seeded benchmark of the prune -> distill pipeline.

    python3 bench/run.py --workload rank-toy --seed 1 --seconds 15 --trace 0

Runs one workload in this process: sets it up five times (``setup_s`` is
the median), runs timed passes back to back until ``--seconds`` have
elapsed (the last pass is completed), then checks the outputs. Every pass
does the same work, so the n-th step of one pass repeats the n-th step of
every other; the pass and step metrics keep each step's fastest repetition.
The end-to-end times are scaled to a fixed host speed: a reference job that
involves no code under test runs before every set-up and every pass, and
each time is multiplied by ``REFERENCE_S`` over the reference's fastest run
in the same phase. ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` alternates untraced and traced
passes and prints the per-layer metrics. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full result, with the environment, goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5
# The reference job's fastest time on the 2-vCPU host the baseline was
# measured on; scaled times read as seconds on that host.
REFERENCE_S = 0.05
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_best_s": "s",
    "step_best_ms": "ms",
    "peak_rss_mb": "MB",
    "eval_loss": "nats",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("distill-small", "rank-toy", "compress-cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every workload for the benchmark's own tests")
    return p.parse_args(argv)


def cap_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may run on. Must run
    before numpy is imported."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


def git_sha() -> str | None:
    """HEAD of the checkout's git metadata, read without starting git."""
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
    return None


def environment(seed: int, nproc: int) -> dict:
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "nproc": nproc,
        "seed": seed,
    }


def fresh_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)


def reference_s(repeats: int = 2) -> float:
    """Fastest of ``repeats`` runs of a fixed numpy job: a chain of matmuls
    of the distill-small student's shapes (BLAS threads as capped), then
    many small-array operations (interpreter and dispatch overhead, as in
    the small workloads). It calls no library code, so it tracks only the
    speed of the host, which drifts by up to a factor of two from minute to
    minute on a shared machine."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((512, 192), dtype=np.float32)
    w = rng.standard_normal((192, 512), dtype=np.float32) * 0.07
    v = rng.standard_normal((512, 192), dtype=np.float32) * 0.04
    b = rng.standard_normal((8, 16, 32), dtype=np.float32)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        x = a
        for _ in range(30):
            x = np.tanh((x @ w) @ v)
        y = b
        for _ in range(1500):
            y = np.tanh(y * 0.5 + 0.1).transpose(0, 2, 1).reshape(8, 16, 32)
        best = min(best, time.perf_counter() - t0)
    return best


class Failure(Exception):
    """A pass stopped because the library raised."""


def timed_pass(workload, tracer, passes: list) -> None:
    from trimformer.errors import TrimformerError

    # The tape's node/tensor reference cycles are only freed by a full
    # collection; start every pass from the same heap.
    gc.collect()
    ref = reference_s()
    t0 = time.perf_counter()
    with tracer:
        try:
            output = workload.run()
        except TrimformerError as e:
            raise Failure(f"{type(e).__name__}: {e}") from e
    t1 = time.perf_counter()
    passes.append({
        "reference_s": ref, "start": t0, "wall_s": t1 - t0, "spans": tracer.take(),
        "output": output,
    })


def cut_pass(p: dict, candidate_starts: list[float]) -> tuple[list[float], list[int]]:
    """The pass cut at the start of every span the untraced tracer recorded
    (the workload's step boundaries) and of every candidate. Returns the
    pieces, which add up to the pass, and the candidate each belongs to
    (a candidate runs to the next one's start or the end of the pass; -1
    before the first)."""
    cuts = sorted({*(s[1] for s in p["spans"]), *candidate_starts})
    bounds = [p["start"], *cuts, p["start"] + p["wall_s"]]
    owner = [bisect.bisect_right(candidate_starts, a) - 1 for a in bounds[:-1]]
    return [b - a for a, b in zip(bounds, bounds[1:])], owner


def common_length(per_pass: list[list]) -> list[list]:
    """The passes with the most common number of positions (a pass that did
    more or less work than the others cannot be lined up with them)."""
    lengths = [len(v) for v in per_pass]
    common = max(set(lengths), key=lengths.count) if lengths else 0
    return [v for v in per_pass if len(v) == common]


def fastest(per_pass: list[list[float]]) -> list[float]:
    """Per position, the fastest of its repetitions across the passes."""
    return [min(col) for col in zip(*common_length(per_pass))]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "trimformer" / "__init__.py").is_file():
        print(f"error: no trimformer sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = cap_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))

    import resource
    import tracemalloc

    import layers
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload](tiny=args.size == "tiny")
    env = environment(args.seed, nproc)
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    setups, setup_refs, untraced, traced, errors = [], [], [], [], []
    try:
        for _ in range(SETUP_REPEATS):
            fresh_dir(workdir)
            setup_refs.append(reference_s())
            t0 = time.perf_counter()
            workload.setup(args.seed, str(workdir))
            setups.append(time.perf_counter() - t0)

        clock = spans.Tracer(only=workload.clock)
        full = spans.Tracer()
        clock.teacher = full.teacher = getattr(workload, "teacher", None)
        from trimformer import autodiff

        nodes = 0
        start = time.perf_counter()
        try:
            while True:
                timed_pass(workload, clock, untraced)
                if args.trace:
                    n0 = autodiff.nodes_recorded_total()
                    tracemalloc.start()
                    timed_pass(workload, full, traced)
                    traced[-1]["traced_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    nodes += autodiff.nodes_recorded_total() - n0
                # Stop once ending now is nearer the deadline than ending
                # after one more pass, so a run lasts about --seconds.
                elapsed = time.perf_counter() - start
                if elapsed + elapsed / len(untraced) / 2 >= args.seconds:
                    break
        except Failure as e:
            errors.append(str(e))
            tracemalloc.stop()

        outputs = [p["output"] for p in untraced + traced]
        checks = workload.verify(outputs) if outputs else []
        eval_loss = workload.eval_loss(outputs[0]) if outputs else float("nan")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    operations = sum(workload.operations(o) for o in outputs)
    failed = len(errors) + sum(not c.ok for c in checks)
    attempted = operations + len(errors) + len(checks)

    steps_ms = [workload.steps_ms(p["spans"], p["output"]) for p in untraced]
    cut = common_length([
        list(zip(*cut_pass(p, workload.candidate_starts(p["spans"], p["output"]))))
        for p in untraced
    ])
    best_segments = [min(piece for piece, _ in col) for col in zip(*cut)]
    owner = [k for _, k in cut[0]] if cut else []
    n_cands = max(owner, default=-1) + 1
    best_cands = [
        sum(b for b, k in zip(best_segments, owner) if k == cand) for cand in range(n_cands)
    ]
    best_steps = fastest(steps_ms)
    walls = [p["wall_s"] for p in untraced]
    all_steps = [v for per_pass in steps_ms for v in per_pass]
    all_cands = [
        sum(piece for piece, k in pieces if k == cand) for pieces in cut for cand in range(n_cands)
    ]
    nan = float("nan")
    pass_refs = [p["reference_s"] for p in untraced]
    setup_scale = REFERENCE_S / min(setup_refs)
    pass_scale = REFERENCE_S / min(pass_refs) if pass_refs else nan
    raw = {
        "setup_s": statistics.median(setups),
        "pass_best_s": sum(best_segments) if best_segments else nan,
        "step_best_ms": statistics.median(best_steps) if best_steps else nan,
    }
    end_to_end = {
        "setup_s": raw["setup_s"] * setup_scale,
        "pass_best_s": raw["pass_best_s"] * pass_scale,
        "step_best_ms": raw["step_best_ms"] * pass_scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "eval_loss": eval_loss,
    }
    # Every time below is as measured, not scaled.
    extra = {
        "raw": raw,
        "reference_s": {"setup": min(setup_refs), "passes": min(pass_refs, default=nan)},
        "candidate_best_s": statistics.median(best_cands) if best_cands else nan,
        "passes": len(walls),
        "steps": len(all_steps),
        "candidates": len(all_cands),
        "setups": setups,
        "wall_s_per_pass": walls,
        "wall_s": statistics.median(walls) if walls else nan,
        "candidate_s": statistics.median(all_cands) if all_cands else nan,
        "step_ms_p50": statistics.median(all_steps) if all_steps else nan,
        "error_rate": failed / attempted if attempted else 1.0,
        "errors": errors,
    }
    # p90 only where at least ten samples lie beyond it.
    if len(all_steps) >= 100:
        extra["step_ms_p90"] = statistics.quantiles(all_steps, n=10)[8]
    if hasattr(workload, "tokens_per_step") and all_steps:
        extra["train_tokens_per_s"] = (
            workload.tokens_per_step * len(all_steps) / (sum(all_steps) / 1e3)
        )
    if hasattr(workload, "report_s") and outputs:
        extra["report_s"] = statistics.median(workload.report_s([p["output"] for p in untraced]))

    if args.trace:
        table, metrics = None, {}
        if traced:
            per_layer, table = layers.per_layer_metrics(traced, nodes, statistics.median(walls))
            metrics = {k: {"value": v, "unit": layers.unit(k)} for k, v in per_layer.items()}
    else:
        table = None
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end.items()}

    correct = failed == 0 and bool(outputs)
    result = {
        "workload": args.workload,
        "trace": args.trace,
        "size": args.size,
        "seconds": args.seconds,
        "environment": env,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "checks": [vars(c) for c in checks],
        "end_to_end": end_to_end,
        "extra": extra,
        "per_layer_table": table,
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(result, indent=1, default=float))
    if args.trace:
        with open(OUT_DIR / f"{stem}.spans.jsonl", "w", encoding="utf-8") as f:
            for i, p in enumerate(traced):
                for s in p["spans"]:
                    f.write(json.dumps([i, *s]) + "\n")

    print(json.dumps({"environment": env}))
    for name, m in metrics.items():
        print(f"{args.workload:14s} {name:44s} {m['value']:>14.6g} {m['unit']}")
    for name, value in extra.items():
        if isinstance(value, (int, float)):
            print(f"{args.workload:14s} {name:44s} {value:>14.6g}")
    for c in checks:
        if not c.ok:
            print(f"check failed: {c.name}: {c.detail}")
    for e in errors:
        print(f"pass failed: {e}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
