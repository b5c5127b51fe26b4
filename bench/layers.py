"""Per-layer metrics from the spans of traced passes.

Every value is per traced pass (the passes of one run do identical work),
so counts repeat exactly across runs of one seed. The full table in the
result file keeps each base: total calls, total ms and the pass count.
"""

from __future__ import annotations

import statistics

from spans import NO_GRAD, TEACHER, aggregate, has_ancestor

CALLS_MS_SELF = ("calls", "ms", "self_ms")
CALLS_MS = ("calls", "ms")

SPAN_FIELDS = {
    # distill-small: large matmul backward and the [B*S, V] logit slice.
    "autodiff.backward": CALLS_MS_SELF,
    "autodiff.matmul": CALLS_MS_SELF,
    "autodiff.embedding": CALLS_MS_SELF,
    "autodiff.cross_entropy": CALLS_MS_SELF,
    # rank-toy: node overhead; node fusion shows in these call counts.
    "autodiff.softmax": CALLS_MS,
    "autodiff.repeat": CALLS_MS,
    "autodiff.transpose": CALLS_MS,
    "autodiff.reshape": CALLS_MS,
    "autodiff.rope": CALLS_MS,
    "autodiff.layer_norm": CALLS_MS,
    "autodiff.soft_cross_entropy": CALLS_MS,
    "autodiff.gather_last": CALLS_MS,
    # Both training workloads.
    "distill.logit_loss": CALLS_MS_SELF,
    "distill.intermediate_loss": CALLS_MS_SELF,
    "distill.total_loss": CALLS_MS_SELF,
    "distill.TrainState.adam_update": CALLS_MS_SELF,
    "distill.distill_loop": CALLS_MS,
    "data.sample_batch": CALLS_MS,
    "search.rank_candidates": CALLS_MS,
    # compress-cli: the importance report.
    "importance.head_importance": CALLS_MS_SELF,
    "importance.neuron_importance": CALLS_MS_SELF,
    "importance.emb_importance": CALLS_MS_SELF,
    "importance.layer_importance_ppl": CALLS_MS_SELF,
    "importance.layer_importance_bi": CALLS_MS_SELF,
    "importance.block_bi": CALLS_MS_SELF,
    "model.forward": CALLS_MS_SELF,
    "model.perplexity": CALLS_MS_SELF,
    # compress-cli: per-candidate prune and eval.
    "pruning.apply_candidate": CALLS_MS_SELF,
    "checkpoint.save_checkpoint": CALLS_MS_SELF,
    "checkpoint.load_checkpoint": CALLS_MS_SELF,
    "data.TokenDataset.load": CALLS_MS_SELF,
    "search.enumerate_candidates": CALLS_MS_SELF,
    "cli.importance": CALLS_MS_SELF,
    "cli.search": CALLS_MS_SELF,
    "cli.prune": CALLS_MS_SELF,
    "cli.eval": CALLS_MS_SELF,
}
DERIVED_UNITS = {
    "autodiff.nodes_per_step": "count",
    "distill.teacher_forward.calls": "count",
    "distill.teacher_forward.ms": "ms",
    "model.forward.no_grad_calls": "count",
    "importance.forward_calls": "count",
    "mem.traced_peak_mb": "MB",
    "trace.overhead_ratio": "ratio",
}


def metric_names() -> list[str]:
    names = [f"{span}.{f}" for span, fields in SPAN_FIELDS.items() for f in fields]
    return names + list(DERIVED_UNITS)


def unit(metric: str) -> str:
    if metric in DERIVED_UNITS:
        return DERIVED_UNITS[metric]
    return "count" if metric.endswith(".calls") else "ms"


def _exact(x: float):
    return int(x) if float(x).is_integer() else x


def per_layer_metrics(traced: list[dict], nodes: int, untraced_wall_s: float):
    """``(metrics, table)``: the named per-layer metrics, and the per-pass
    table of every span name with its totals."""
    passes = len(traced)
    totals: dict[str, dict] = {}
    teacher_calls = teacher_ms = no_grad_calls = importance_forwards = steps = 0
    for p in traced:
        spans = p["spans"]
        for name, row in aggregate(spans).items():
            acc = totals.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            for k in acc:
                acc[k] += row[k]
        for i, s in enumerate(spans):
            if s[0] == "data.sample_batch":
                steps += 1
            if s[0] != "model.forward":
                continue
            if s[4] & NO_GRAD:
                no_grad_calls += 1
                if s[4] & TEACHER:
                    teacher_calls += 1
                    teacher_ms += (s[2] - s[1]) * 1e3
            if has_ancestor(spans, i, "importance."):
                importance_forwards += 1

    table = {
        name: {
            **{f"{k}_total": v for k, v in row.items()},
            **{f"{k}_per_pass": v / passes for k, v in row.items()},
        }
        for name, row in sorted(totals.items())
    }
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    metrics = {}
    for span, fields in SPAN_FIELDS.items():
        row = totals.get(span, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        for f in fields:
            metrics[f"{span}.{f}"] = _exact(row[f] / passes)
    metrics.update({
        "autodiff.nodes_per_step": nodes / steps if steps else 0,
        "distill.teacher_forward.calls": _exact(teacher_calls / passes),
        "distill.teacher_forward.ms": teacher_ms / passes,
        "model.forward.no_grad_calls": _exact(no_grad_calls / passes),
        "importance.forward_calls": _exact(importance_forwards / passes),
        "mem.traced_peak_mb": max(p["traced_peak_mb"] for p in traced),
        "trace.overhead_ratio": traced_wall / untraced_wall_s,
    })
    table["_bases"] = {
        "passes": passes,
        "autodiff.nodes_per_step": {"nodes": nodes, "steps": steps},
        "trace.overhead_ratio": {
            "traced_wall_s": traced_wall, "untraced_wall_s": untraced_wall_s,
        },
        "distill.teacher_forward": {"calls_total": teacher_calls, "ms_total": teacher_ms},
        "importance.forward_calls": {"calls_total": importance_forwards},
    }
    return metrics, table
