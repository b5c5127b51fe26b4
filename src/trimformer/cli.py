"""Command-line surface: train | importance | prune | search | distill | eval.

Every command takes JSON config files plus flag overrides, runs seeded and
deterministic, writes artifacts atomically, and exits 0 on success. A
failure raises a typed ``TrimformerError`` (or ``OSError``), printed as one
JSON error line on stderr, and exits 1.

Metrics stream as JSON lines (one record per training step). The pipeline,
from a text corpus (documents separated by blank lines)::

    trimformer train --config exp.json --data corpus.txt --out model.ckpt
    trimformer importance --ckpt model.ckpt --data corpus.txt --out report.json
    trimformer search --space space.json --budget 2e6 --tolerance 0.05 --out cands.json
    trimformer distill --teacher model.ckpt --candidates cands.json --report report.json --data corpus.txt --out student.ckpt
    trimformer eval --ckpt student.ckpt --data corpus.txt

``exp.json`` holds a ``model`` section (:class:`ModelConfig` fields) and
optional ``train`` and ``distill`` sections; ``space.json`` holds a
:class:`SearchSpace`. The ``train`` section takes the keys ``steps``
(default 200), ``batch_size``, ``seq_len``, ``lr_max`` and ``lr_min``
(defaults: those of :func:`distill_loop`); each also has a flag
(``--batch-size`` ...), and a flag given on the command line beats the
config, which beats the default. ``train`` and ``distill`` run the same
loop: ``train`` with the CLM-only objective and no teacher.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import sys

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .data import TokenDataset, ingest_text, sample_calibration
from .distill import CLM_ONLY, DistillConfig, check_train_args, default_layer_map, distill_loop
from .errors import ConfigError, DataError, DivergenceError, TrimformerError
from .importance import DEPTH_METRICS, AggregationSpec, ImportanceReport, compute_importance_report
from .model import Model, ModelConfig, build_model, count_params, lm_loss
from .pruning import apply_candidate
from .search import CandidateSet, SearchSpace, enumerate_candidates, rank_candidates

TRAIN_KEYS = ("steps", "batch_size", "seq_len", "lr_max", "lr_min")
DEFAULT_STEPS = 200  # the other train keys default to distill_loop's values


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as f:
        try:
            d = json.load(f)
        except ValueError as e:
            raise ConfigError(f"{path} is not valid JSON: {e}") from e
    if not isinstance(d, dict):
        raise ConfigError(f"{path} must hold a JSON object")
    return d


def _int_list(text: str, sep: str, flag: str) -> list[int]:
    try:
        return [int(v) for v in text.split(sep)]
    except ValueError:
        raise ConfigError(f"{flag} takes integers separated by {sep!r}, got {text!r}") from None


def _load_dataset(path: str, seed: int) -> TokenDataset:
    if path.endswith(".txt"):
        return ingest_text(path, seed=seed)
    return TokenDataset.load(path)


def _section(config: dict, name: str) -> dict:
    section = config.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"config section {name!r} must be a JSON object")
    return section


def _train(args, config: dict, teacher: Model | None, student: Model,
           data: TokenDataset, cfg: DistillConfig, **summary) -> int:
    """The shared part of ``train`` and ``distill``: resolve the train keys
    (flag > config ``train`` section > default), sample the eval batch, run
    the loop, save the student and print the JSON line, ending in
    ``summary``."""
    section = _section(config, "train")
    unknown = set(section) - set(TRAIN_KEYS)
    if unknown:
        raise ConfigError(f"unknown train keys {sorted(unknown)}; use {sorted(TRAIN_KEYS)}")
    loop_defaults = inspect.signature(distill_loop).parameters
    params = {
        "steps": DEFAULT_STEPS,
        **{key: loop_defaults[key].default for key in TRAIN_KEYS[1:]},
        **section,
        **{key: getattr(args, key) for key in TRAIN_KEYS if getattr(args, key) is not None},
    }
    check_train_args(**params)
    eval_data = None
    if args.eval_every:
        eval_data = sample_calibration(data, 16, params["seq_len"], args.seed, split="val")
    student, metrics = distill_loop(
        teacher, student, data, cfg, **params, seed=args.seed, eval_data=eval_data,
        eval_every=args.eval_every, metrics_path=args.metrics,
    )
    save_checkpoint(student, args.out)
    print(json.dumps({
        "command": args.command,
        "out": args.out,
        "steps": params["steps"],
        "final_loss": metrics[-1]["loss_total"] if metrics else None,
        **summary,
    }))
    return 0


def _eval_batch(dataset: TokenDataset, args) -> np.ndarray:
    return sample_calibration(
        dataset, args.samples, args.seq_len, args.seed, split=args.split
    )


def cmd_train(args) -> int:
    config = _load_json(args.config)
    if "model" not in config:
        raise ConfigError(f"{args.config} has no 'model' section")
    model_cfg = ModelConfig.from_dict(config["model"])
    data = _load_dataset(args.data, args.seed)
    model = build_model(model_cfg, seed=args.seed)
    return _train(args, config, None, model, data, CLM_ONLY,
                  total_params=count_params(model_cfg).total)


def cmd_importance(args) -> int:
    spec = AggregationSpec(batch_fn=args.batch_agg, seq_fn=args.seq_agg)
    blocks = [_int_list(item, ":", "--block-bi") for item in args.block_bi or []]
    if any(len(b) != 2 for b in blocks):
        raise ConfigError(f"--block-bi takes start:length, got {args.block_bi}")
    model = load_checkpoint(args.ckpt)
    data = _load_dataset(args.data, args.seed)
    calib = sample_calibration(data, args.samples, args.seq_len, args.seed, split=args.split)
    report = compute_importance_report(
        model, calib, spec, include_ppl=not args.skip_ppl, blocks=blocks
    )
    report.save(args.out)
    print(json.dumps({
        "command": "importance",
        "out": args.out,
        "aggregation": spec.to_dict(),
        "calibration_checksum": report.calibration_checksum,
    }))
    return 0


def _pick_candidate(manifest: CandidateSet, pick: str) -> ModelConfig:
    if not manifest.candidates:
        raise ConfigError("candidate manifest is empty")
    if pick == "best":
        ranked = [c for c in manifest.candidates if c.eval_loss is not None]
        if ranked:
            return min(ranked, key=lambda c: c.eval_loss).config
        return manifest.candidates[0].config
    for cand in manifest.candidates:
        if cand.label == pick:
            return cand.config
    raise ConfigError(f"no candidate labeled {pick!r} in manifest")


def _target_config(args) -> ModelConfig:
    if args.target:
        return ModelConfig.from_dict(_load_json(args.target))
    if args.candidates:
        return _pick_candidate(CandidateSet.load(args.candidates), args.pick)
    raise ConfigError("prune needs --target or --candidates")


def cmd_prune(args) -> int:
    model = load_checkpoint(args.ckpt)
    report = ImportanceReport.load(args.report) if args.report else None
    target = _target_config(args)
    layers = None
    if args.remove_layers:
        layers = _int_list(args.remove_layers, ",", "--remove-layers")
    pruned = apply_candidate(
        model,
        target,
        report,
        layers_to_remove=layers,
        merge_heads=args.merge_heads,
        depth_metric=args.depth_metric,
    )
    save_checkpoint(pruned, args.out)
    counts = count_params(target)
    print(json.dumps({
        "command": "prune",
        "out": args.out,
        "target": target.to_dict(),
        "total_params": counts.total,
        "non_embedding_params": counts.non_embedding,
    }))
    return 0


def cmd_search(args) -> int:
    space = SearchSpace.from_dict(_load_json(args.space))
    result = enumerate_candidates(space, args.budget, args.tolerance, args.count_mode)
    if args.rank:
        if not (args.ckpt and args.data and args.report):
            raise ConfigError("--rank needs --ckpt, --data and --report")
        model = load_checkpoint(args.ckpt)
        data = _load_dataset(args.data, args.seed)
        report = ImportanceReport.load(args.report)
        eval_tokens = sample_calibration(data, 16, args.seq_len, args.seed, split="val")
        cfg = DistillConfig()
        result = rank_candidates(
            model, result, args.steps, cfg, eval_tokens, data, report,
            seed=args.seed, seq_len=args.seq_len,
        )
    result.save(args.out)
    print(json.dumps({
        "command": "search",
        "out": args.out,
        "assumptions": result.assumptions(),
        "num_candidates": len(result.candidates),
        "candidates": [c.label for c in result.candidates],
    }))
    return 0


def cmd_distill(args) -> int:
    teacher = load_checkpoint(args.teacher)
    data = _load_dataset(args.data, args.seed)
    config = _load_json(args.config) if args.config else {}
    if args.student:
        student = load_checkpoint(args.student)
    elif args.candidates:
        if not args.report:
            raise ConfigError("pruning from a manifest needs --report")
        target = _pick_candidate(CandidateSet.load(args.candidates), args.pick)
        report = ImportanceReport.load(args.report)
        student = apply_candidate(teacher, target, report, merge_heads=args.merge_heads)
    else:
        raise ConfigError("distill needs --student or --candidates")

    distill_dict = dict(_section(config, "distill"))
    cfg = DistillConfig.from_dict(distill_dict) if distill_dict else DistillConfig()
    depth_cut = 1.0 - student.config.num_layers / teacher.config.num_layers
    if "is_components" not in distill_dict and depth_cut > 0.25:
        # Significant depth reduction: add intermediate-state supervision.
        cfg = DistillConfig.from_dict({
            **cfg.to_dict(),
            "is_components": ["emb", "o"],
            "layer_map": [list(p) for p in default_layer_map(
                teacher.config.num_layers, student.config.num_layers
            )],
        })
    return _train(args, config, teacher, student, data, cfg, distill_config=cfg.to_dict())


def cmd_eval(args) -> int:
    model = load_checkpoint(args.ckpt)
    data = _load_dataset(args.data, args.seed)
    batch = _eval_batch(data, args)
    loss = lm_loss(model, batch).item()
    ppl = math.exp(loss)  # the perplexity of one batch, from the same forward
    print(json.dumps({
        "command": "eval",
        "ckpt": args.ckpt,
        "split": args.split,
        "lm_loss": loss,
        "perplexity": ppl,
        "tokens": int(batch.shape[0] * (batch.shape[1] - 1)),
    }))
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--metrics", default=None, help="JSONL metrics path")


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    """The train keys as flags, None unless given, plus ``--eval-every``."""
    p.add_argument("--steps", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--seq-len", dest="seq_len", type=int)
    p.add_argument("--lr-max", dest="lr_max", type=float)
    p.add_argument("--lr-min", dest="lr_min", type=float)
    p.add_argument("--eval-every", dest="eval_every", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trimformer",
        description="Structured pruning and distillation for small decoder-only transformers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from scratch (baseline arm)")
    p.add_argument("--config", required=True, help="experiment JSON with model/train sections")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    _add_train_flags(p)
    _add_common(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("importance", help="emit an importance report")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split", default="train")
    p.add_argument("--samples", type=int, default=64)
    p.add_argument("--seq-len", dest="seq_len", type=int, default=32)
    p.add_argument("--batch-agg", dest="batch_agg", default="l2")
    p.add_argument("--seq-agg", dest="seq_agg", default="mean")
    p.add_argument("--skip-ppl", dest="skip_ppl", action="store_true")
    p.add_argument("--block-bi", dest="block_bi", action="append",
                   help="start:length, repeatable")
    _add_common(p)
    p.set_defaults(fn=cmd_importance)

    p = sub.add_parser("prune", help="trim a checkpoint to a target config")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--report", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--target", default=None, help="ModelConfig JSON path")
    p.add_argument("--candidates", default=None, help="search manifest path")
    p.add_argument("--pick", default="best", help="candidate label or 'best'")
    p.add_argument("--remove-layers", dest="remove_layers", default=None)
    p.add_argument("--depth-metric", dest="depth_metric", default="ppl",
                   choices=DEPTH_METRICS)
    p.add_argument("--merge-heads", dest="merge_heads", action="store_true")
    _add_common(p)
    p.set_defaults(fn=cmd_prune)

    p = sub.add_parser("search", help="enumerate (and optionally rank) candidates")
    p.add_argument("--space", required=True, help="SearchSpace JSON path")
    p.add_argument("--budget", type=float, required=True)
    p.add_argument("--tolerance", type=float, required=True)
    p.add_argument("--count-mode", dest="count_mode", default="total",
                   choices=("total", "non_embedding"))
    p.add_argument("--out", required=True)
    p.add_argument("--rank", action="store_true")
    p.add_argument("--ckpt", default=None)
    p.add_argument("--data", default=None)
    p.add_argument("--report", default=None)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--seq-len", dest="seq_len", type=int, default=32)
    _add_common(p)
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("distill", help="retrain a student against a frozen teacher")
    p.add_argument("--teacher", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--student", default=None)
    p.add_argument("--candidates", default=None)
    p.add_argument("--pick", default="best")
    p.add_argument("--report", default=None)
    p.add_argument("--merge-heads", dest="merge_heads", action="store_true")
    p.add_argument("--config", default=None, help="experiment JSON with distill/train sections")
    _add_train_flags(p)
    _add_common(p)
    p.set_defaults(fn=cmd_distill)

    p = sub.add_parser("eval", help="perplexity / LM loss on a split")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="val")
    p.add_argument("--samples", type=int, default=16)
    p.add_argument("--seq-len", dest="seq_len", type=int, default=32)
    _add_common(p)
    p.set_defaults(fn=cmd_eval)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except DivergenceError as e:
        dump = {"error": type(e).__name__, "message": str(e), "state": e.state_dump}
        print(json.dumps(dump), file=sys.stderr)
        return 1
    except TrimformerError as e:
        payload = {"error": type(e).__name__, "message": str(e)}
        if getattr(e, "field", None):
            payload["field"] = e.field
        print(json.dumps(payload), file=sys.stderr)
        return 1
    except OSError as e:
        print(json.dumps({"error": "OSError", "message": str(e)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
