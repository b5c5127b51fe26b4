"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` (untimed), runs
one timed ``run`` per pass, and checks the outputs afterwards in ``verify``.
Every call into the library goes through a module attribute
(``distill.distill_loop``, never a name bound at import time), so the
span wrappers of :mod:`spans` see it.

Sizes come in two scales: ``full`` is what the benchmark measures, ``tiny``
runs every code path in well under a second for the benchmark's own tests.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import statistics
import time
from dataclasses import dataclass

import numpy as np

from trimformer import checkpoint, cli, data, distill, importance, model, pruning, search
from trimformer.errors import TrimformerError

from spans import by_name


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


def make_corpus(seed: int, workdir: str, n_docs: int, doc_len: int) -> data.TokenDataset:
    """Seeded bigram-structured text, ingested byte-level with train/val
    splits."""
    path = os.path.join(workdir, "corpus.txt")
    with open(path, "w", encoding="utf-8") as f:
        f.write(data.synthetic_markov_text(n_docs=n_docs, doc_len=doc_len, seed=seed))
    return data.ingest_text(path, seed=seed)


def training_steps_ms(spans: list[list]) -> list[float]:
    """One training step runs from its ``sample_batch`` call to the next
    one, or to the end of its ``distill_loop``."""
    steps = []
    batches = by_name(spans, "data.sample_batch")
    for loop in by_name(spans, "distill.distill_loop"):
        starts = [s[1] for s in batches if loop[1] <= s[1] <= loop[2]]
        bounds = starts + [loop[2]]
        steps += [(b - a) * 1e3 for a, b in zip(bounds, bounds[1:])]
    return steps


def _finite_steps(metrics: list[dict]) -> Check:
    bad = [m["step"] for m in metrics if not math.isfinite(m["loss_total"])]
    return Check("loss_total finite at every step", not bad, f"non-finite at {bad}")


def _falling_logit_loss(metrics: list[dict]) -> Check:
    q = max(1, len(metrics) // 4)
    first = statistics.fmean(m["loss_logits"] for m in metrics[:q])
    last = statistics.fmean(m["loss_logits"] for m in metrics[-q:])
    return Check(
        "mean loss_logits of the last quarter below the first quarter",
        last < first,
        f"first {first:.6f} last {last:.6f}",
    )


class DistillSmall:
    """KLD logit distillation of a width-pruned student of the small teacher.

    Large matmuls make the backward sweep and BLAS the bulk of a step; one
    candidate and one teacher forward per step, so caching teacher outputs
    across candidates has nothing to reuse here.
    """

    name = "distill-small"
    clock = {"distill.distill_loop", "data.sample_batch"}

    def __init__(self, tiny: bool = False):
        if tiny:
            self.teacher_cfg = model.ModelConfig(2, 32, 4, 2, 8, 64, 257, max_seq_len=16)
            self.student_dims = dict(d_model=24, num_heads=2, d_hidden=32)
            self.steps, self.batch, self.seq, self.corpus = 4, 2, 16, (20, 120)
        else:
            self.teacher_cfg = model.ModelConfig(8, 256, 8, 4, 32, 1024, 257, max_seq_len=64)
            self.student_dims = dict(d_model=192, num_heads=4, d_hidden=512)
            self.steps, self.batch, self.seq, self.corpus = 8, 8, 64, (120, 240)
        heads = self.student_dims["num_heads"]
        self.student_cfg = self.teacher_cfg.with_(
            num_query_groups=pruning.resolve_query_groups(
                self.teacher_cfg.num_query_groups, heads
            ),
            **self.student_dims,
        )

    def setup(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.data = make_corpus(seed, workdir, *self.corpus)
        self.teacher = model.build_model(self.teacher_cfg, seed=seed)
        calib = data.sample_calibration(self.data, 8, self.seq, seed)
        report = importance.compute_importance_report(
            self.teacher, calib, include_ppl=False, include_bi=False
        )
        self.student = pruning.apply_candidate(self.teacher, self.student_cfg, report)
        self.eval_tokens = data.sample_calibration(self.data, 16, self.seq, seed, split="val")
        self.tokens_per_step = self.batch * self.seq

    def run(self) -> list[dict]:
        """Returns the per-step metrics. Every pass trains the same student
        copy with the same seed, so only the last trained student is kept
        (keeping one per pass would grow peak memory with the pass count)."""
        self.trained, metrics = distill.distill_loop(
            self.teacher, self.student.copy(), self.data, distill.DistillConfig(),
            self.steps, seed=self.seed, batch_size=self.batch, seq_len=self.seq,
        )
        return metrics

    def steps_ms(self, spans, output) -> list[float]:
        return training_steps_ms(spans)

    def candidate_starts(self, spans, output) -> list[float]:
        return [s[1] for s in by_name(spans, "distill.distill_loop")]

    def operations(self, output) -> int:
        return len(output)

    def eval_loss(self, output) -> float:
        return model.lm_loss(self.trained, self.eval_tokens).item()

    def verify(self, outputs) -> list[Check]:
        checks = []
        for metrics in outputs:
            checks += [_finite_steps(metrics), _falling_logit_loss(metrics)]
        return checks


def check_ranking(enumerated: search.CandidateSet, ranked: search.CandidateSet) -> list[Check]:
    labels = [c.label for c in ranked.candidates]
    losses = [c.eval_loss for c in ranked.candidates]
    finite = all(v is not None and math.isfinite(v) for v in losses)
    return [
        Check(
            "ranked labels equal the enumerated labels",
            len(labels) == len(set(labels))
            and set(labels) == {c.label for c in enumerated.candidates},
            f"{labels}",
        ),
        Check("every eval_loss is finite", finite, f"{losses}"),
        Check(
            "ranking sorted by (eval_loss, label)",
            finite and list(zip(losses, labels)) == sorted(zip(losses, labels)),
            f"{list(zip(losses, labels))}",
        ),
    ]


class RankToy:
    """``rank_candidates`` over depth- and width-pruned toy candidates with
    top-k KLD plus intermediate-state losses.

    Tiny tensors make per-node interpreter overhead dominate instead of
    BLAS, and the teacher forward repeats for every candidate and step.
    """

    name = "rank-toy"
    clock = {
        "search.rank_candidates", "pruning.apply_candidate",
        "distill.distill_loop", "data.sample_batch",
    }
    teacher_cfg = model.ModelConfig(4, 64, 8, 2, 8, 256, 257, max_seq_len=64)
    space = search.SearchSpace(
        layer_range=(2, 4), head_choices=(4, 8), mlp_expansion_factors=(2.0, 4.0),
        embedding_choices=(48, 64), d_head=8, vocab_size=257, num_query_groups=2,
        max_seq_len=64,
    )
    budget, tolerance = 150_000, 0.1

    def __init__(self, tiny: bool = False):
        if tiny:
            self.teacher_steps, self.steps, self.corpus = 2, 2, (20, 120)
        else:
            self.teacher_steps, self.steps, self.corpus = 30, 12, (120, 240)
        self.batch, self.seq = 8, 32
        self.cfg = distill.DistillConfig(
            top_k=32,
            is_components=("emb", "o"),
            # Valid for every candidate: the space's shallowest depth.
            layer_map=distill.default_layer_map(
                self.teacher_cfg.num_layers, self.space.layer_range[0]
            ),
        )

    def setup(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.data = make_corpus(seed, workdir, *self.corpus)
        teacher = model.build_model(self.teacher_cfg, seed=seed)
        self.teacher, _ = distill.conventional_loop(
            teacher, self.data, steps=self.teacher_steps, seed=seed,
            batch_size=self.batch, seq_len=self.seq,
        )
        calib = data.sample_calibration(self.data, 16, self.seq, seed)
        self.report = importance.compute_importance_report(self.teacher, calib)
        self.eval_tokens = data.sample_calibration(self.data, 16, self.seq, seed, split="val")
        self.tokens_per_step = self.batch * self.seq

    def run(self):
        enumerated = search.enumerate_candidates(self.space, self.budget, self.tolerance)
        ranked = search.rank_candidates(
            self.teacher, enumerated, self.steps, self.cfg, self.eval_tokens,
            self.data, self.report, seed=self.seed, batch_size=self.batch,
            seq_len=self.seq,
        )
        return enumerated, ranked

    def steps_ms(self, spans, output) -> list[float]:
        return training_steps_ms(spans)

    def candidate_starts(self, spans, output) -> list[float]:
        """A candidate runs from its ``apply_candidate`` call to the next
        one: prune, retrain, eval."""
        return [s[1] for s in by_name(spans, "pruning.apply_candidate")]

    def operations(self, output) -> int:
        return len(output[0].candidates) * self.steps

    def eval_loss(self, output) -> float:
        return output[1].candidates[0].eval_loss

    def verify(self, outputs) -> list[Check]:
        checks = []
        for enumerated, ranked in outputs:
            checks += check_ranking(enumerated, ranked)
        return checks


@dataclass
class Command:
    argv: list[str]
    code: int
    stdout: str
    stderr: str
    start: float
    seconds: float

    def json_lines(self) -> list[dict | None]:
        out = []
        for line in self.stdout.splitlines():
            try:
                out.append(json.loads(line))
            except ValueError:
                out.append(None)
        return out


def run_cli(argv: list[str]) -> Command:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse rejects a bad command line
            code = e.code if isinstance(e.code, int) else 2
    return Command(argv, code, out.getvalue(), err.getvalue(), t0, time.perf_counter() - t0)


def check_pruned(path: str, total_params: int) -> Check:
    """The pruned checkpoint holds exactly the candidate's parameter count."""
    try:
        pruned = checkpoint.load_checkpoint(path)
    except (TrimformerError, OSError) as e:
        return Check(f"{os.path.basename(path)} loads", False, str(e))
    counted = model.count_params(pruned.config).total
    stored = sum(p.data.size for p in pruned.params.values())
    return Check(
        f"{os.path.basename(path)} has the candidate's total_params",
        counted == stored == total_params,
        f"count_params {counted}, stored {stored}, candidate {total_params}",
    )


class CompressCli:
    """``cli.main`` in-process: importance (every axis) -> search ->
    prune and eval per candidate, on a saved checkpoint and dataset.

    Forward-only with no tape: the importance capture passes and the
    L-deep perplexity sweep dominate, plus checkpoint and dataset I/O.
    """

    name = "compress-cli"
    clock = {"model.forward"}

    def __init__(self, tiny: bool = False):
        if tiny:
            self.model_cfg = model.ModelConfig(4, 32, 4, 2, 8, 128, 257, max_seq_len=32)
            self.space = search.SearchSpace(
                layer_range=(3, 4), head_choices=(2, 4), mlp_expansion_factors=(2.0, 4.0),
                embedding_choices=(24, 32), d_head=8, vocab_size=257, num_query_groups=2,
                max_seq_len=32,
            )
            self.budget, self.tolerance = 44_000, 0.1
            self.samples, self.seq, self.blocks, self.corpus = 8, 32, ("1:1", "1:2"), (20, 120)
            self.eval_samples = 16
        else:
            self.model_cfg = model.ModelConfig(12, 128, 8, 4, 16, 512, 257, max_seq_len=64)
            self.space = search.SearchSpace(
                layer_range=(8, 12), head_choices=(4, 8), mlp_expansion_factors=(2.0, 4.0),
                embedding_choices=(96, 128), d_head=16, vocab_size=257, num_query_groups=4,
                max_seq_len=64,
            )
            self.budget, self.tolerance = 1_200_000, 0.05
            self.samples, self.seq, self.blocks, self.corpus = 8, 64, ("2:2", "6:4"), (120, 240)
            self.eval_samples = 16

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def setup(self, seed: int, workdir: str) -> None:
        self.seed, self.workdir = seed, workdir
        make_corpus(seed, workdir, *self.corpus).save(self.path("corpus.bin"))
        checkpoint.save_checkpoint(
            model.build_model(self.model_cfg, seed=seed), self.path("source.ckpt")
        )
        with open(self.path("space.json"), "w", encoding="utf-8") as f:
            json.dump(self.space.to_dict(), f)

    def run(self) -> dict:
        seed = str(self.seed)
        common = ["--data", self.path("corpus.bin"), "--seed", seed]
        block_args = [a for b in self.blocks for a in ("--block-bi", b)]
        importance_cmd = run_cli(
            ["importance", "--ckpt", self.path("source.ckpt"), "--out", self.path("report.json"),
             "--samples", str(self.samples), "--seq-len", str(self.seq), *block_args, *common]
        )
        search_cmd = run_cli(
            ["search", "--space", self.path("space.json"), "--budget", str(self.budget),
             "--tolerance", str(self.tolerance), "--out", self.path("candidates.json"),
             "--seed", seed]
        )
        found = search_cmd.json_lines()
        labels = found[0]["candidates"] if found and found[0] else []
        per_candidate = []
        for label in labels:
            out = self.path(f"{label}.ckpt")
            prune_cmd = run_cli(
                ["prune", "--ckpt", self.path("source.ckpt"), "--report", self.path("report.json"),
                 "--candidates", self.path("candidates.json"), "--pick", label, "--out", out,
                 "--seed", seed]
            )
            eval_cmd = run_cli(
                ["eval", "--ckpt", out, "--samples", str(self.eval_samples),
                 "--seq-len", str(self.seq), *common]
            )
            per_candidate.append((label, prune_cmd, eval_cmd))
        return {"importance": importance_cmd, "search": search_cmd, "candidates": per_candidate}

    @staticmethod
    def commands(output) -> list[Command]:
        cmds = [output["importance"], output["search"]]
        for _, prune_cmd, eval_cmd in output["candidates"]:
            cmds += [prune_cmd, eval_cmd]
        return cmds

    def steps_ms(self, spans, output) -> list[float]:
        """A step here is one forward pass: the unit of forward-only work."""
        return [(s[2] - s[1]) * 1e3 for s in by_name(spans, "model.forward")]

    def candidate_starts(self, spans, output) -> list[float]:
        """A candidate runs from its ``prune`` command to the next one."""
        return [p.start for _, p, _ in output["candidates"]]

    def operations(self, output) -> int:
        return len(self.commands(output))

    def eval_loss(self, output) -> float:
        losses = [e.json_lines()[0]["lm_loss"] for _, _, e in output["candidates"]]
        return statistics.fmean(losses) if losses else math.nan

    def verify(self, outputs) -> list[Check]:
        checks = []
        for output in outputs:
            for cmd in self.commands(output):
                lines = cmd.json_lines()
                checks.append(Check(
                    f"{cmd.argv[0]} exits 0 with one JSON line",
                    cmd.code == 0 and len(lines) == 1 and isinstance(lines[0], dict),
                    f"exit {cmd.code}, stdout {cmd.stdout[:200]!r}, stderr {cmd.stderr[:200]!r}",
                ))
            if not output["candidates"]:
                checks.append(Check("search found candidates", False))
        checks += self.verify_files(outputs[-1])
        return checks

    def verify_files(self, output) -> list[Check]:
        """Checks on the artifacts the last pass left on disk."""
        dataset = data.TokenDataset.load(self.path("corpus.bin"))
        calib = data.sample_calibration(dataset, self.samples, self.seq, self.seed)
        report = importance.ImportanceReport.load(self.path("report.json"))
        checks = [Check(
            "report calibration_checksum matches the calibration tokens",
            report.calibration_checksum == importance.calibration_checksum(calib),
        )]
        manifest = search.CandidateSet.load(self.path("candidates.json"))
        for cand in manifest.candidates:
            checks.append(check_pruned(self.path(f"{cand.label}.ckpt"), cand.total_params))
        source = checkpoint.load_checkpoint(self.path("source.ckpt"))
        same = pruning.apply_candidate(source, source.config, report)
        tokens = calib[:4]
        checks.append(Check(
            "prune-to-self logits are bit-identical to the source",
            np.array_equal(model.forward(source, tokens)[0].data,
                           model.forward(same, tokens)[0].data),
        ))
        return checks

    def report_s(self, outputs) -> list[float]:
        return [o["importance"].seconds for o in outputs]


WORKLOADS = {w.name: w for w in (DistillSmall, RankToy, CompressCli)}
