"""Tests of the benchmark itself: every workload runs at tiny size and
prints every declared metric with its unit, and corrupted outputs are
counted as failures.

    python3 -m pytest -q bench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(capsys, name, trace=0):
    code = run.main(
        ["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace),
         "--size", "tiny"]
    )
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_prints_every_declared_metric(capsys, name, trace):
    result = bench(capsys, name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_forward_only_workload_records_no_backward(capsys):
    metrics = bench(capsys, "compress-cli", trace=1)["metrics"]
    assert metrics["autodiff.backward.calls"]["value"] == 0
    assert metrics["importance.forward_calls"]["value"] > 0


def test_teacher_forwards_repeat_per_candidate_and_step(capsys):
    metrics = bench(capsys, "rank-toy", trace=1)["metrics"]
    rank = workloads.RankToy(tiny=True)
    steps = metrics["data.sample_batch.calls"]["value"]
    assert steps == 5 * rank.steps
    assert metrics["distill.teacher_forward.calls"]["value"] == steps


def test_shuffled_ranking_raises_error_rate(capsys, monkeypatch):
    honest = workloads.RankToy.run

    def shuffled(self):
        enumerated, ranked = honest(self)
        ranked.candidates.reverse()
        return enumerated, ranked

    monkeypatch.setattr(workloads.RankToy, "run", shuffled)
    result = bench(capsys, "rank-toy")
    assert result["correct"] is False
    assert result["failed"] > 0


def test_ranking_checks_catch_missing_and_unsorted(tmp_path):
    rank = workloads.RankToy(tiny=True)
    rank.setup(3, str(tmp_path))
    enumerated, ranked = rank.run()
    assert all(c.ok for c in workloads.check_ranking(enumerated, ranked))
    ranked.candidates.pop()
    assert not all(c.ok for c in workloads.check_ranking(enumerated, ranked))
    ranked.candidates[0].eval_loss = math.nan
    assert not all(c.ok for c in workloads.check_ranking(enumerated, ranked))


def test_mismatched_pruned_checkpoint_raises_error_rate(capsys, monkeypatch):
    honest = workloads.CompressCli.run

    def corrupted(self):
        output = honest(self)
        label = output["candidates"][0][0]
        shutil.copy(self.path("source.ckpt"), self.path(f"{label}.ckpt"))
        return output

    monkeypatch.setattr(workloads.CompressCli, "run", corrupted)
    result = bench(capsys, "compress-cli")
    assert result["correct"] is False
    assert result["failed"] == 1


def test_failed_cli_command_is_counted(tmp_path):
    cli = workloads.CompressCli(tiny=True)
    cli.setup(3, str(tmp_path))
    output = cli.run()
    output["search"] = workloads.run_cli(["eval", "--ckpt", str(tmp_path / "missing.ckpt"),
                                          "--data", cli.path("corpus.bin")])
    failed = [c for c in cli.verify([output]) if not c.ok]
    assert [c.name for c in failed] == ["eval exits 0 with one JSON line"]


def test_distill_checks_catch_rising_and_non_finite_loss():
    rising = [{"step": i, "loss_total": 1.0 + i, "loss_logits": 1.0 + i} for i in range(8)]
    assert not workloads._falling_logit_loss(rising).ok
    rising[3]["loss_total"] = math.inf
    assert not workloads._finite_steps(rising).ok
    falling = list(reversed(rising))
    assert workloads._falling_logit_loss(falling).ok


def test_self_time_subtracts_direct_children():
    recorded = [
        ["a", 0.0, 0.010, -1, 0],
        ["b", 0.002, 0.005, 0, 0],
        ["c", 0.003, 0.004, 1, 0],
    ]
    table = spans.aggregate(recorded)
    assert table["a"]["self_ms"] == pytest.approx(7.0)
    assert table["b"]["self_ms"] == pytest.approx(2.0)
    assert table["c"]["self_ms"] == pytest.approx(1.0)
    assert spans.has_ancestor(recorded, 2, "a")


def test_pieces_line_up_across_passes_and_keep_their_fastest():
    # Two passes of the same work: a piece, a step, then one candidate to
    # the end. The second pass is slower in its first piece only.
    passes = [
        {"start": 10.0, "wall_s": 4.0, "spans": [["step", 11.0, 11.5, -1, 0]]},
        {"start": 20.0, "wall_s": 5.0, "spans": [["step", 22.0, 22.5, -1, 0]]},
    ]
    cut = [list(zip(*run.cut_pass(p, [p["start"] + 2 + i]))) for i, p in enumerate(passes)]
    assert cut == [
        [(1.0, -1), (1.0, -1), (2.0, 0)],
        [(2.0, -1), (1.0, -1), (2.0, 0)],
    ]
    assert run.fastest([[p for p, _ in c] for c in cut]) == [1.0, 1.0, 2.0]
    assert run.fastest([[1.0, 2.0], [3.0], [0.5, 4.0]]) == [0.5, 2.0]


def test_tracer_wraps_every_lookup_site_and_restores():
    from trimformer import distill, importance, model

    original = model.forward
    with spans.Tracer(only={"model.forward"}):
        assert model.forward is not original
        assert distill.forward is model.forward is importance.forward
    assert model.forward is distill.forward is importance.forward is original


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "rank-toy", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
