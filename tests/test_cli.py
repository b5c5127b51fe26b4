"""The CLI: the pipeline recipe of the ``cli`` docstring end to end, and
the error contract: every malformed input fails with exit 1 and one JSON
error line on stderr naming a typed error, never a traceback."""

import json
import math

import pytest

from trimformer import cli, errors, model
from trimformer.checkpoint import load_checkpoint, save_checkpoint
from trimformer.data import ingest_text, sample_calibration, synthetic_markov_text
from trimformer.distill import conventional_loop
from trimformer.model import ModelConfig, build_model, perplexity

MODEL = dict(
    num_layers=2, d_model=16, num_heads=4, num_query_groups=2, d_head=4,
    d_hidden=32, vocab_size=257, max_seq_len=16,
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    (d / "corpus.txt").write_text(synthetic_markov_text(n_docs=20, doc_len=80, seed=0))
    save_checkpoint(build_model(ModelConfig(**MODEL), seed=0), str(d / "model.ckpt"))
    files = {
        "no_model.json": {"train": {"steps": 1}},
        "unknown_key.json": {"model": {**MODEL, "num_experts": 4}},
        "bad_distill.json": {"distill": {"logit_loss": "kld", "bogus": 1}},
        "bad_space.json": {"layer_range": [1, 2], "d_head": 4},
        "train_list.json": {"model": MODEL, "train": [1]},
        "train_typo.json": {"model": MODEL, "train": {"stepz": 1}},
        "distill_list.json": {"distill": ["kld"]},
        "float_width.json": {"model": {**MODEL, "d_model": 16.0}},
        "string_steps.json": {"model": MODEL, "train": {"steps": "3"}},
        "zero_batch.json": {"model": MODEL, "train": {"steps": 1, "batch_size": 0}},
        "negative_steps.json": {"model": MODEL, "train": {"steps": -1}},
        "string_lr.json": {"model": MODEL, "train": {"steps": 1, "lr_max": "1e-3"}},
        "string_seq_len.json": {"model": MODEL, "train": {"steps": 1, "seq_len": "8"}},
        "target.json": MODEL,
    }
    for name, content in files.items():
        (d / name).write_text(json.dumps(content))
    (d / "garbled.json").write_text('{"model": {"num_layers": 2,')
    (d / "garbled_report.json").write_text("{not json")
    (d / "list.json").write_text("[1, 2]")
    return d


CASES = {
    "train_config_without_model_section": (
        "train --config {d}/no_model.json --data {d}/corpus.txt --out {d}/o.ckpt",
        "ConfigError",
    ),
    "unknown_model_config_key": (
        "train --config {d}/unknown_key.json --data {d}/corpus.txt --out {d}/o.ckpt",
        "ConfigError",
    ),
    "unparseable_config_json": (
        "train --config {d}/garbled.json --data {d}/corpus.txt --out {d}/o.ckpt",
        "ConfigError",
    ),
    "config_json_not_an_object": (
        "train --config {d}/list.json --data {d}/corpus.txt --out {d}/o.ckpt",
        "ConfigError",
    ),
    "train_section_not_an_object": (
        "train --config {d}/train_list.json --data {d}/corpus.txt --out {d}/o.ckpt",
        "ConfigError",
    ),
    "unknown_train_key": (
        "train --config {d}/train_typo.json --data {d}/corpus.txt --out {d}/o.ckpt",
        "ConfigError",
    ),
    "model_width_not_an_integer": (
        "train --config {d}/float_width.json --data {d}/corpus.txt --out {d}/o.ckpt",
        "ConfigError",
    ),
    "train_steps_a_string": (
        "train --config {d}/string_steps.json --data {d}/corpus.txt --out {d}/o.ckpt",
        "ConfigError",
    ),
    "train_batch_size_zero": (
        "train --config {d}/zero_batch.json --data {d}/corpus.txt --out {d}/o.ckpt",
        "ConfigError",
    ),
    "train_steps_negative": (
        "train --config {d}/negative_steps.json --data {d}/corpus.txt --out {d}/o.ckpt",
        "ConfigError",
    ),
    "train_lr_a_string": (
        "train --config {d}/string_lr.json --data {d}/corpus.txt --out {d}/o.ckpt",
        "ConfigError",
    ),
    "train_seq_len_a_string_with_eval": (
        "train --config {d}/string_seq_len.json --data {d}/corpus.txt --out {d}/o.ckpt "
        "--eval-every 1 --seed 3",
        "ConfigError",
    ),
    "distill_section_not_an_object": (
        "distill --teacher {d}/model.ckpt --student {d}/model.ckpt "
        "--config {d}/distill_list.json --data {d}/corpus.txt --out {d}/o.ckpt",
        "ConfigError",
    ),
    "unparseable_report_json": (
        "prune --ckpt {d}/model.ckpt --report {d}/garbled_report.json "
        "--target {d}/target.json --out {d}/o.ckpt",
        "DataError",
    ),
    "block_bi_not_start_length": (
        "importance --ckpt {d}/model.ckpt --data {d}/corpus.txt --out {d}/r.json "
        "--block-bi zz",
        "ConfigError",
    ),
    "block_bi_three_fields": (
        "importance --ckpt {d}/model.ckpt --data {d}/corpus.txt --out {d}/r.json "
        "--block-bi 0:1:2",
        "ConfigError",
    ),
    "remove_layers_not_integers": (
        "prune --ckpt {d}/model.ckpt --target {d}/target.json --remove-layers a,b "
        "--out {d}/o.ckpt",
        "ConfigError",
    ),
    "unknown_distill_config_key": (
        "distill --teacher {d}/model.ckpt --student {d}/model.ckpt "
        "--config {d}/bad_distill.json --data {d}/corpus.txt --out {d}/o.ckpt",
        "ConfigError",
    ),
    "search_space_missing_keys": (
        "search --space {d}/bad_space.json --budget 1000 --tolerance 0.1 --out {d}/c.json",
        "SearchError",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_malformed_input_gives_one_json_error_line(case, workdir, capsys):
    argv, error = CASES[case]
    code = cli.main(argv.format(d=workdir).split())
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1, err
    payload = json.loads(lines[0])
    assert payload["error"] == error
    assert issubclass(getattr(errors, error), errors.TrimformerError)
    assert payload["message"]


def test_pipeline_recipe_end_to_end(tmp_path, capsys):
    """train -> importance -> search --rank -> prune -> distill -> eval on a
    tiny model, two training steps per run."""
    d = tmp_path
    (d / "corpus.txt").write_text(synthetic_markov_text(n_docs=40, doc_len=80, seed=0))
    model = {**MODEL, "d_hidden": 128}  # candidate MLP widths snap to 128
    train = {"steps": 2, "batch_size": 2, "seq_len": 8}
    (d / "exp.json").write_text(json.dumps({"model": model, "train": train}))
    (d / "retrain.json").write_text(json.dumps({"train": {**train, "steps": 5}}))
    (d / "space.json").write_text(json.dumps({
        "layer_range": [1, 2], "head_choices": [2, 4], "mlp_expansion_factors": [8.0],
        "embedding_choices": [8, 16], "d_head": 4, "vocab_size": 257,
        "num_query_groups": 2, "max_seq_len": 16,
    }))
    data = "--data {d}/corpus.txt --seed 1"
    commands = [
        "train --config {d}/exp.json --out {d}/model.ckpt --metrics {d}/train.jsonl " + data,
        "importance --ckpt {d}/model.ckpt --out {d}/report.json --samples 8 --seq-len 8 " + data,
        "search --space {d}/space.json --budget 6500 --tolerance 0.2 --out {d}/cands.json "
        "--rank --ckpt {d}/model.ckpt --report {d}/report.json --steps 2 --seq-len 8 " + data,
        "prune --ckpt {d}/model.ckpt --report {d}/report.json --candidates {d}/cands.json "
        "--out {d}/pruned.ckpt",
        "distill --teacher {d}/model.ckpt --candidates {d}/cands.json --report {d}/report.json "
        "--config {d}/retrain.json --steps 2 --out {d}/student.ckpt "
        "--metrics {d}/distill.jsonl " + data,
        "eval --ckpt {d}/student.ckpt --samples 4 --seq-len 8 " + data,
    ]
    for argv in commands:
        assert cli.main(argv.format(d=d).split()) == 0, argv
        out, err = capsys.readouterr()
        lines = out.splitlines()
        assert len(lines) == 1 and err == "", (argv, out, err)
        assert json.loads(lines[0])["command"] == argv.split()[0]

    corpus = ingest_text(str(d / "corpus.txt"), seed=1)
    _, want = conventional_loop(build_model(ModelConfig(**model), seed=1), corpus, seed=1, **train)
    got = [json.loads(line) for line in (d / "train.jsonl").read_text().splitlines()]
    assert got == want
    # --steps 2 beats the config's 5; the config's batch_size and seq_len hold.
    retrain = [json.loads(line) for line in (d / "distill.jsonl").read_text().splitlines()]
    assert [m["tokens"] for m in retrain] == [16, 32]


def test_eval_runs_one_forward(workdir, capsys, monkeypatch):
    calls = []
    real_forward = model.forward

    def counting_forward(*args, **kw):
        calls.append(1)
        return real_forward(*args, **kw)

    monkeypatch.setattr(model, "forward", counting_forward)
    argv = (f"eval --ckpt {workdir}/model.ckpt --data {workdir}/corpus.txt "
            "--samples 4 --seq-len 8 --split train")
    assert cli.main(argv.split()) == 0
    assert len(calls) == 1
    line = json.loads(capsys.readouterr().out)
    assert line["perplexity"] == math.exp(line["lm_loss"])
    batch = sample_calibration(ingest_text(str(workdir / "corpus.txt"), seed=0), 4, 8, 0)
    assert line["perplexity"] == perplexity(load_checkpoint(str(workdir / "model.ckpt")), batch)
