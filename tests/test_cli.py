"""The CLI error contract: every malformed input fails with exit 1 and one
JSON error line on stderr naming a typed error, never a traceback."""

import json

import pytest

from trimformer import cli, errors
from trimformer.checkpoint import save_checkpoint
from trimformer.data import synthetic_markov_text
from trimformer.model import ModelConfig, build_model

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
