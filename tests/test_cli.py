"""The CLI: the pipeline recipe of the ``cli`` docstring end to end, and
the error contract: every malformed input fails with exit 1 and one JSON
error line on stderr naming a typed error, never a traceback."""

import json
import math
import struct

import pytest

from trimformer import cli, errors, model
from trimformer.checkpoint import load_checkpoint, save_checkpoint
from trimformer.data import ingest_text, sample_calibration, synthetic_markov_text
from trimformer.distill import conventional_loop
from trimformer.importance import compute_importance_report
from trimformer.model import ModelConfig, build_model, count_params, lm_loss
from trimformer.search import SearchSpace, enumerate_candidates

MODEL = dict(
    num_layers=2, d_model=16, num_heads=4, num_query_groups=2, d_head=4,
    d_hidden=32, vocab_size=257, max_seq_len=16,
)

# Each replaces keys of the fixture's space.json with values that are not
# integers >= 1 (layer bounds, head and embedding choices, query groups) or
# finite positive numbers (expansion factors).
SPACE_EDITS = {
    "float_layer_bound": {"layer_range": [1.5, 2]},
    "zero_head_choice": {"head_choices": [0]},
    "string_head_choice": {"head_choices": ["2"]},
    "string_embedding_choice": {"embedding_choices": ["16"]},
    "infinite_expansion_factor": {"mlp_expansion_factors": [math.inf]},
    "nan_expansion_factor": {"mlp_expansion_factors": [math.nan]},
    "overflowing_expansion_factor": {"mlp_expansion_factors": [1e308]},
    "overflowing_embedding_choice": {"embedding_choices": [10**400]},
    "embedding_choice_overflowing_the_count": {"embedding_choices": [10**200]},
    "zero_query_groups": {"num_query_groups": 0},
    "string_query_groups": {"num_query_groups": "2"},
}


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
        "triple_layer_map.json": {"distill": {"is_components": ["o"], "layer_map": [[1, 2, 3]]}},
        "string_top_k.json": {"distill": {"top_k": "5"}},
        "infinite_temperature.json": {"distill": {"temperature": math.inf}},
        "nan_alpha_const.json": {"distill": {"alpha_const": math.nan}},
        "infinite_alpha_const.json": {"distill": {"alpha_const": -math.inf}},
        "is_without_logits.json": {"distill": {"logit_loss": None, "is_components": ["emb"]}},
        "float_width.json": {"model": {**MODEL, "d_model": 16.0}},
        "string_steps.json": {"model": MODEL, "train": {"steps": "3"}},
        "zero_batch.json": {"model": MODEL, "train": {"steps": 1, "batch_size": 0}},
        "negative_steps.json": {"model": MODEL, "train": {"steps": -1}},
        "string_lr.json": {"model": MODEL, "train": {"steps": 1, "lr_max": "1e-3"}},
        "one_step.json": {"model": MODEL, "train": {"steps": 1, "batch_size": 2, "seq_len": 8}},
        "string_seq_len.json": {"model": MODEL, "train": {"steps": 1, "seq_len": "8"}},
        "string_tie.json": {
            "model": {**MODEL, "tie_embeddings": "false"},
            "train": {"steps": 1, "batch_size": 2, "seq_len": 8},
        },
        "space.json": {
            "layer_range": [1, 2], "head_choices": [2, 4], "mlp_expansion_factors": [2.0],
            "embedding_choices": [16], "d_head": 4, "vocab_size": 257,
            "num_query_groups": 2, "max_seq_len": 16,
        },
        "target.json": MODEL,
    }
    for name, value in SPACE_EDITS.items():
        files[f"space_{name}.json"] = {**files["space.json"], **value}
    for name, content in files.items():
        (d / name).write_text(json.dumps(content))
    (d / "garbled.json").write_text('{"model": {"num_layers": 2,')
    (d / "garbled_report.json").write_text("{not json")
    (d / "list.json").write_text("[1, 2]")
    raw = (d / "model.ckpt").read_bytes()
    (n,) = struct.unpack("<Q", raw[8:16])
    for name, edit in (
        ("no_offset", lambda h: h["tensors"][0].pop("offset")),
        ("tensors_object", lambda h: h.update(tensors={"a": 1})),
        ("int_shape", lambda h: h["tensors"][0].update(shape=5)),
        # Every tensor keeps its shape: 16 heads of width 1 in 8 groups.
        ("odd_d_head", lambda h: h["config"].update(num_heads=16, num_query_groups=8, d_head=1)),
    ):
        header = json.loads(raw[16 : 16 + n])
        edit(header)
        blob = json.dumps(header).encode()
        (d / f"{name}.ckpt").write_bytes(
            raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + n :]
        )
    (d / "odd.ids").write_bytes(bytes(7))
    (d / "odd.ids.json").write_text(json.dumps({"vocab_size": 257, "documents": []}))
    calib = sample_calibration(ingest_text(str(d / "corpus.txt")), 2, 8, 0)
    report = json.loads(compute_importance_report(
        load_checkpoint(str(d / "model.ckpt")), calib, include_ppl=False, include_bi=False
    ).to_json())
    report["neuron_scores"][0][0] = "high"
    (d / "string_score.json").write_text(json.dumps(report))
    report["neuron_scores"][0][0] = "1.5"
    (d / "numeric_string_score.json").write_text(json.dumps(report))
    report["neuron_scores"][0][0] = math.nan
    (d / "nan_score.json").write_text(json.dumps(report))
    report["neuron_scores"][0][0] = 0.0
    report["block_bi"] = [{"start": "zero", "length": 1, "score": "high"}]
    (d / "string_block_bi.json").write_text(json.dumps(report))
    report["block_bi"] = []
    report["aggregation"]["batch_fn"] = "bogus"
    (d / "bogus_aggregation.json").write_text(json.dumps(report))
    (d / "narrow_target.json").write_text(json.dumps({**MODEL, "d_hidden": 16}))
    space = SearchSpace.from_dict(files["space.json"])
    manifest = json.loads(enumerate_candidates(space, 10000, 0.5).to_json())
    manifest["assumptions"]["budget"] = math.inf
    (d / "inf_budget.json").write_text(json.dumps(manifest))
    # Two one-block candidates that model.ckpt prunes to with --remove-layers 1.
    manifest["assumptions"]["budget"] = 10000
    shallow = ModelConfig(**{**MODEL, "num_layers": 1})
    counts = count_params(shallow)
    first, second = ({
        "label": label, "config": shallow.to_dict(), "total_params": counts.total,
        "non_embedding_params": counts.non_embedding, "eval_loss": 1.0,
        "eval_trajectory": [[0, 1.0]],
    } for label in ("first", "second"))
    manifest["candidates"] = [first, second]
    for name, edit in (
        ("string_eval_loss", {"eval_loss": "low"}),
        ("nan_eval_loss", {"eval_loss": math.nan}),
        ("wrong_total_params", {"eval_loss": 1.0, "total_params": counts.total + 1}),
        ("repeated_label", {"total_params": counts.total, "label": "second"}),
    ):
        first.update(edit)
        (d / f"{name}.json").write_text(json.dumps(manifest))
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
    "train_lr_max_nan": (
        "train --config {d}/one_step.json --data {d}/corpus.txt --out {d}/o.ckpt --lr-max nan",
        "ConfigError",
    ),
    "train_eval_every_negative": (
        "train --config {d}/one_step.json --data {d}/corpus.txt --out {d}/o.ckpt "
        "--eval-every -1",
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
    "remove_layers_at_kept_depth": (
        "prune --ckpt {d}/model.ckpt --target {d}/target.json --remove-layers 1 "
        "--out {d}/o.ckpt",
        "PruneError",
    ),
    "unknown_distill_config_key": (
        "distill --teacher {d}/model.ckpt --student {d}/model.ckpt "
        "--config {d}/bad_distill.json --data {d}/corpus.txt --out {d}/o.ckpt",
        "ConfigError",
    ),
    "distill_layer_map_pair_of_three": (
        "distill --teacher {d}/model.ckpt --student {d}/model.ckpt "
        "--config {d}/triple_layer_map.json --data {d}/corpus.txt --out {d}/o.ckpt",
        "ConfigError",
    ),
    "distill_top_k_a_string": (
        "distill --teacher {d}/model.ckpt --student {d}/model.ckpt "
        "--config {d}/string_top_k.json --data {d}/corpus.txt --out {d}/o.ckpt",
        "ConfigError",
    ),
    "distill_temperature_infinite": (
        "distill --teacher {d}/model.ckpt --student {d}/model.ckpt "
        "--config {d}/infinite_temperature.json --data {d}/corpus.txt --out {d}/o.ckpt",
        "ConfigError",
    ),
    "distill_alpha_const_nan": (
        "distill --teacher {d}/model.ckpt --student {d}/model.ckpt "
        "--config {d}/nan_alpha_const.json --data {d}/corpus.txt --out {d}/o.ckpt",
        "ConfigError",
    ),
    "distill_alpha_const_infinite": (
        "distill --teacher {d}/model.ckpt --student {d}/model.ckpt "
        "--config {d}/infinite_alpha_const.json --data {d}/corpus.txt --out {d}/o.ckpt",
        "ConfigError",
    ),
    "distill_dynamic_alpha_without_logit_loss": (
        "distill --teacher {d}/model.ckpt --student {d}/model.ckpt "
        "--config {d}/is_without_logits.json --data {d}/corpus.txt --out {d}/o.ckpt",
        "ConfigError",
    ),
    "eval_zero_samples": (
        "eval --ckpt {d}/model.ckpt --data {d}/corpus.txt --samples 0",
        "DataError",
    ),
    "importance_zero_samples": (
        "importance --ckpt {d}/model.ckpt --data {d}/corpus.txt --out {d}/r.json "
        "--samples 0",
        "DataError",
    ),
    "importance_zero_seq_len": (
        "importance --ckpt {d}/model.ckpt --data {d}/corpus.txt --out {d}/r.json "
        "--seq-len 0",
        "DataError",
    ),
    "checkpoint_entry_without_offset": (
        "eval --ckpt {d}/no_offset.ckpt --data {d}/corpus.txt",
        "CheckpointError",
    ),
    "checkpoint_directory_an_object": (
        "eval --ckpt {d}/tensors_object.ckpt --data {d}/corpus.txt",
        "CheckpointError",
    ),
    "checkpoint_shape_an_integer": (
        "eval --ckpt {d}/int_shape.ckpt --data {d}/corpus.txt",
        "CheckpointError",
    ),
    "checkpoint_config_odd_d_head": (
        "eval --ckpt {d}/odd_d_head.ckpt --data {d}/corpus.txt",
        "CheckpointError",
    ),
    "dataset_ids_not_whole_uint32": (
        "eval --ckpt {d}/model.ckpt --data {d}/odd.ids",
        "DataError",
    ),
    "report_score_a_string": (
        "prune --ckpt {d}/model.ckpt --report {d}/string_score.json "
        "--target {d}/narrow_target.json --out {d}/o.ckpt",
        "DataError",
    ),
    "report_block_bi_strings": (
        "prune --ckpt {d}/model.ckpt --report {d}/string_block_bi.json "
        "--target {d}/narrow_target.json --out {d}/o.ckpt",
        "DataError",
    ),
    "report_unknown_aggregation": (
        "prune --ckpt {d}/model.ckpt --report {d}/bogus_aggregation.json "
        "--target {d}/narrow_target.json --out {d}/o.ckpt",
        "DataError",
    ),
    "report_score_a_numeric_string": (
        "prune --ckpt {d}/model.ckpt --report {d}/numeric_string_score.json "
        "--target {d}/narrow_target.json --out {d}/o.ckpt",
        "DataError",
    ),
    "report_score_nan": (
        "prune --ckpt {d}/model.ckpt --report {d}/nan_score.json "
        "--target {d}/narrow_target.json --out {d}/o.ckpt",
        "DataError",
    ),
    "candidates_budget_infinity": (
        "prune --ckpt {d}/model.ckpt --candidates {d}/inf_budget.json --pick L1-H2-M128-E16 "
        "--out {d}/o.ckpt",
        "DataError",
    ),
    "candidates_eval_loss_a_string": (
        "prune --ckpt {d}/model.ckpt --candidates {d}/string_eval_loss.json "
        "--remove-layers 1 --out {d}/o.ckpt",
        "DataError",
    ),
    "candidates_eval_loss_nan": (
        "prune --ckpt {d}/model.ckpt --candidates {d}/nan_eval_loss.json "
        "--remove-layers 1 --out {d}/o.ckpt",
        "DataError",
    ),
    "candidates_total_params_wrong": (
        "prune --ckpt {d}/model.ckpt --candidates {d}/wrong_total_params.json "
        "--remove-layers 1 --out {d}/o.ckpt",
        "DataError",
    ),
    "candidates_label_repeated": (
        "prune --ckpt {d}/model.ckpt --candidates {d}/repeated_label.json --pick second "
        "--out {d}/o.ckpt",
        "DataError",
    ),
    "model_tie_embeddings_a_string": (
        "train --config {d}/string_tie.json --data {d}/corpus.txt --out {d}/o.ckpt",
        "ConfigError",
    ),
    "search_budget_inf": (
        "search --space {d}/space.json --budget inf --tolerance 0.1 --out {d}/c.json",
        "SearchError",
    ),
    "search_budget_nan": (
        "search --space {d}/space.json --budget nan --tolerance 0.1 --out {d}/c.json",
        "SearchError",
    ),
    "search_space_missing_keys": (
        "search --space {d}/bad_space.json --budget 1000 --tolerance 0.1 --out {d}/c.json",
        "SearchError",
    ),
}
# The seed is checked once, before any command runs, so every command rejects
# a negative one the same way.
for _command, _argv in {
    "train": "--config {d}/one_step.json --data {d}/corpus.txt --out {d}/o.ckpt",
    "importance": "--ckpt {d}/model.ckpt --data {d}/corpus.txt --out {d}/r.json",
    "prune": "--ckpt {d}/model.ckpt --target {d}/target.json --out {d}/o.ckpt",
    "search": "--space {d}/space.json --budget 1000 --tolerance 0.1 --out {d}/c.json",
    "distill": "--teacher {d}/model.ckpt --student {d}/model.ckpt --data {d}/corpus.txt "
               "--out {d}/o.ckpt",
    "eval": "--ckpt {d}/model.ckpt --data {d}/corpus.txt",
}.items():
    CASES[f"{_command}_negative_seed"] = (f"{_command} {_argv} --seed -1", "ConfigError")
for _name in SPACE_EDITS:
    CASES[f"search_space_{_name}"] = (
        f"search --space {{d}}/space_{_name}.json --budget 1000 --tolerance 0.1 "
        "--out {d}/c.json",
        "SearchError",
    )


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


@pytest.mark.parametrize("argv", [
    "eval --ckpt m.ckpt --data c.txt",
    "importance --ckpt m.ckpt --data c.txt --out r.json",
    "prune --ckpt m.ckpt --out o.ckpt",
    "search --space s.json --budget 1 --tolerance 0.1 --out c.json",
])
def test_metrics_flag_is_rejected_where_nothing_is_trained(argv, capsys):
    with pytest.raises(SystemExit) as e:
        cli.build_parser().parse_args(argv.split() + ["--metrics", "m.jsonl"])
    assert e.value.code == 2
    assert "unrecognized arguments: --metrics" in capsys.readouterr().err


def _run_each(commands, capsys) -> list[dict]:
    """Run each command line; each must exit 0 with one JSON line naming its
    command and nothing on stderr. Returns those lines."""
    lines = []
    for argv in commands:
        assert cli.main(argv.split()) == 0, argv
        out, err = capsys.readouterr()
        assert len(out.splitlines()) == 1 and err == "", (argv, out, err)
        lines.append(json.loads(out))
        assert lines[-1]["command"] == argv.split()[0]
    return lines


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
        "distill --teacher {d}/model.ckpt --student {d}/pruned.ckpt "
        "--config {d}/retrain.json --steps 2 --out {d}/student.ckpt "
        "--metrics {d}/distill.jsonl " + data,
        "eval --ckpt {d}/student.ckpt --samples 4 --seq-len 8 " + data,
    ]
    _run_each([argv.format(d=d) for argv in commands], capsys)

    corpus = ingest_text(str(d / "corpus.txt"), seed=1)
    _, want = conventional_loop(build_model(ModelConfig(**model), seed=1), corpus, seed=1, **train)
    got = [json.loads(line) for line in (d / "train.jsonl").read_text().splitlines()]
    assert got == want
    # --steps 2 beats the config's 5; the config's batch_size and seq_len hold.
    retrain = [json.loads(line) for line in (d / "distill.jsonl").read_text().splitlines()]
    assert [m["tokens"] for m in retrain] == [16, 32]


def test_distill_from_a_zero_layer_teacher(workdir, tmp_path, capsys):
    """A 0-layer teacher is a valid config: no depth ratio is taken from it."""
    empty = build_model(ModelConfig(**{**MODEL, "num_layers": 0}), seed=0)
    save_checkpoint(empty, str(tmp_path / "empty.ckpt"))
    argv = (f"distill --teacher {tmp_path}/empty.ckpt --student {tmp_path}/empty.ckpt "
            f"--data {workdir}/corpus.txt --out {tmp_path}/s.ckpt "
            "--steps 1 --batch-size 2 --seq-len 8")
    assert cli.main(argv.split()) == 0
    line = json.loads(capsys.readouterr().out)
    assert line["distill_config"]["is_components"] == []
    assert load_checkpoint(str(tmp_path / "s.ckpt")).config.num_layers == 0


@pytest.mark.parametrize("student, distill, components, layer_map", [
    ({"num_layers": 1}, None, ["emb", "o"], [[0, 0]]),
    ({"num_layers": 1}, {"is_components": []}, [], []),
    ({"num_layers": 1}, {"layer_map": [[1, 0]]}, ["emb", "o"], [[1, 0]]),
    ({"d_hidden": 16}, None, [], []),
])
def test_distill_adds_intermediate_terms_on_a_deep_cut(
        student, distill, components, layer_map, workdir, tmp_path, capsys):
    """A student keeping fewer than 3/4 of the teacher's 2 blocks gets the
    emb/o terms at the config's layer_map or the default one, unless the
    config names is_components; a width-only student does not."""
    # Seeded apart from the teacher, so no mapped state starts equal to its own.
    save_checkpoint(build_model(ModelConfig(**{**MODEL, **student}), seed=1),
                    str(tmp_path / "student.ckpt"))
    argv = (f"distill --teacher {workdir}/model.ckpt --student {tmp_path}/student.ckpt "
            f"--data {workdir}/corpus.txt --out {tmp_path}/s.ckpt --metrics {tmp_path}/m.jsonl "
            "--steps 2 --batch-size 2 --seq-len 8")
    if distill is not None:
        (tmp_path / "exp.json").write_text(json.dumps({"distill": distill}))
        argv += f" --config {tmp_path}/exp.json"
    assert cli.main(argv.split()) == 0
    line = json.loads(capsys.readouterr().out)
    assert line["distill_config"]["is_components"] == components
    assert line["distill_config"]["layer_map"] == layer_map
    metrics = [json.loads(m) for m in (tmp_path / "m.jsonl").read_text().splitlines()]
    assert all((m["loss_is"] > 0) == bool(components) for m in metrics), metrics


def test_chained_compression_through_the_cli(workdir, tmp_path, capsys):
    """Compress twice, as the paper prunes 15B to 8B and 8B to 4B: the
    second importance report and prune read an already-distilled model."""
    d, w = tmp_path, workdir
    (d / "width.json").write_text(json.dumps({**MODEL, "d_hidden": 16}))
    (d / "depth.json").write_text(json.dumps({**MODEL, "d_hidden": 16, "num_layers": 1}))
    small = "--steps 2 --batch-size 2 --seq-len 8"
    commands = [
        f"importance --ckpt {w}/model.ckpt --data {w}/corpus.txt --out {d}/r1.json "
        "--samples 4 --seq-len 8",
        f"prune --ckpt {w}/model.ckpt --report {d}/r1.json --target {d}/width.json "
        f"--out {d}/p1.ckpt",
        f"distill --teacher {w}/model.ckpt --student {d}/p1.ckpt --data {w}/corpus.txt "
        f"--out {d}/s1.ckpt {small}",
        f"importance --ckpt {d}/s1.ckpt --data {w}/corpus.txt --out {d}/r2.json "
        "--samples 4 --seq-len 8",
        f"prune --ckpt {d}/s1.ckpt --report {d}/r2.json --target {d}/depth.json "
        f"--out {d}/p2.ckpt",
        f"distill --teacher {d}/s1.ckpt --student {d}/p2.ckpt --data {w}/corpus.txt "
        f"--out {d}/s2.ckpt {small}",
    ]
    assert _run_each(commands, capsys)[-1]["distill_config"]["is_components"] == ["emb", "o"]
    assert load_checkpoint(str(d / "s2.ckpt")).config == ModelConfig(**json.loads(
        (d / "depth.json").read_text()))


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
    loss = lm_loss(load_checkpoint(str(workdir / "model.ckpt")), batch).item()
    assert line["perplexity"] == math.exp(loss)


def _warning_lines(code, capsys) -> list[dict]:
    """Exit 0 with one JSON line on stdout; every stderr line is JSON.
    Returns the stderr lines."""
    out, err = capsys.readouterr()
    assert code == 0, err
    assert len(out.splitlines()) == 1
    json.loads(out)
    return [json.loads(line) for line in err.splitlines()]


def test_search_warns_in_json_when_no_candidate_fits(workdir, capsys):
    argv = (f"search --space {workdir}/space.json --budget 1 --tolerance 0.1 "
            f"--out {workdir}/empty_cands.json")
    assert _warning_lines(cli.main(argv.split()), capsys) == [
        {"warning": "UserWarning", "message": "no feasible candidates inside the budget window"}
    ]


def test_distill_warns_in_json_once_per_distinct_message(workdir, tmp_path, capsys):
    """A depth cut built at the teacher's seed has its mapped states equal
    up to rounding, and at learning rate 0 it keeps them, so dynamic alpha is
    forced to 0 on both steps; the two warnings print as one JSON line."""
    save_checkpoint(build_model(ModelConfig(**{**MODEL, "num_layers": 1}), seed=0),
                    str(tmp_path / "student.ckpt"))
    argv = (f"distill --teacher {workdir}/model.ckpt --student {tmp_path}/student.ckpt "
            f"--data {workdir}/corpus.txt --out {tmp_path}/s.ckpt --metrics {tmp_path}/m.jsonl "
            "--steps 2 --batch-size 2 --seq-len 8 --lr-max 0 --lr-min 0")
    assert _warning_lines(cli.main(argv.split()), capsys) == [{
        "warning": "UserWarning",
        "message": "L_is is not above epsilon; dynamic alpha forced to 0 this step",
    }]
    metrics = [json.loads(m) for m in (tmp_path / "m.jsonl").read_text().splitlines()]
    assert [m["alpha"] for m in metrics] == [0.0, 0.0]


def test_distill_config_without_a_layer_map_fails_before_any_output(workdir, tmp_path, capsys):
    (tmp_path / "exp.json").write_text(json.dumps({"distill": {"is_components": ["o"]}}))
    argv = (f"distill --teacher {workdir}/model.ckpt --student {workdir}/model.ckpt "
            f"--data {workdir}/corpus.txt --out {tmp_path}/s.ckpt --metrics {tmp_path}/m.jsonl "
            f"--config {tmp_path}/exp.json --steps 1 --batch-size 2 --seq-len 8")
    assert cli.main(argv.split()) == 1
    out, err = capsys.readouterr()
    assert out == ""
    (line,) = err.splitlines()
    assert json.loads(line)["error"] == "ConfigError"
    assert "layer_map" in json.loads(line)["message"]
    assert not (tmp_path / "s.ckpt").exists() and not (tmp_path / "m.jsonl").exists()


@pytest.mark.parametrize("command, edit, error", [
    ("distill", {"student": {"vocab_size": 300}}, "ShapeError"),
    ("distill", {"flags": "--seq-len 32"}, "DataError"),
    ("train", {"flags": "--seq-len 32"}, "DataError"),
    ("distill", {"distill": {"is_components": ["o"], "layer_map": [[9, 9]]}}, "ConfigError"),
])
def test_a_run_failing_at_its_first_step_leaves_no_files(
        command, edit, error, workdir, tmp_path, capsys):
    """Neither --metrics nor --out is written when step 0 never completes:
    a student of another vocabulary, a sequence past max_seq_len (16), or a
    layer map past both models' 2 blocks."""
    save_checkpoint(build_model(ModelConfig(**{**MODEL, **edit.get("student", {})}), seed=1),
                    str(tmp_path / "student.ckpt"))
    (tmp_path / "exp.json").write_text(json.dumps(
        {"model": MODEL, "distill": edit.get("distill", {"logit_loss": "kld"})}))
    models = (f"--teacher {workdir}/model.ckpt --student {tmp_path}/student.ckpt"
              if command == "distill" else "")
    argv = (f"{command} {models} --config {tmp_path}/exp.json --data {workdir}/corpus.txt "
            f"--out {tmp_path}/s.ckpt --metrics {tmp_path}/m.jsonl --steps 2 --batch-size 2 "
            + edit.get("flags", "--seq-len 8"))
    assert cli.main(argv.split()) == 1
    out, err = capsys.readouterr()
    (line,) = err.splitlines()
    assert out == "" and json.loads(line)["error"] == error
    assert not (tmp_path / "s.ckpt").exists() and not (tmp_path / "m.jsonl").exists()
