import json
import os
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trimformer.checkpoint import load_checkpoint, save_checkpoint
from trimformer.data import (
    DOC_SEPARATOR,
    TokenDataset,
    ingest_text,
    sample_batch,
    sample_calibration,
    synthetic_markov_text,
)
from trimformer.errors import CheckpointError, DataError
from trimformer.importance import compute_importance_report
from trimformer.model import ModelConfig, _layer_param_shapes, build_model, forward
from trimformer.search import SearchSpace, enumerate_candidates


def small_config(**kw):
    base = dict(
        num_layers=2, d_model=16, num_heads=4, num_query_groups=2, d_head=4,
        d_hidden=32, vocab_size=19, max_seq_len=16,
    )
    base.update(kw)
    return ModelConfig(**base)


# ---------------------------------------------------------------- ingestion


def test_ingest_byte_values(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("ab")
    ds = ingest_text(str(path))
    assert ds.ids[:2].tolist() == [97, 98]
    assert ds.ids[2] == DOC_SEPARATOR
    assert ds.vocab_size == 257


def test_ingest_documents_and_split_determinism(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text(synthetic_markov_text(50, 80, seed=1))
    a = ingest_text(str(path), seed=4)
    b = ingest_text(str(path), seed=4)
    assert [d.split for d in a.documents] == [d.split for d in b.documents]
    c = ingest_text(str(path), seed=5)
    assert [d.split for d in a.documents] != [d.split for d in c.documents]
    assert {d.split for d in a.documents} == {"train", "val"}


def test_ingest_token_count_matches_byte_count(tmp_path):
    text = "hello world\n\nsecond doc here\n\nthird"
    path = tmp_path / "t.txt"
    path.write_text(text)
    ds = ingest_text(str(path))
    docs = [d for d in text.encode().split(b"\n\n") if d.strip()]
    assert len(ds.ids) == sum(len(d) for d in docs) + len(docs)  # + separators


def test_ingest_empty_fails(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("\n\n\n")
    with pytest.raises(DataError):
        ingest_text(str(path))


def test_dataset_roundtrip(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text(synthetic_markov_text(10, 50, seed=2))
    ds = ingest_text(str(path))
    out = tmp_path / "corpus.tokens"
    ds.save(str(out))
    loaded = TokenDataset.load(str(out))
    assert np.array_equal(loaded.ids, ds.ids)
    assert loaded.documents == ds.documents
    assert loaded.vocab_size == ds.vocab_size
    raw = out.read_bytes()
    assert np.array_equal(np.frombuffer(raw, dtype="<u4"), ds.ids)


MANIFEST_EDITS = {
    "end_past_eof": lambda m, n: m["documents"][0].update(end=n + 50),
    "inverted_span": lambda m, n: m["documents"][1].update(start=30, end=10),
    "negative_start": lambda m, n: m["documents"][0].update(start=-1),
    "missing_end": lambda m, n: m["documents"][0].pop("end"),
    "missing_split": lambda m, n: m["documents"][0].pop("split"),
    "missing_vocab_size": lambda m, n: m.pop("vocab_size"),
    "missing_documents": lambda m, n: m.pop("documents"),
}


@pytest.mark.parametrize("edit", sorted(MANIFEST_EDITS))
def test_dataset_load_rejects_bad_manifest(tmp_path, edit):
    path = tmp_path / "t.txt"
    path.write_text(synthetic_markov_text(10, 50, seed=2))
    out = str(tmp_path / "corpus.tokens")
    ds = ingest_text(str(path))
    ds.save(out)
    manifest_path = tmp_path / "corpus.tokens.json"
    manifest = json.loads(manifest_path.read_text())
    MANIFEST_EDITS[edit](manifest, len(ds))
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(DataError):
        TokenDataset.load(out)


def test_dataset_load_rejects_unparseable_manifest(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text(synthetic_markov_text(10, 50, seed=2))
    out = str(tmp_path / "corpus.tokens")
    ingest_text(str(path)).save(out)
    (tmp_path / "corpus.tokens.json").write_text('{"vocab_size": 257, "docu')
    with pytest.raises(DataError):
        TokenDataset.load(out)


def test_dataset_rejects_out_of_vocab():
    with pytest.raises(DataError):
        TokenDataset(np.array([0, 300], dtype=np.uint32), 257, [])


# ---------------------------------------------------------------- sampling


def test_calibration_single_window(corpus):
    batch = sample_calibration(corpus, n=1, seq_len=24, seed=0)
    assert batch.shape == (1, 24)
    assert batch.max() < corpus.vocab_size


def test_calibration_seeded_identity(corpus):
    a = sample_calibration(corpus, n=8, seq_len=16, seed=9)
    b = sample_calibration(corpus, n=8, seq_len=16, seed=9)
    assert np.array_equal(a, b)


def test_calibration_distinct_seeds_differ(corpus):
    # Over 100 seed pairs, identical draws should essentially never happen.
    collisions = sum(
        int(
            np.array_equal(
                sample_calibration(corpus, 4, 16, seed=s),
                sample_calibration(corpus, 4, 16, seed=1000 + s),
            )
        )
        for s in range(100)
    )
    assert collisions == 0


def test_calibration_without_replacement_and_insufficient():
    from trimformer.data import DocSpan

    ids = np.arange(40, dtype=np.uint32)
    ds = TokenDataset(ids, 257, [DocSpan(0, 40, "train")])
    batch = sample_calibration(ds, n=21, seq_len=20, seed=0)
    starts = sorted(int(row[0]) for row in batch)
    assert len(set(starts)) == 21  # all distinct start offsets
    with pytest.raises(DataError):
        sample_calibration(ds, n=22, seq_len=20, seed=0)


def test_sample_batch_shapes(corpus, rng):
    batch = sample_batch(corpus, rng, batch_size=5, seq_len=12)
    assert batch.shape == (5, 12)


# ---------------------------------------------------------------- checkpoints


def test_checkpoint_roundtrip_bit_identical(tmp_path):
    m = build_model(small_config(), seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(m, str(path))
    loaded = load_checkpoint(str(path))
    assert loaded.config == m.config
    for name in m.params:
        assert np.array_equal(loaded.params[name].data, m.params[name].data)
    # save -> load -> save produces byte-identical files
    path2 = tmp_path / "model2.ckpt"
    save_checkpoint(loaded, str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_roundtrip_preserves_forward(tmp_path):
    m = build_model(small_config(), seed=1)
    path = tmp_path / "model.ckpt"
    save_checkpoint(m, str(path))
    loaded = load_checkpoint(str(path))
    toks = np.random.default_rng(0).integers(0, 19, size=(2, 8))
    a, _ = forward(m, toks)
    b, _ = forward(loaded, toks)
    assert np.array_equal(a.data, b.data)


def test_checkpoint_header_directory_matches_shape_walk(tmp_path):
    cfg = small_config(tie_embeddings=True)
    m = build_model(cfg, seed=2)
    path = tmp_path / "model.ckpt"
    save_checkpoint(m, str(path))
    raw = path.read_bytes()
    (header_len,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16 : 16 + header_len])
    directory = {e["name"]: tuple(e["shape"]) for e in header["tensors"]}
    assert directory == dict(_layer_param_shapes(cfg))
    offsets = [e["offset"] for e in header["tensors"]]
    sizes = [4 * int(np.prod(e["shape"])) for e in header["tensors"]]
    assert offsets == list(np.cumsum([0] + sizes[:-1]))
    assert 16 + header_len + sum(sizes) == len(raw)


def corrupt(path, tmp_path, mutate):
    raw = bytearray(path.read_bytes())
    mutate(raw)
    out = tmp_path / "corrupt.ckpt"
    out.write_bytes(bytes(raw))
    return str(out)


def test_checkpoint_bad_magic_names_field(tmp_path):
    m = build_model(small_config(), seed=3)
    path = tmp_path / "m.ckpt"
    save_checkpoint(m, str(path))

    def flip(raw):
        raw[0] ^= 0xFF

    with pytest.raises(CheckpointError) as err:
        load_checkpoint(corrupt(path, tmp_path, flip))
    assert err.value.field == "magic"


def test_checkpoint_bad_version(tmp_path):
    m = build_model(small_config(), seed=4)
    path = tmp_path / "m.ckpt"
    save_checkpoint(m, str(path))

    def bump(raw):
        raw[4:8] = struct.pack("<I", 9)

    with pytest.raises(CheckpointError) as err:
        load_checkpoint(corrupt(path, tmp_path, bump))
    assert err.value.field == "version"


def test_checkpoint_truncated_payload(tmp_path):
    m = build_model(small_config(), seed=5)
    path = tmp_path / "m.ckpt"
    save_checkpoint(m, str(path))
    raw = path.read_bytes()[:-64]
    bad = tmp_path / "trunc.ckpt"
    bad.write_bytes(raw)
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(str(bad))
    assert err.value.field == "payload"


def test_checkpoint_overlapping_offsets(tmp_path):
    m = build_model(small_config(), seed=6)
    path = tmp_path / "m.ckpt"
    save_checkpoint(m, str(path))
    raw = bytearray(path.read_bytes())
    (header_len,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16 : 16 + header_len])
    header["tensors"][1]["offset"] -= 4  # overlap the first tensor
    new_header = json.dumps(header).encode()
    out = tmp_path / "overlap.ckpt"
    out.write_bytes(
        bytes(raw[:8]) + struct.pack("<Q", len(new_header)) + new_header
        + bytes(raw[16 + header_len :])
    )
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(str(out))
    assert err.value.field == "offsets"


def test_checkpoint_no_temp_file_left(tmp_path):
    m = build_model(small_config(), seed=7)
    path = tmp_path / "m.ckpt"
    save_checkpoint(m, str(path))
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]


def test_checkpoint_refuses_non_float32_tensors(tmp_path):
    wide = build_model(small_config(), seed=8, dtype=np.float64)
    mixed = build_model(small_config(), seed=8)
    mixed.params["lm_head"].data = mixed.params["lm_head"].data.astype(np.float16)
    for m in (wide, mixed):
        with pytest.raises(CheckpointError) as err:
            save_checkpoint(m, str(tmp_path / "m.ckpt"))
        assert err.value.field == "tensors"
    assert list(tmp_path.iterdir()) == []


@given(seed=st.integers(0, 100))
def test_checkpoint_roundtrip_random_seeds(tmp_path_factory, seed):
    tmp = tmp_path_factory.mktemp("ckpt")
    m = build_model(small_config(num_layers=1, d_model=8, d_hidden=8), seed=seed)
    path = tmp / "m.ckpt"
    save_checkpoint(m, str(path))
    loaded = load_checkpoint(str(path))
    for name in m.params:
        assert np.array_equal(loaded.params[name].data, m.params[name].data)


# ---------------------------------------------------------------- atomic artifacts


def report_with_block_score(score):
    m = build_model(small_config(), seed=9)
    calib = np.random.default_rng(9).integers(0, 19, size=(2, 8))
    report = compute_importance_report(m, calib, include_ppl=False, include_bi=False)
    report.block_bi_scores = {(0, 1): score}
    return report


def candidates_with_loss(loss):
    space = SearchSpace(
        layer_range=(1, 2), head_choices=(2, 4), mlp_expansion_factors=(8.0,),
        embedding_choices=(8, 16), d_head=4, vocab_size=257, num_query_groups=2,
    )
    result = enumerate_candidates(space, 6500, 0.2)
    result.candidates[0].eval_loss = loss
    return result


# A numpy float32 is not JSON-serializable, so the second save fails while
# serializing.
FAILING_SAVES = {
    "report": lambda score: report_with_block_score(score),
    "candidates": lambda loss: candidates_with_loss(loss),
}


@pytest.mark.parametrize("artifact", sorted(FAILING_SAVES))
def test_failed_save_keeps_previous_artifact(artifact, tmp_path):
    make = FAILING_SAVES[artifact]
    path = tmp_path / "artifact.json"
    make(0.5).save(str(path))
    before = path.read_bytes()
    with pytest.raises(TypeError):
        make(np.float32(0.25)).save(str(path))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.json"]


def test_failed_rename_keeps_previous_files_and_leaves_no_temp(tmp_path, monkeypatch):
    corpus = tmp_path / "t.txt"
    corpus.write_text(synthetic_markov_text(10, 50, seed=2))
    writers = {
        "m.ckpt": lambda p: save_checkpoint(build_model(small_config(), seed=1), p),
        "corpus.tokens": lambda p: ingest_text(str(corpus)).save(p),
        "report.json": lambda p: report_with_block_score(0.5).save(p),
        "cands.json": lambda p: candidates_with_loss(0.5).save(p),
    }
    for name, write in writers.items():
        write(str(tmp_path / name))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def fail(src, dst):
        raise OSError("no space left on device")

    monkeypatch.setattr(os, "replace", fail)
    for name, write in writers.items():
        with pytest.raises(OSError):
            write(str(tmp_path / name))
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
