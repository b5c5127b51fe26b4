import json
import math
import os
import string
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
    "fractional_start": lambda m, n: m["documents"][0].update(start=0.5),
    "bool_end": lambda m, n: m["documents"][0].update(end=True),
    "fractional_vocab_size": lambda m, n: m.update(vocab_size=257.5),
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


# ---------------------------------------------------------------- demo corpus


def per_character_markov_text(n_docs, doc_len, seed):
    """The corpus written one ``rng.choice`` call per character: the loop
    ``synthetic_markov_text`` must reproduce byte for byte."""
    alphabet, branching = string.ascii_lowercase, 4
    rng = np.random.default_rng(seed)
    k = len(alphabet)
    successors = np.stack([rng.permutation(k)[:branching] for _ in range(k)])
    probs = np.arange(branching, 0, -1, dtype=np.float64)
    probs /= probs.sum()
    docs = []
    for _ in range(n_docs):
        sym = int(rng.integers(0, k))
        chars = []
        for _ in range(doc_len):
            chars.append(alphabet[sym])
            sym = int(successors[sym][rng.choice(branching, p=probs)])
        docs.append("".join(chars))
    return "\n\n".join(docs) + "\n"


@pytest.mark.parametrize("n_docs", [0, 1, 2])
@pytest.mark.parametrize("doc_len", [0, 1, 333])
def test_markov_text_equals_the_per_character_loop(n_docs, doc_len):
    for seed in [*range(40), 2**31, 2**40 + 7]:
        want = per_character_markov_text(n_docs, doc_len, seed)
        assert synthetic_markov_text(n_docs, doc_len, seed) == want


@given(n_docs=st.integers(0, 4), doc_len=st.integers(0, 60), seed=st.integers(0, 2**64 - 1))
def test_markov_text_equals_the_per_character_loop_anywhere(n_docs, doc_len, seed):
    want = per_character_markov_text(n_docs, doc_len, seed)
    assert synthetic_markov_text(n_docs, doc_len, seed) == want


@pytest.mark.parametrize(
    "n_docs,doc_len", [(-1, 5), (2, -3), (2.0, 5), (2, 5.0), (True, 5), (2, False)]
)
def test_markov_text_rejects_bad_sizes(n_docs, doc_len):
    with pytest.raises(DataError, match="corpus sizes"):
        synthetic_markov_text(n_docs, doc_len, 0)


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_markov_text_rejects_bad_seeds(seed):
    with pytest.raises(DataError, match="corpus seed"):
        synthetic_markov_text(2, 5, seed)


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


def edit_header(path, tmp_path, edit):
    """A copy of checkpoint ``path`` whose JSON header went through ``edit``."""
    raw = path.read_bytes()
    (header_len,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16 : 16 + header_len])
    edit(header)
    blob = json.dumps(header).encode()
    out = tmp_path / "edited.ckpt"
    out.write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + header_len :])
    return str(out)


def test_checkpoint_overlapping_offsets(tmp_path):
    m = build_model(small_config(), seed=6)
    path = tmp_path / "m.ckpt"
    save_checkpoint(m, str(path))

    def overlap(header):
        header["tensors"][1]["offset"] -= 4  # overlap the first tensor

    with pytest.raises(CheckpointError) as err:
        load_checkpoint(edit_header(path, tmp_path, overlap))
    assert err.value.field == "offsets"


def _swap_first_norm(header):
    entries = header["tensors"]
    entries[1], entries[2] = entries[2], entries[1]  # ln1.gamma and ln1.beta, same shape


# Header edits of a small_config() checkpoint, each with the field it must
# fail. Entry 0 is the [19, 16] embedding at offset 0, entry 1 the [16]
# ln1.gamma at offset 1216.
DIRECTORY_EDITS = {
    "extra_entry_key": (lambda h: h["tensors"][0].update(note="x"), "tensors"),
    "false_first_offset": (lambda h: h["tensors"][0].update(offset=False), "offsets"),
    "float_shape": (lambda h: h["tensors"][1].update(shape=[16.0]), "tensors"),
    "float_offset": (lambda h: h["tensors"][1].update(offset=1216.0), "offsets"),
    "missing_offset": (lambda h: h["tensors"][1].pop("offset"), "offsets"),
    "directory_a_number": (lambda h: h.update(tensors=5), "tensors"),
    "directory_null": (lambda h: h.update(tensors=None), "tensors"),
    "directory_an_object": (lambda h: h.update(tensors={"embedding": 0}), "tensors"),
    "entries_reordered": (_swap_first_norm, "tensors"),
    "entry_missing": (lambda h: h["tensors"].pop(), "tensors"),
    "dtype_f8": (lambda h: h["tensors"][1].update(dtype="f8"), "tensors"),
}


@pytest.mark.parametrize("edit", sorted(DIRECTORY_EDITS))
def test_checkpoint_directory_must_be_the_one_its_config_implies(tmp_path, edit):
    path = tmp_path / "m.ckpt"
    save_checkpoint(build_model(small_config(), seed=6), str(path))
    mutate, field = DIRECTORY_EDITS[edit]
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(edit_header(path, tmp_path, mutate))
    assert err.value.field == field


def test_checkpoint_config_with_odd_head_width_is_a_header_error(tmp_path):
    # 2 heads of width 14 in 1 group and 4 heads of width 7 in 2 groups
    # give every tensor the same shape, so only the config can refuse it.
    path = tmp_path / "m.ckpt"
    m = build_model(small_config(num_heads=2, num_query_groups=1, d_head=14), seed=6)
    save_checkpoint(m, str(path))

    def odd(header):
        header["config"].update(num_heads=4, num_query_groups=2, d_head=7)

    with pytest.raises(CheckpointError) as err:
        load_checkpoint(edit_header(path, tmp_path, odd))
    assert err.value.field == "header"


def _payload_entry(path, index):
    """Directory entry ``index`` of a saved checkpoint and its file offset."""
    raw = path.read_bytes()
    (header_len,) = struct.unpack("<Q", raw[8:16])
    entry = json.loads(raw[16 : 16 + header_len])["tensors"][index]
    return entry, 16 + header_len + entry["offset"]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_checkpoint_non_finite_payload_names_the_tensor(tmp_path, value):
    m = build_model(small_config(), seed=10)
    path = tmp_path / "m.ckpt"
    save_checkpoint(m, str(path))
    entry, at = _payload_entry(path, 3)

    def poison(raw):
        raw[at + 4 : at + 8] = struct.pack("<f", value)

    with pytest.raises(CheckpointError) as err:
        load_checkpoint(corrupt(path, tmp_path, poison))
    assert err.value.field == "payload"
    assert entry["name"] in str(err.value)


def test_checkpoint_trailing_payload_bytes(tmp_path):
    m = build_model(small_config(), seed=11)
    path = tmp_path / "m.ckpt"
    save_checkpoint(m, str(path))
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(corrupt(path, tmp_path, lambda raw: raw.extend(b"\0" * 4)))
    assert err.value.field == "payload"


def test_checkpoint_short_read_names_payload(tmp_path, monkeypatch):
    # A file that shrinks after its size was taken: the read comes up short.
    m = build_model(small_config(), seed=13)
    path = tmp_path / "m.ckpt"
    save_checkpoint(m, str(path))
    size = path.stat().st_size
    path.write_bytes(path.read_bytes()[:-64])
    with monkeypatch.context() as patch:
        patch.setattr(os, "fstat", lambda fd: os.stat_result((0,) * 6 + (size,) + (0,) * 3))
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(str(path))
    assert err.value.field == "payload"


@pytest.mark.parametrize("layout", ["fortran", "transposed view"])
def test_checkpoint_saves_non_contiguous_tensors_in_c_order(tmp_path, layout):
    m = build_model(small_config(), seed=12)
    c_path, other_path = tmp_path / "c.ckpt", tmp_path / "other.ckpt"
    save_checkpoint(m, str(c_path))
    w = m.params["layers.0.mlp.w1"]
    w.data = np.asfortranarray(w.data) if layout == "fortran" else w.data.T.copy().T
    assert not w.data.flags.c_contiguous
    save_checkpoint(m, str(other_path))
    assert other_path.read_bytes() == c_path.read_bytes()
    # save -> load -> save of the loaded copy is byte-identical too
    save_checkpoint(load_checkpoint(str(other_path)), str(other_path))
    assert other_path.read_bytes() == c_path.read_bytes()


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


SAVE_EDITS = {
    "mis_shaped": lambda p: setattr(p["layers.0.mlp.w1"], "data", p["layers.0.mlp.w1"].data[1:]),
    "missing": lambda p: p.pop("final_ln.beta"),
    "extra": lambda p: p.update(spare=p["final_ln.beta"]),
    "non_finite": lambda p: p["final_ln.gamma"].data.fill(np.nan),
}


@pytest.mark.parametrize("edit", sorted(SAVE_EDITS))
def test_checkpoint_save_refuses_tensors_its_config_does_not_imply(tmp_path, edit):
    m = build_model(small_config(), seed=8)
    SAVE_EDITS[edit](m.params)
    with pytest.raises(CheckpointError) as err:
        save_checkpoint(m, str(tmp_path / "m.ckpt"))
    assert err.value.field == "tensors"
    assert list(tmp_path.iterdir()) == []


def test_checkpoint_saves_in_config_order_whatever_the_param_order(tmp_path):
    m = build_model(small_config(), seed=8)
    save_checkpoint(m, str(tmp_path / "a.ckpt"))
    m.params = dict(reversed(m.params.items()))
    save_checkpoint(m, str(tmp_path / "b.ckpt"))
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


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
