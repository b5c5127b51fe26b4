"""Token datasets, byte-level ingestion, and calibration sampling.

On disk a dataset is a flat little-endian uint32 id stream plus a JSON
sidecar manifest (``<path>.json``) holding the vocab size and per-document
(start, end, split) spans. Splits are assigned per document by a seeded
hash of the document index, so re-ingesting the same file with the same
seed reproduces them exactly.
"""

from __future__ import annotations

import hashlib
import json
import string
from dataclasses import dataclass

import numpy as np

from .checkpoint import write_atomic
from .errors import DataError
from .model import _is_int

DOC_SEPARATOR = 256
BYTE_VOCAB = 257  # raw bytes + one separator token


@dataclass(frozen=True)
class DocSpan:
    start: int
    end: int
    split: str


class TokenDataset:
    def __init__(self, ids: np.ndarray, vocab_size: int, documents: list[DocSpan]):
        ids = np.asarray(ids, dtype=np.uint32)
        if ids.size == 0:
            raise DataError("empty token dataset")
        if not _is_int(vocab_size, 1):
            raise DataError(f"vocab size must be an integer >= 1, got {vocab_size!r}")
        if ids.max() >= vocab_size:
            raise DataError(f"token id {ids.max()} >= vocab size {vocab_size}")
        for d in documents:
            if not (_is_int(d.start, 0) and _is_int(d.end, d.start) and d.end <= ids.size):
                raise DataError(f"document span [{d.start!r}, {d.end!r}) is not integers "
                                f"in 0..{ids.size} or is inverted")
        self.ids = ids
        self.vocab_size = vocab_size
        self.documents = documents
        self._split_cache: dict[str, np.ndarray] = {}

    def __len__(self) -> int:
        return int(self.ids.size)

    def split_ids(self, split: str) -> np.ndarray:
        """Concatenated id stream of all documents tagged ``split``."""
        if split not in self._split_cache:
            parts = [self.ids[d.start : d.end] for d in self.documents if d.split == split]
            if not parts:
                raise DataError(f"dataset has no documents in split {split!r}")
            self._split_cache[split] = np.concatenate(parts)
        return self._split_cache[split]

    def save(self, path: str) -> None:
        manifest = {
            "vocab_size": self.vocab_size,
            "documents": [
                {"start": d.start, "end": d.end, "split": d.split}
                for d in self.documents
            ],
        }
        write_atomic(path, self.ids.astype("<u4").tobytes())
        write_atomic(path + ".json", json.dumps(manifest, indent=1).encode("utf-8"))

    @classmethod
    def load(cls, path: str) -> "TokenDataset":
        with open(path, "rb") as f:
            raw = f.read()
        if len(raw) % 4:
            raise DataError(f"dataset {path} holds {len(raw)} bytes, not whole uint32 ids")
        ids = np.frombuffer(raw, dtype="<u4")
        with open(path + ".json", "r", encoding="utf-8") as f:
            try:
                manifest = json.load(f)
                docs = [DocSpan(d["start"], d["end"], d["split"]) for d in manifest["documents"]]
                return cls(ids, manifest["vocab_size"], docs)
            except (ValueError, KeyError, TypeError) as e:
                raise DataError(f"malformed dataset manifest {path}.json: {e!r}") from e


def _doc_split(doc_index: int, seed: int) -> str:
    """The seeded split of one document: "val" for about one in ten."""
    digest = hashlib.sha256(f"{seed}:{doc_index}".encode()).digest()
    frac = int.from_bytes(digest[:8], "little") / 2**64
    return "val" if frac < 0.1 else "train"


def ingest_text(path: str, seed: int = 0) -> TokenDataset:
    """Byte-level tokenization of a text file into a split TokenDataset.

    Documents are blank-line separated; each byte is one token, and each
    document gets a trailing separator token.
    """
    with open(path, "rb") as f:
        raw = f.read()
    docs = [d for d in raw.split(b"\n\n") if d.strip()]
    if not docs:
        raise DataError(f"no documents found in {path}")
    ids: list[int] = []
    spans: list[DocSpan] = []
    for i, doc in enumerate(docs):
        start = len(ids)
        ids.extend(doc)
        ids.append(DOC_SEPARATOR)
        spans.append(DocSpan(start, len(ids), _doc_split(i, seed)))
    return TokenDataset(np.array(ids, dtype=np.uint32), BYTE_VOCAB, spans)


def sample_calibration(
    dataset: TokenDataset, n: int, seq_len: int, seed: int, split: str = "train"
) -> np.ndarray:
    """``n >= 1`` distinct windows of ``seq_len >= 1`` tokens, drawn without replacement."""
    if n < 1 or seq_len < 1:
        raise DataError(f"calibration needs n >= 1 and seq_len >= 1, got n={n}, seq_len={seq_len}")
    stream = dataset.split_ids(split)
    n_starts = stream.size - seq_len + 1
    if n_starts < n:
        raise DataError(
            f"split {split!r} has {stream.size} tokens; cannot draw {n} "
            f"disjoint-start windows of length {seq_len}"
        )
    rng = np.random.default_rng(seed)
    starts = rng.choice(n_starts, size=n, replace=False)
    return np.stack([stream[s : s + seq_len] for s in starts]).astype(np.int64)


def sample_batch(
    dataset: TokenDataset, rng: np.random.Generator, batch_size: int, seq_len: int
) -> np.ndarray:
    """Training batch of random windows (with replacement) from the train split."""
    stream = dataset.split_ids("train")
    n_starts = stream.size - seq_len + 1
    if n_starts < 1:
        raise DataError(f"split 'train' shorter than seq_len {seq_len}")
    starts = rng.integers(0, n_starts, size=batch_size)
    return np.stack([stream[s : s + seq_len] for s in starts]).astype(np.int64)


def synthetic_markov_text(n_docs: int, doc_len: int, seed: int) -> str:
    """Deterministic bigram-structured demo corpus over the lowercase letters.

    Each letter transitions to one of four successors with skewed
    probabilities (4:3:2:1), giving the language model something learnable.

    A document draws its ``doc_len`` picks in one ``rng.random`` call and
    looks them up in the cumulative ``probs``: the doubles and lookups of
    one ``rng.choice(4, p=probs)`` per letter, so the text is byte-identical
    to that loop's (the pick after the last letter is drawn and unused).
    """
    if not (_is_int(n_docs, 0) and _is_int(doc_len, 0)):
        raise DataError(f"corpus sizes must be integers >= 0, got n_docs={n_docs!r}, "
                        f"doc_len={doc_len!r}")
    if not _is_int(seed, 0):
        raise DataError(f"corpus seed must be an integer >= 0, got {seed!r}")
    alphabet, branching = string.ascii_lowercase, 4
    rng = np.random.default_rng(seed)
    k = len(alphabet)
    successors = [rng.permutation(k)[:branching].tolist() for _ in range(k)]
    probs = np.arange(branching, 0, -1, dtype=np.float64)
    probs /= probs.sum()
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    docs = []
    for _ in range(n_docs):
        sym = int(rng.integers(0, k))
        chars = []
        for pick in cdf.searchsorted(rng.random(doc_len), side="right").tolist():
            chars.append(alphabet[sym])
            sym = successors[sym][pick]
        docs.append("".join(chars))
    return "\n\n".join(docs) + "\n"
