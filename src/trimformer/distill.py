"""Distillation retraining: logit and intermediate-state losses, dynamic
loss balancing, Adam with cosine learning-rate decay.

The total objective is ``L_CLM + L_logits + alpha * L_is`` where alpha is
either a constant or the per-step ratio L_logits / L_is, treated as a plain
number (never differentiated through); a config sums only the terms it
enables. The teacher's side is :func:`teacher_targets`, constant arrays
computed outside the tape; the other functions hold the student's terms.

There is one training loop, :func:`distill_loop`, and it owns the training
state: the Adam moments, the learning rate and the shared student-to-teacher
projection of the intermediate terms. Conventional training on
the ground-truth LM loss is that loop with the CLM-only config
:data:`CLM_ONLY` and no teacher (:func:`conventional_loop`).

One rule, :func:`for_depths`, fits the objective to the depth cut for the
final retraining and for the short runs that rank candidates alike: a
student keeping fewer than 3/4 of the teacher's blocks also gets the ``emb``
and ``o`` intermediate-state terms, unless its config names components.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field, fields, replace
from functools import reduce

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, _log_softmax_rows, _softmax_rows
from .data import TokenDataset, sample_batch
from .errors import ConfigError, DataError, DivergenceError, ShapeError
from .model import Model, _is_finite, _is_int, forward, lm_loss

LOGIT_LOSSES = ("kld", "rkld", "mse", "cosine")
IS_LOSSES = ("cosine", "mse")
IS_COMPONENTS = ("emb", "o", "i", "att")
BETA1, BETA2, ADAM_EPS = 0.9, 0.95, 1e-8  # Adam moment decays and denominator floor


@dataclass(frozen=True)
class DistillConfig:
    """Loss selection for one distillation run.

    ``logit_loss=None`` disables the logit term (conventional training sets
    this and ``use_clm=True``: :data:`CLM_ONLY`). ``layer_map`` pairs are
    (teacher_layer, student_layer) block indices for the mapped
    intermediate components, which a config naming ``o``, ``i`` or ``att``
    must give.
    """

    logit_loss: str | None = "kld"
    temperature: float = 1.0
    top_k: int | None = None
    use_clm: bool = False
    is_components: tuple[str, ...] = ()
    layer_map: tuple[tuple[int, int], ...] = ()
    is_loss_fn: str = "cosine"
    alpha_mode: str = "dynamic"
    alpha_const: float = 1.0

    def __post_init__(self):
        for name, ok, want in (
            ("logit_loss", self.logit_loss is None or self.logit_loss in LOGIT_LOSSES,
             f"one of {LOGIT_LOSSES} or null"),
            ("temperature", _is_finite(self.temperature) and self.temperature > 0,
             "a finite positive number"),
            ("top_k", self.top_k is None or _is_int(self.top_k, 1), "an integer >= 1 or null"),
            ("use_clm", isinstance(self.use_clm, bool), "true or false"),
            ("is_components", isinstance(self.is_components, (list, tuple))
             and all(c in IS_COMPONENTS for c in self.is_components),
             f"a list of names from {IS_COMPONENTS}"),
            ("layer_map", isinstance(self.layer_map, (list, tuple)) and all(
                isinstance(p, (list, tuple)) and len(p) == 2 and all(_is_int(i, 0) for i in p)
                for p in self.layer_map
            ), "a list of [teacher_layer, student_layer] block indices >= 0"),
            ("is_loss_fn", self.is_loss_fn in IS_LOSSES, f"one of {IS_LOSSES}"),
            ("alpha_mode", self.alpha_mode in ("dynamic", "constant"), "'dynamic' or 'constant'"),
            ("alpha_const", _is_finite(self.alpha_const), "a finite number"),
        ):
            if not ok:
                raise ConfigError(f"{name} must be {want}, got {getattr(self, name)!r}")
        if not self.use_clm and self.logit_loss is None and not self.is_components:
            raise ConfigError("config enables no loss terms")
        if self.is_components and self.logit_loss is None and self.alpha_mode == "dynamic":
            raise ConfigError("dynamic alpha is L_logits / L_is, so it needs a logit_loss")
        mapped = [c for c in ("o", "i", "att") if c in self.is_components]
        if mapped and not self.layer_map:
            raise ConfigError(f"components {mapped} need a teacher:student layer_map")
        object.__setattr__(self, "is_components", tuple(self.is_components))
        object.__setattr__(
            self, "layer_map", tuple((int(t), int(s)) for t, s in self.layer_map)
        )

    @property
    def needs_teacher(self) -> bool:
        return self.logit_loss is not None or bool(self.is_components)

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["is_components"] = list(self.is_components)
        d["layer_map"] = [list(p) for p in self.layer_map]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "DistillConfig":
        try:
            return cls(**d)
        except TypeError as e:  # unknown or mistyped keys
            raise ConfigError(f"bad distill config: {e}") from e


CLM_ONLY = DistillConfig(logit_loss=None, use_clm=True)


def default_layer_map(teacher_layers: int, student_layers: int) -> tuple[tuple[int, int], ...]:
    """Map the block two before the last on both sides (the late layers are
    the most specialized, so earlier anchors transfer better)."""
    return ((max(teacher_layers - 3, 0), max(student_layers - 3, 0)),)


def for_depths(cfg: DistillConfig, teacher_layers: int, student_layers: int) -> DistillConfig:
    """``cfg`` plus the ``emb`` and ``o`` terms, at ``cfg.layer_map`` or else
    :func:`default_layer_map`, when the student keeps fewer than 3/4 of the
    teacher's blocks and ``cfg`` names no components; otherwise ``cfg``."""
    if cfg.is_components or student_layers >= 0.75 * teacher_layers:
        return cfg
    return replace(cfg, is_components=("emb", "o"), layer_map=cfg.layer_map
                   or default_layer_map(teacher_layers, student_layers))


def logit_loss(targets: dict, student_logits: Tensor, cfg: DistillConfig) -> Tensor:
    """Per-token divergence from the teacher's softened distribution in
    ``targets`` (:func:`teacher_targets`) to the student's, restricted to
    the teacher's top-k ids when it has them, averaged over batch and
    sequence."""
    if targets["shape"] != tuple(student_logits.shape):
        raise ShapeError(
            f"teacher logits {targets['shape']} vs student {tuple(student_logits.shape)}"
        )
    tau = cfg.temperature
    s_scaled = ad.mul(student_logits, 1.0 / tau) if tau != 1.0 else student_logits
    if targets["ids"] is not None:
        s_scaled = ad.gather_last(s_scaled, targets["ids"])
    t_logp, t_prob, rows = targets["logp"], targets["prob"], targets["rows"]
    if cfg.logit_loss == "kld":
        # sum_v p_t (log p_t - log p_s); the cross term is fused so that
        # matching distributions yield exactly-zero gradients.
        cross = ad.soft_cross_entropy(s_scaled, t_prob)
        return ad.mean(ad.add(Tensor._wrap(rows), cross))

    s_logp = ad.log_softmax(s_scaled)
    s_prob = ad.exp(s_logp)
    if cfg.logit_loss == "rkld":
        gap = ad.sub(s_logp, Tensor._wrap(t_logp))
        return ad.mean(ad.tsum(ad.mul(s_prob, gap), axis=-1))
    if cfg.logit_loss == "mse":
        diff = ad.sub(s_prob, Tensor._wrap(t_prob))
        return ad.mean(ad.mean(ad.mul(diff, diff), axis=-1))
    if cfg.logit_loss == "cosine":
        return ad.mean(_one_minus_cosine(t_prob, rows, s_prob))
    raise ConfigError(f"no logit loss selected ({cfg.logit_loss!r})")


def _one_minus_cosine(ref: np.ndarray, ref_norm: np.ndarray, live: Tensor) -> Tensor:
    """1 - cos(ref, live) along the last axis; ref and its norms are constants."""
    dot = ad.tsum(ad.mul(Tensor._wrap(ref), live), axis=-1)
    live_norm = ad.pow_const(ad.tsum(ad.mul(live, live), axis=-1), 0.5)
    denom = ad.mul(live_norm, Tensor._wrap(ref_norm))
    return ad.sub(Tensor._wrap(np.ones_like(ref_norm)), ad.div(dot, denom))


def _state_loss(teacher_state: np.ndarray, norm, student_state: Tensor, loss_fn: str) -> Tensor:
    if teacher_state.shape != tuple(student_state.shape):
        raise ShapeError(
            f"mapped states disagree after projection: teacher "
            f"{teacher_state.shape} vs student {tuple(student_state.shape)}"
        )
    if loss_fn == "cosine":
        return ad.mean(_one_minus_cosine(teacher_state, norm, student_state))
    diff = ad.sub(student_state, Tensor._wrap(teacher_state))
    return ad.mean(ad.mul(diff, diff))


def _relation_kld(t_rel: np.ndarray, t_entropy: np.ndarray, s: Tensor, d_head: int) -> Tensor:
    """Row-wise KL from the teacher's relation map ``t_rel`` (its rows'
    ``sum p log p`` is ``t_entropy``) to the student's, the head-averaged
    softmax(A A^T / sqrt(d_head)) of ``s``. Head counts may differ."""
    s = ad.transpose(s, (0, 2, 1, 3))
    s_scores = ad.mul(ad.matmul(s, ad.transpose(s, (0, 1, 3, 2))), 1.0 / math.sqrt(d_head))
    s_rel = ad.mean(ad.softmax(s_scores), axis=1)  # [B,S,S]
    cross = ad.tsum(ad.mul(Tensor._wrap(t_rel), ad.log(s_rel)), axis=-1)
    return ad.mean(ad.sub(Tensor._wrap(t_entropy), cross))


def _mapped_sites(cfg: DistillConfig, col: int) -> list[tuple[str, tuple[str, int]]]:
    """``(component, activation key)`` pairs that :func:`intermediate_loss`
    compares, in term order, on one side of the layer map (``col`` 0 is the
    teacher, 1 the student): emb at the embedding output ``("x", 0)``, o at
    block ``i``'s next norm site ``("ln1", i + 1)``, i at the MLP input
    ``("ln2", i)``, att at the ``[B,S,heads,d_head]`` query/key/value states
    ``("qkv", i)``, which both sides of the term read head-major."""
    comps = cfg.is_components
    sites = [("emb", ("x", 0))] if "emb" in comps else []
    for pair in cfg.layer_map:
        i = pair[col]
        sites += [(comp, key) for comp, key in (
            ("o", ("ln1", i + 1)), ("i", ("ln2", i)), ("att", ("qkv", i))
        ) if comp in comps]
    return sites


def intermediate_loss(teacher_states: list, student_acts: dict, projection: Tensor,
                      cfg: DistillConfig, d_head: int) -> Tensor:
    """Sum of the chosen component losses over all mapped layer pairs: the
    student's states at :func:`_mapped_sites`, times the ``[d_student,
    d_teacher]`` ``projection``, against the ``states`` of
    :func:`teacher_targets`; att is row-wise KL whatever ``is_loss_fn``."""
    terms: list[Tensor] = []
    for target, (comp, key) in zip(teacher_states, _mapped_sites(cfg, 1), strict=True):
        if key not in student_acts:
            raise DataError(f"capture missing states for component {comp!r}")
        if comp == "att":
            terms += [_relation_kld(*t, s, d_head) for t, s in zip(target, student_acts[key])]
        else:
            terms.append(_state_loss(*target, ad.matmul(student_acts[key], projection),
                                     cfg.is_loss_fn))
    if not terms:
        raise ConfigError("intermediate_loss called with no components selected")
    return reduce(ad.add, terms)


def _capture_for(cfg: DistillConfig, col: int):
    """Tap keeping the :func:`_mapped_sites` of one side of the layer map."""
    wanted = frozenset(key for _, key in _mapped_sites(cfg, col))
    if not wanted:
        return None
    return lambda site, layer, value: value if (site, layer) in wanted else None


def teacher_targets(teacher: Model, batch: np.ndarray, cfg: DistillConfig) -> dict | None:
    """The teacher's side of ``cfg``'s objective on ``batch`` as numpy
    arrays (None without teacher terms), the only code that runs the
    teacher. No student enters it, so one value serves every student.

    A logit term reads the teacher logits' ``shape``, the sorted top-k
    ``ids`` (None when ``top_k`` keeps the vocabulary), the softened
    ``logp`` and ``prob`` over them, and ``rows``: per row ``sum p log p``
    for kld, the norm of ``prob`` for cosine. ``states`` holds, per teacher
    :func:`_mapped_sites` entry, the state and its row norms (cosine) or
    None; for att, one ``(map, sum p log p)`` pair each for q, k and v."""
    if not cfg.needs_teacher:
        return None
    with ad.no_grad():
        logits, acts = forward(teacher, batch, tap=_capture_for(cfg, 0))
    norms = lambda x: np.linalg.norm(x, axis=-1).astype(x.dtype)  # what cosine reads of x
    targets: dict = {"shape": logits.shape, "states": []}
    if cfg.logit_loss is not None:
        # Scaled as the student's logits are, so equal logits give equal rows.
        scaled, k, ids = logits.data * (1.0 / cfg.temperature), cfg.top_k, None
        if k is not None and k < scaled.shape[-1]:
            ids = np.sort(np.argpartition(-scaled, k - 1, axis=-1)[..., :k], axis=-1)
            scaled = np.take_along_axis(scaled, ids, axis=-1)
        logp = _log_softmax_rows(scaled)
        prob = np.exp(logp)
        rows = (prob * logp).sum(axis=-1) if cfg.logit_loss == "kld" else (
            norms(prob) if cfg.logit_loss == "cosine" else None)
        targets.update(ids=ids, logp=logp, prob=prob, rows=rows)
    for comp, key in _mapped_sites(cfg, 0):
        if key not in acts:
            raise DataError(f"capture missing states for component {comp!r}")
        if comp != "att":
            state = acts[key].data
            targets["states"].append((state, norms(state) if cfg.is_loss_fn == "cosine" else None))
            continue
        maps, scale = [], 1.0 / math.sqrt(teacher.config.d_head)
        for t in acts[key]:  # head-averaged softmax(A A^T / sqrt(d_head)), [B,S,S]
            t64 = t.data.transpose(0, 2, 1, 3).astype(np.float64)  # head-major
            rel = _softmax_rows(np.matmul(t64, t64.swapaxes(-1, -2)) * scale).mean(axis=1)
            rel = rel.astype(t.dtype)
            maps.append((rel, (rel * np.log(rel)).sum(axis=-1)))
        targets["states"].append(tuple(maps))
    return targets


def total_loss(
    batch: np.ndarray,
    targets: dict | None,
    student: Model,
    cfg: DistillConfig,
    projection: Tensor | None = None,
):
    """One training objective evaluation: the student's terms against
    ``targets``, the :func:`teacher_targets` of ``batch`` and ``cfg``.

    Returns ``(loss, components)`` where components holds plain floats for
    logging, 0.0 for a term the config leaves out. Dynamic alpha is
    computed from this step's values and treated as a constant, and is 0
    when ``L_is`` is at most the student dtype's epsilon (rounding noise).
    """
    s_logits, s_acts = forward(student, batch, tap=_capture_for(cfg, 1))

    components = dict.fromkeys(
        ("loss_clm", "loss_logits", "loss_is", "alpha", "alpha_times_is"), 0.0
    )
    terms: list[Tensor] = []
    if cfg.use_clm:
        terms.append(ad.cross_entropy(s_logits, batch[:, 1:]))
        components["loss_clm"] = terms[-1].item()
    if cfg.logit_loss is not None:
        terms.append(logit_loss(targets, s_logits, cfg))
        components["loss_logits"] = terms[-1].item()
    if cfg.is_components:
        if projection is None:
            raise ConfigError("intermediate components need a projection")
        l_is = intermediate_loss(targets["states"], s_acts, projection, cfg, student.config.d_head)
        if cfg.alpha_mode == "constant":
            alpha = cfg.alpha_const
        elif l_is.item() <= np.finfo(student.dtype).eps:
            warnings.warn("L_is is not above epsilon; dynamic alpha forced to 0 this step")
            alpha = 0.0
        else:
            alpha = components["loss_logits"] / l_is.item()
        terms.append(ad.mul(l_is, float(alpha)))
        components.update(
            loss_is=l_is.item(), alpha=alpha, alpha_times_is=alpha * l_is.item()
        )

    loss = reduce(ad.add, terms)
    components["loss_total"] = loss.item()
    return loss, components


def cosine_lr(step: int, total_steps: int, lr_max: float, lr_min: float) -> float:
    """Cosine decay from lr_max at step 0 to lr_min at the final step."""
    if total_steps <= 1:
        return lr_max
    frac = step / (total_steps - 1)
    return lr_min + 0.5 * (lr_max - lr_min) * (1.0 + math.cos(math.pi * frac))


@dataclass
class TrainState:
    """Adam's step count and per-parameter moments; the caller gives the rate."""

    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def adam_update(self, params: dict[str, Tensor], lr: float) -> None:
        """One Adam step at ``lr`` per parameter with a gradient, which it
        drops; a parameter without one keeps its value and gets no moments."""
        t = self.step + 1
        for name, p in params.items():
            if p.grad is None:
                continue
            g, p.grad = p.grad, None
            if name not in self.m:
                self.m[name] = np.zeros_like(p.data)
                self.v[name] = np.zeros_like(p.data)
            m, v = self.m[name], self.v[name]
            # Two scratch arrays in m's memory order; g is never written.
            a, b = np.empty_like(m), np.empty_like(m)
            m *= BETA1
            m += np.multiply(g, 1 - BETA1, out=a)
            v *= BETA2
            np.multiply(g, g, out=b)
            b *= 1 - BETA2
            v += b
            # lr * (m / c1) / (sqrt(v / c2) + eps), one operation at a time.
            np.divide(m, 1 - BETA1**t, out=a)
            a *= lr
            np.divide(v, 1 - BETA2**t, out=b)
            np.sqrt(b, out=b)
            b += ADAM_EPS
            a /= b
            # A fresh array: the old p.data may be shared with another model.
            p.data = np.subtract(p.data, a, out=a)
        self.step = t


def check_train_args(steps, batch_size, seq_len, lr_max, lr_min, eval_every=0) -> None:
    """Raise :class:`ConfigError` unless the sizes are integers with
    ``steps >= 0``, ``batch_size >= 1``, ``seq_len >= 2`` and
    ``eval_every >= 0``, and the learning rates are finite numbers."""
    for name, value, low in (("steps", steps, 0), ("batch_size", batch_size, 1),
                             ("seq_len", seq_len, 2), ("eval_every", eval_every, 0)):
        if not _is_int(value, low):
            raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")
    for name, value in (("lr_max", lr_max), ("lr_min", lr_min)):
        if not _is_finite(value):
            raise ConfigError(f"{name} must be a finite number, got {value!r}")


def distill_loop(
    teacher: Model | None,
    student: Model,
    data: TokenDataset,
    cfg: DistillConfig,
    steps: int,
    seed: int = 0,
    batch_size: int = 8,
    seq_len: int = 32,
    lr_max: float = 1e-3,
    lr_min: float = 1e-5,
    eval_data: np.ndarray | None = None,
    eval_every: int = 0,
    metrics_path: str | None = None,
):
    """Train ``student`` in place on ``cfg``'s objective, against a frozen
    ``teacher`` when the config has teacher terms (``teacher`` may be None
    otherwise). Returns that same student and its per-step metric
    records. It trains ``student.params`` by Adam at the :func:`cosine_lr`
    rate of each step, plus, with intermediate components, one projection
    shared by every mapped state that starts as the truncated identity.
    Gradients live only from ``backward`` to the update, and every exit (a
    return or a :class:`DivergenceError`) drops them, so the returned
    student carries weights only."""
    check_train_args(steps, batch_size, seq_len, lr_max, lr_min, eval_every)
    if teacher is None and cfg.needs_teacher:
        raise ConfigError("logit and intermediate losses need a teacher")
    if {"o", "i", "att"} & set(cfg.is_components):
        depths = (teacher.config.num_layers, student.config.num_layers)
        for pair in cfg.layer_map:
            if pair[0] >= depths[0] or pair[1] >= depths[1]:
                raise ConfigError(f"layer_map pair {list(pair)} is out of range for a "
                                  f"{depths[0]}-block teacher and a {depths[1]}-block student")
    projection = None
    trainable = dict(student.params)
    if cfg.is_components:
        eye = np.eye(student.config.d_model, teacher.config.d_model, dtype=student.dtype)
        trainable["shared_projection"] = projection = Tensor(eye, requires_grad=True)
    state = TrainState()
    rng = np.random.default_rng(seed)
    metrics: list[dict] = []
    sink = None  # opened at the first record, so a failed first step leaves no file
    for p in trainable.values():
        p.grad = None
    try:
        for step in range(steps):
            batch = sample_batch(data, rng, batch_size, seq_len)
            targets = teacher_targets(teacher, batch, cfg)
            with ad.Tape():
                loss, components = total_loss(batch, targets, student, cfg, projection)
            lr = cosine_lr(step, steps, lr_max, lr_min)
            if not math.isfinite(components["loss_total"]):
                raise DivergenceError(
                    f"non-finite loss at step {step}",
                    state_dump={"step": step, "lr": lr, **components},
                )
            ad.backward(loss)
            bad = [k for k, p in trainable.items() if p.grad is not None
                   and not np.isfinite(p.grad).all()]
            if bad:
                raise DivergenceError(
                    f"non-finite gradient of {bad[0]} at step {step}",
                    state_dump={"step": step, "lr": lr, "param": bad[0], **components},
                )
            state.adam_update(trainable, lr)
            entry = {"step": step, "lr": lr, "tokens": (step + 1) * batch_size * seq_len,
                     **components}
            if eval_data is not None and eval_every and (
                (step + 1) % eval_every == 0 or step + 1 == steps
            ):
                entry["eval_loss"] = lm_loss(student, eval_data).item()
            metrics.append(entry)
            if metrics_path:
                sink = sink or open(metrics_path, "w", encoding="utf-8")
                sink.write(json.dumps(entry) + "\n")
    finally:
        for p in trainable.values():
            p.grad = None
        if sink:
            sink.close()
    if metrics_path and not sink:  # zero steps: an empty file
        open(metrics_path, "w", encoding="utf-8").close()
    return student, metrics


def conventional_loop(student: Model, data: TokenDataset, steps: int, **kw):
    """Ground-truth-only training: :func:`distill_loop` with
    :data:`CLM_ONLY` and no teacher. Takes its keyword arguments."""
    return distill_loop(None, student, data, CLM_ONLY, steps, **kw)
