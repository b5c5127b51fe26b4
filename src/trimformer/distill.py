"""Distillation retraining: logit and intermediate-state losses, a shared
student-to-teacher upscaling projection, dynamic loss balancing, Adam with
cosine learning-rate decay.

The total objective is ``L_CLM + L_logits + alpha * L_is`` where alpha is
either a constant or the per-step ratio L_logits / L_is, treated as a plain
number (never differentiated through). The teacher runs outside the tape
and its weights are untouched by training.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import TokenDataset, sample_batch
from .errors import ConfigError, DataError, DivergenceError, ShapeError
from .model import Model, forward, lm_loss, slice_positions

LOGIT_LOSSES = ("kld", "rkld", "mse", "cosine")
IS_LOSSES = ("cosine", "mse")
IS_COMPONENTS = ("emb", "o", "i", "att")


@dataclass(frozen=True)
class DistillConfig:
    """Loss selection for one distillation run.

    ``logit_loss=None`` disables the logit term (conventional training sets
    this and ``use_clm=True``). ``layer_map`` pairs are (teacher_layer,
    student_layer) block indices for the mapped intermediate components.
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
        if self.temperature <= 0:
            raise ConfigError(f"temperature must be positive, got {self.temperature}")
        if self.logit_loss is not None and self.logit_loss not in LOGIT_LOSSES:
            raise ConfigError(f"logit_loss must be one of {LOGIT_LOSSES} or null")
        if self.is_loss_fn not in IS_LOSSES:
            raise ConfigError(f"is_loss_fn must be one of {IS_LOSSES}")
        unknown = set(self.is_components) - set(IS_COMPONENTS)
        if unknown:
            raise ConfigError(f"unknown intermediate components {sorted(unknown)}")
        if self.alpha_mode not in ("dynamic", "constant"):
            raise ConfigError("alpha_mode must be 'dynamic' or 'constant'")
        if not self.use_clm and self.logit_loss is None and not self.is_components:
            raise ConfigError("config enables no loss terms")
        object.__setattr__(self, "is_components", tuple(self.is_components))
        object.__setattr__(
            self, "layer_map", tuple((int(t), int(s)) for t, s in self.layer_map)
        )

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["is_components"] = list(self.is_components)
        d["layer_map"] = [list(p) for p in self.layer_map]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "DistillConfig":
        d = dict(d)
        if "layer_map" in d:
            d["layer_map"] = tuple(tuple(p) for p in d["layer_map"])
        if "is_components" in d:
            d["is_components"] = tuple(d["is_components"])
        try:
            return cls(**d)
        except TypeError as e:  # unknown or mistyped keys
            raise ConfigError(f"bad distill config: {e}") from e


def default_layer_map(teacher_layers: int, student_layers: int) -> tuple[tuple[int, int], ...]:
    """Map the block two before the last on both sides (the late layers are
    the most specialized, so earlier anchors transfer better)."""
    return ((max(teacher_layers - 3, 0), max(student_layers - 3, 0)),)


class SharedProjection:
    """One trainable ``[d_student, d_teacher]`` matrix upscaling every mapped
    student state; starts as the truncated identity."""

    def __init__(self, d_student: int, d_teacher: int, dtype=np.float32):
        eye = np.zeros((d_student, d_teacher), dtype=dtype)
        n = min(d_student, d_teacher)
        eye[np.arange(n), np.arange(n)] = 1.0
        self.matrix = Tensor(eye, requires_grad=True)

    def apply(self, states: Tensor) -> Tensor:
        return ad.matmul(states, self.matrix)


def softmax_t(logits, temperature: float):
    """Temperature softmax. Tensor inputs stay on the graph; numpy inputs
    use an equivalent stable numpy path."""
    if temperature <= 0:
        raise ConfigError(f"temperature must be positive, got {temperature}")
    if isinstance(logits, Tensor):
        scaled = logits if temperature == 1.0 else ad.mul(logits, 1.0 / temperature)
        return ad.softmax(scaled)
    x = np.asarray(logits) / temperature
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _np_log_softmax(x: np.ndarray) -> np.ndarray:
    # Same association as the graph path (x - (lse + m)) so that identical
    # teacher/student logits produce a bitwise-zero divergence.
    m = x.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(x - m).sum(axis=-1, keepdims=True)) + m
    return x - lse


def _mean_all(t: Tensor) -> Tensor:
    return ad.mean(t)


def logit_loss(teacher_logits, student_logits: Tensor, cfg: DistillConfig) -> Tensor:
    """Per-token divergence between temperature-softened distributions,
    averaged over batch and sequence.

    ``top_k`` restricts both sides to the teacher's top-k token ids
    (renormalized); ``top_k >= vocab`` is exactly the unrestricted loss.
    """
    t_data = teacher_logits.data if isinstance(teacher_logits, Tensor) else np.asarray(teacher_logits)
    if t_data.shape != tuple(student_logits.shape):
        raise ShapeError(
            f"teacher logits {t_data.shape} vs student {tuple(student_logits.shape)}"
        )
    tau = cfg.temperature
    vocab = t_data.shape[-1]
    t_scaled = t_data / tau
    s_scaled = ad.mul(student_logits, 1.0 / tau) if tau != 1.0 else student_logits

    if cfg.top_k is not None and cfg.top_k < vocab:
        k = cfg.top_k
        if k < 1:
            raise ConfigError("top_k must be >= 1")
        idx = np.argpartition(-t_scaled, k - 1, axis=-1)[..., :k]
        idx = np.sort(idx, axis=-1)  # deterministic id order
        t_scaled = np.take_along_axis(t_scaled, idx, axis=-1)
        s_scaled = ad.gather_last(s_scaled, idx)

    t_logp = _np_log_softmax(t_scaled)
    t_prob = np.exp(t_logp)

    if cfg.logit_loss == "kld":
        # sum_v p_t (log p_t - log p_s); the cross term is fused so that
        # matching distributions yield exactly-zero gradients.
        entropy = (t_prob * t_logp).sum(axis=-1)
        cross = ad.soft_cross_entropy(s_scaled, t_prob)
        return _mean_all(ad.add(Tensor._wrap(entropy), cross))

    s_logp = ad.sub(s_scaled, ad.logsumexp(s_scaled, keepdims=True))
    if cfg.logit_loss == "rkld":
        s_prob = ad.exp(s_logp)
        gap = ad.sub(s_logp, Tensor._wrap(t_logp))
        return _mean_all(ad.tsum(ad.mul(s_prob, gap), axis=-1))
    if cfg.logit_loss == "mse":
        s_prob = ad.exp(s_logp)
        diff = ad.sub(s_prob, Tensor._wrap(t_prob))
        return _mean_all(ad.mean(ad.mul(diff, diff), axis=-1))
    if cfg.logit_loss == "cosine":
        s_prob = ad.exp(s_logp)
        return _mean_all(_one_minus_cosine(t_prob, s_prob))
    raise ConfigError(f"no logit loss selected ({cfg.logit_loss!r})")


def _one_minus_cosine(ref: np.ndarray, live: Tensor) -> Tensor:
    """1 - cos(ref, live) along the last axis; ref is a constant."""
    dot = ad.tsum(ad.mul(Tensor._wrap(ref), live), axis=-1)
    live_norm = ad.pow_const(ad.tsum(ad.mul(live, live), axis=-1), 0.5)
    ref_norm = np.linalg.norm(ref, axis=-1)
    denom = ad.mul(live_norm, Tensor._wrap(ref_norm.astype(ref.dtype)))
    return ad.sub(Tensor._wrap(np.ones_like(ref_norm, dtype=ref.dtype)), ad.div(dot, denom))


def _state_loss(teacher_state: np.ndarray, student_state: Tensor, loss_fn: str) -> Tensor:
    if teacher_state.shape != tuple(student_state.shape):
        raise ShapeError(
            f"mapped states disagree after projection: teacher "
            f"{teacher_state.shape} vs student {tuple(student_state.shape)}"
        )
    if loss_fn == "cosine":
        return _mean_all(_one_minus_cosine(teacher_state, student_state))
    diff = ad.sub(student_state, Tensor._wrap(teacher_state))
    return _mean_all(ad.mul(diff, diff))


def _relation_kld(teacher_states: np.ndarray, student_states, d_head: int) -> Tensor:
    """Row-wise KL between head-averaged self-relation maps
    softmax(A A^T / sqrt(d_head)). Head counts may differ across models."""
    scale = 1.0 / math.sqrt(d_head)
    t = teacher_states.astype(np.float64)
    t_scores = np.matmul(t, t.swapaxes(-1, -2)) * scale
    t_rel = np.exp(_np_log_softmax(t_scores)).mean(axis=1)  # [B,S,S]
    t_rel = t_rel.astype(teacher_states.dtype)

    s_scores = ad.mul(
        ad.matmul(student_states, ad.transpose(student_states, (0, 1, 3, 2))), scale
    )
    s_logrel_heads = ad.log_softmax(s_scores)  # per head
    s_rel = ad.mean(ad.exp(s_logrel_heads), axis=1)  # [B,S,S]
    s_logrel = ad.log(s_rel)
    t_logrel = np.log(t_rel)
    kld = ad.sub(
        Tensor._wrap((t_rel * t_logrel).sum(axis=-1)),
        ad.tsum(ad.mul(Tensor._wrap(t_rel), s_logrel), axis=-1),
    )
    return _mean_all(kld)


def intermediate_loss(
    teacher_acts: dict, student_acts: dict, projection: SharedProjection,
    cfg: DistillConfig, d_head: int,
) -> Tensor:
    """Sum of the chosen component losses over all mapped layer pairs.

    Reads the activation maps of :func:`~trimformer.model.forward`.
    emb: embedding-layer outputs ``("x", 0)``. o: block ``i``'s output at
    its next norm site ``("ln1", i + 1)``. i: MLP inputs ``("ln2", i)``.
    att: query/key/value self-relation maps ``("qkv", i)``, always compared
    with row-wise KL regardless of ``is_loss_fn``.
    """
    terms: list[Tensor] = []

    def pair(site, t_layer, s_layer, what):
        t_key, s_key = (site, t_layer), (site, s_layer)
        if t_key not in teacher_acts or s_key not in student_acts:
            raise DataError(f"capture missing states for component {what!r}")
        return teacher_acts[t_key], student_acts[s_key]

    def state_term(t_state, s_state):
        return _state_loss(t_state.data, projection.apply(s_state), cfg.is_loss_fn)

    if "emb" in cfg.is_components:
        terms.append(state_term(*pair("x", 0, 0, "emb")))
    mapped = [c for c in ("o", "i", "att") if c in cfg.is_components]
    if mapped and not cfg.layer_map:
        raise ConfigError(f"components {mapped} need a teacher:student layer_map")
    for t_idx, s_idx in cfg.layer_map:
        if "o" in cfg.is_components:
            terms.append(state_term(*pair("ln1", t_idx + 1, s_idx + 1, "o")))
        if "i" in cfg.is_components:
            terms.append(state_term(*pair("ln2", t_idx, s_idx, "i")))
        if "att" in cfg.is_components:
            for t_states, s_states in zip(*pair("qkv", t_idx, s_idx, "att")):
                terms.append(_relation_kld(t_states.data, s_states, d_head))
    if not terms:
        raise ConfigError("intermediate_loss called with no components selected")
    total = terms[0]
    for t in terms[1:]:
        total = ad.add(total, t)
    return total


def _capture_for(cfg: DistillConfig, col: int):
    """Tap keeping the sites :func:`intermediate_loss` reads on one side of
    the layer map (``col`` 0 is the teacher, 1 the student)."""
    comps = cfg.is_components
    wanted = {("x", 0)} if "emb" in comps else set()
    for pair in cfg.layer_map:
        i = pair[col]
        sites = {"o": ("ln1", i + 1), "i": ("ln2", i), "att": ("qkv", i)}
        wanted |= {key for comp, key in sites.items() if comp in comps}
    if not wanted:
        return None
    wanted = frozenset(wanted)
    return lambda site, layer, value: value if (site, layer) in wanted else None


def total_loss(
    batch: np.ndarray,
    teacher: Model,
    student: Model,
    cfg: DistillConfig,
    projection: SharedProjection | None = None,
    alpha_override: float | None = None,
):
    """One training objective evaluation.

    Returns ``(loss, components)`` where components holds plain floats for
    logging. Dynamic alpha is computed from this step's values and treated
    as a constant; ``alpha_override`` pins it (used by gradient checks).
    """
    needs_teacher = cfg.logit_loss is not None or bool(cfg.is_components)
    t_logits = t_acts = None
    if needs_teacher:
        with ad.no_grad():
            t_logits, t_acts = forward(teacher, batch, tap=_capture_for(cfg, 0))
    s_logits, s_acts = forward(student, batch, tap=_capture_for(cfg, 1))

    zero = Tensor._wrap(np.zeros((), dtype=student.dtype))
    components: dict[str, float] = {}
    l_clm = zero
    if cfg.use_clm:
        shifted = slice_positions(s_logits, 0, s_logits.shape[1] - 1)
        l_clm = ad.cross_entropy(shifted, batch[:, 1:])
    components["loss_clm"] = l_clm.item()

    l_logits = zero
    if cfg.logit_loss is not None:
        l_logits = logit_loss(t_logits.detach(), s_logits, cfg)
    components["loss_logits"] = l_logits.item()

    l_is = zero
    alpha = 0.0
    if cfg.is_components:
        if projection is None:
            raise ConfigError("intermediate components need a SharedProjection")
        l_is = intermediate_loss(t_acts, s_acts, projection, cfg, student.config.d_head)
        if alpha_override is not None:
            alpha = alpha_override
        elif cfg.alpha_mode == "constant":
            alpha = cfg.alpha_const
        elif l_is.item() == 0.0:
            warnings.warn("L_is is zero; dynamic alpha forced to 0 this step")
            alpha = 0.0
        else:
            alpha = components["loss_logits"] / l_is.item()
    components["loss_is"] = l_is.item()
    components["alpha"] = alpha
    components["alpha_times_is"] = alpha * l_is.item()

    loss = ad.add(ad.add(l_clm, l_logits), ad.mul(l_is, float(alpha)))
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
    """Optimizer moments plus schedule bookkeeping."""

    total_steps: int
    lr_max: float
    lr_min: float
    beta1: float = 0.9
    beta2: float = 0.95
    eps: float = 1e-8
    step: int = 0
    tokens_seen: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def lr(self) -> float:
        return cosine_lr(self.step, self.total_steps, self.lr_max, self.lr_min)

    def adam_update(self, params: dict[str, Tensor]) -> None:
        lr = self.lr()
        t = self.step + 1
        for name, p in params.items():
            if p.grad is None:
                continue
            g = p.grad
            if name not in self.m:
                self.m[name] = np.zeros_like(p.data)
                self.v[name] = np.zeros_like(p.data)
            self.m[name] = self.beta1 * self.m[name] + (1 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1 - self.beta2) * (g * g)
            mhat = self.m[name] / (1 - self.beta1**t)
            vhat = self.v[name] / (1 - self.beta2**t)
            p.data = p.data - lr * mhat / (np.sqrt(vhat) + self.eps)
        self.step = t


def _train(
    student: Model,
    teacher: Model | None,
    data: TokenDataset,
    cfg: DistillConfig,
    steps: int,
    seed: int,
    batch_size: int,
    seq_len: int,
    lr_max: float,
    lr_min: float,
    eval_data: np.ndarray | None,
    eval_every: int,
    metrics_path: str | None,
):
    projection = None
    trainable = dict(student.trainable())
    if cfg.is_components:
        if teacher is None:
            raise ConfigError("intermediate components need a teacher")
        projection = SharedProjection(
            student.config.d_model, teacher.config.d_model, dtype=student.dtype
        )
        trainable["shared_projection"] = projection.matrix
    state = TrainState(total_steps=steps, lr_max=lr_max, lr_min=lr_min)
    rng = np.random.default_rng(seed)
    metrics: list[dict] = []
    sink = open(metrics_path, "w", encoding="utf-8") if metrics_path else None
    try:
        for step in range(steps):
            batch = sample_batch(data, rng, batch_size, seq_len)
            for p in trainable.values():
                p.grad = None
            with ad.Tape():
                if teacher is None:
                    loss = lm_loss(student, batch)
                    components = {
                        "loss_clm": loss.item(),
                        "loss_logits": 0.0,
                        "loss_is": 0.0,
                        "alpha": 0.0,
                        "alpha_times_is": 0.0,
                        "loss_total": loss.item(),
                    }
                else:
                    loss, components = total_loss(batch, teacher, student, cfg, projection)
            if not math.isfinite(components["loss_total"]):
                raise DivergenceError(
                    f"non-finite loss at step {step}",
                    state_dump={"step": step, "lr": state.lr(), **components},
                )
            ad.backward(loss)
            state.adam_update(trainable)
            state.tokens_seen += batch_size * seq_len
            entry = {
                "step": step,
                "lr": cosine_lr(step, steps, lr_max, lr_min),
                "tokens": state.tokens_seen,
                **components,
            }
            if eval_data is not None and eval_every and (
                (step + 1) % eval_every == 0 or step + 1 == steps
            ):
                entry["eval_loss"] = lm_loss(student, eval_data).item()
            metrics.append(entry)
            if sink:
                sink.write(json.dumps(entry) + "\n")
    finally:
        if sink:
            sink.close()
    return student, metrics


def distill_loop(
    teacher: Model,
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
    """Retrain ``student`` against a frozen ``teacher``. Returns the trained
    student and its per-step metric records."""
    return _train(
        student, teacher, data, cfg, steps, seed, batch_size, seq_len,
        lr_max, lr_min, eval_data, eval_every, metrics_path,
    )


def conventional_loop(
    student: Model,
    data: TokenDataset,
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
    """Ground-truth-only training: the same loop with just the LM loss."""
    cfg = DistillConfig(logit_loss=None, use_clm=True)
    return _train(
        student, None, data, cfg, steps, seed, batch_size, seq_len,
        lr_max, lr_min, eval_data, eval_every, metrics_path,
    )
