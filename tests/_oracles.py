"""Independent straight-line reference implementations used as test oracles.

Everything here is deliberately written the slow, obvious way (explicit
loops, no shared code with the package) so a test compares two independent
derivations of the same math.
"""

import math

import numpy as np


def naive_matmul(a, b):
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            s = 0.0
            for t in range(k):
                s += float(a[i, t]) * float(b[t, j])
            out[i, j] = s
    return out


def naive_layer_norm(x, gamma, beta, eps=1e-5):
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    rows = x.reshape(-1, x.shape[-1])
    flat_out = out.reshape(-1, x.shape[-1])
    for r in range(rows.shape[0]):
        row = rows[r]
        mu = row.mean()
        var = ((row - mu) ** 2).mean()
        flat_out[r] = (row - mu) / math.sqrt(var + eps) * gamma + beta
    return out


def naive_log_softmax(x):
    x = np.asarray(x, dtype=np.float64)
    m = x.max(axis=-1, keepdims=True)
    return x - m - np.log(np.exp(x - m).sum(axis=-1, keepdims=True))


def naive_softmax(x):
    return np.exp(naive_log_softmax(x))


def max_shift_softmax_rows(x):
    """Softmax in ``x``'s own dtype, shifted by ``x.max``: the arithmetic the
    package's softmax kernel must reproduce byte for byte."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def max_shift_log_softmax_rows(x):
    """Log-softmax in ``x``'s own dtype, shifted by ``x.max``."""
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def squared_relu_then_matmul(a, w, g):
    """``relu(a)² @ w`` and the gradients of ``sum(g * out)`` by ``a`` and
    ``w``, as a squared-ReLU step and a separate folded 2-D product, in
    ``a``'s dtype: the arithmetic the fused MLP node must reproduce byte
    for byte."""
    k, n = w.shape
    r = np.maximum(a, 0)
    sq = r * r
    out = np.matmul(sq.reshape(-1, k), w).reshape(a.shape[:-1] + (n,))
    g2 = g.reshape(-1, n)
    g_sq = np.matmul(g2, w.T).reshape(a.shape)
    g_w = np.matmul(sq.reshape(-1, k).T, g2)
    return out, g_sq * 2.0 * r, g_w


def head_major_causal_attention(q, k, v, g):
    """Causal attention on head-major operands, as the package's kernel ran
    when its caller transposed: ``q`` and the output gradient ``g`` are
    ``[B, H, S, d]``, ``k`` and ``v`` ``[B, G, S, d]``, and the ``-1e9``
    mask is built in ``q``'s dtype. Returns the output and the gradients of
    ``sum(g * out)`` by q, k and v, head-major: the arithmetic the package's
    ``causal_attention`` must reproduce byte for byte."""
    b, h, s, d = q.shape
    grp = k.shape[1]
    scale = 1.0 / math.sqrt(d)
    mask = np.triu(np.full((s, s), -1e9, dtype=q.dtype), k=1)
    qg = q.reshape(b, grp, (h // grp) * s, d)
    scores = np.matmul(qg, k.swapaxes(-1, -2)) * scale
    scores = (scores.reshape(b, grp, h // grp, s, s) + mask).reshape(scores.shape)
    p = max_shift_softmax_rows(scores)
    out = np.matmul(p, v).reshape(b, h, s, d)
    gg = g.reshape(b, grp, (h // grp) * s, d)
    gp = np.matmul(gg, v.swapaxes(-1, -2))
    gs = (gp - (gp * p).sum(axis=-1, keepdims=True)) * p * scale
    gq = np.matmul(gs, k).reshape(b, h, s, d)
    return out, gq, np.matmul(gs.swapaxes(-1, -2), qg), np.matmul(p.swapaxes(-1, -2), gg)


def agg_formula(name, values):
    values = [float(v) for v in values]
    n = len(values)
    if name == "mean_abs":
        return sum(abs(v) for v in values) / n
    if name == "l2":
        return math.sqrt(sum(v * v for v in values))
    if name == "variance":
        mean = sum(values) / n
        return sum((v - mean) ** 2 for v in values) / n
    raise ValueError(name)


def aggregate_oracle(scores, batch_fn, seq_fn):
    per_sample = [agg_formula(seq_fn, row) for row in scores]
    return agg_formula(batch_fn, per_sample)


def float64_copy_aggregate(name, values, axis):
    """One importance aggregation reduced from a float64 copy of ``values``
    (``astype`` keeps the memory order): the arithmetic the package's
    float64-accumulating reductions must reproduce byte for byte."""
    values = values.astype(np.float64)
    if name == "mean_abs":
        return np.abs(values).mean(axis=axis)
    if name == "l2":
        return np.sqrt((values * values).sum(axis=axis))
    return values.var(axis=axis)


def float64_copy_width_scores(acts, seq_fn, batch_fn):
    """``{(site, layer): [C]}`` width scores of one calibration chunk from
    its raw activations ``acts``, each reduced from a float64 copy: heads
    take the per-token L2 over ``d_head`` first, then ``seq_fn`` collapses
    the sequence and ``batch_fn`` the samples."""
    out = {}
    for key, value in acts.items():
        values = value.astype(np.float64)
        if key[0] == "attn":
            values = np.sqrt((values**2).sum(axis=-1))
        per_sample = float64_copy_aggregate(seq_fn, values, axis=1)
        out[key] = float64_copy_aggregate(batch_fn, per_sample, axis=0)
    return out


def concat_rope(x, g, base=10000.0):
    """Rotary transform of head-major ``x`` ``[B, H, S, d]`` and the gradient
    ``g`` pulled back through it, with ``[S, d]`` tables in ``x``'s dtype and
    the rotation written as negate-and-concatenate: the arithmetic the
    package's rope must reproduce byte for byte."""
    s, d = x.shape[-2:]
    half = d // 2
    angles = np.outer(np.arange(s), base ** (-np.arange(half) * 2.0 / d))
    cos = np.concatenate((np.cos(angles), np.cos(angles)), axis=-1).astype(x.dtype)
    sin = np.concatenate((np.sin(angles), np.sin(angles)), axis=-1).astype(x.dtype)
    out = x * cos + np.concatenate((-x[..., half:], x[..., :half]), axis=-1) * sin
    gs = g * sin
    return out, g * cos + np.concatenate((gs[..., half:], -gs[..., :half]), axis=-1)


def rope_rotate(vec, position, base=10000.0):
    """Half-split rotary transform of one head vector at one position."""
    d = len(vec)
    half = d // 2
    out = np.zeros(d, dtype=np.float64)
    for j in range(half):
        theta = position * base ** (-2.0 * j / d)
        c, s = math.cos(theta), math.sin(theta)
        out[j] = vec[j] * c - vec[half + j] * s
        out[half + j] = vec[half + j] * c + vec[j] * s
    return out


def reference_forward(model, tokens, return_trace=False):
    """Loop-based reimplementation of the forward pass in float64.

    With ``return_trace`` also returns per-layer intermediates keyed like
    the package's ActivationRecord fields.
    """
    cfg = model.config
    weights = {k: v.data.astype(np.float64) for k, v in model.params.items()}
    b, s = tokens.shape
    h, g, dh = cfg.num_heads, cfg.num_query_groups, cfg.d_head
    x = np.stack([weights["embedding"][tokens[i]] for i in range(b)])
    trace = {
        "ln1": {}, "ln2": {}, "mlp_pre": {}, "attn_head_out": {},
        "block_inputs": [], "embedding_out": x.copy(),
    }
    for layer in range(cfg.num_layers):
        trace["block_inputs"].append(x.copy())
        p = f"layers.{layer}."
        h1 = naive_layer_norm(x, weights[p + "ln1.gamma"], weights[p + "ln1.beta"])
        trace["ln1"][layer] = h1
        attn_out = np.zeros_like(x)
        head_out = np.zeros((b, s, h, dh))
        for bi in range(b):
            heads_out = []
            for head in range(h):
                group = head // (h // g)
                wq = weights[p + "attn.wq"][head * dh : (head + 1) * dh]
                wk = weights[p + "attn.wk"][group * dh : (group + 1) * dh]
                wv = weights[p + "attn.wv"][group * dh : (group + 1) * dh]
                q = np.stack([rope_rotate(h1[bi, t] @ wq.T, t) for t in range(s)])
                k = np.stack([rope_rotate(h1[bi, t] @ wk.T, t) for t in range(s)])
                v = h1[bi] @ wv.T
                out = np.zeros((s, dh))
                for t in range(s):
                    scores = np.array(
                        [q[t] @ k[u] / math.sqrt(dh) for u in range(t + 1)]
                    )
                    probs = naive_softmax(scores)
                    out[t] = sum(probs[u] * v[u] for u in range(t + 1))
                heads_out.append(out)
                head_out[bi, :, head, :] = out
            concat = np.concatenate(heads_out, axis=-1)  # [s, h*dh]
            attn_out[bi] = concat @ weights[p + "attn.wo"]
        trace["attn_head_out"][layer] = head_out
        x = x + attn_out
        h2 = naive_layer_norm(x, weights[p + "ln2.gamma"], weights[p + "ln2.beta"])
        trace["ln2"][layer] = h2
        pre = h2 @ weights[p + "mlp.w1"].T
        trace["mlp_pre"][layer] = pre
        act = np.maximum(pre, 0.0) ** 2
        x = x + act @ weights[p + "mlp.w2"]
    trace["block_inputs"].append(x.copy())
    x = naive_layer_norm(x, weights["final_ln.gamma"], weights["final_ln.beta"])
    trace["final_ln"] = x
    head_w = weights["embedding"] if cfg.tie_embeddings else weights["lm_head"]
    logits = x @ head_w.T
    if return_trace:
        return logits, trace
    return logits


def fd_gradient(loss_fn, param, h):
    """Central-difference gradient of ``loss_fn()`` w.r.t. every element of
    ``param.data`` (mutated in place and restored)."""
    flat = param.data.reshape(-1)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = loss_fn()
        flat[i] = orig - h
        down = loss_fn()
        flat[i] = orig
        grad[i] = (up - down) / (2 * h)
    return grad.reshape(param.data.shape)


def max_rel_err(a, b, floor=1e-3):
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float((np.abs(a - b) / denom).max())


def check_fd(loss_fn, params, h=1e-5, tol=1e-4):
    """Assert the stored ``.grad`` on each param matches central differences."""
    worst = 0.0
    worst_name = None
    for name, p in params.items():
        fd = fd_gradient(loss_fn, p, h)
        err = max_rel_err(p.grad, fd)
        if err > worst:
            worst, worst_name = err, name
    assert worst < tol, f"gradient mismatch at {worst_name}: rel err {worst:.3e}"
    return worst


def teacher_in_loss_total_loss(batch, teacher, student, cfg, projection=None):
    """The distillation objective written as one function that runs the
    teacher itself, as ``distill.total_loss`` did before the teacher's side
    moved into ``distill.teacher_targets``: a ``no_grad`` teacher forward,
    then each term computing its teacher half inline. Returns ``(loss,
    components)`` like ``total_loss``; dynamic alpha is 0 when ``L_is`` is
    at most the student dtype's epsilon.

    Only the autodiff ops and the forward pass come from the package, since
    the reference must build the same graph to give the same gradients.
    """
    from functools import reduce

    from trimformer import autodiff as ad
    from trimformer.autodiff import Tensor
    from trimformer.errors import ShapeError
    from trimformer.model import forward

    def sites(col):
        comps = cfg.is_components
        out = [("emb", ("x", 0))] if "emb" in comps else []
        for pair in cfg.layer_map:
            i = pair[col]
            for comp, key in (("o", ("ln1", i + 1)), ("i", ("ln2", i)), ("att", ("qkv", i))):
                if comp in comps:
                    out.append((comp, key))
        return out

    def tap(col):
        wanted = {key for _, key in sites(col)}
        return lambda site, layer, value: value if (site, layer) in wanted else None

    def one_minus_cosine(ref, live):
        dot = ad.tsum(ad.mul(Tensor._wrap(ref), live), axis=-1)
        live_norm = ad.pow_const(ad.tsum(ad.mul(live, live), axis=-1), 0.5)
        ref_norm = np.linalg.norm(ref, axis=-1)
        denom = ad.mul(live_norm, Tensor._wrap(ref_norm.astype(ref.dtype)))
        return ad.sub(Tensor._wrap(np.ones_like(ref_norm, dtype=ref.dtype)), ad.div(dot, denom))

    with ad.no_grad():
        t_logits, t_acts = forward(teacher, batch, tap=tap(0))
    s_logits, s_acts = forward(student, batch, tap=tap(1))
    comps = dict.fromkeys(("loss_clm", "loss_logits", "loss_is", "alpha", "alpha_times_is"), 0.0)
    terms = []
    if cfg.use_clm:
        terms.append(ad.cross_entropy(s_logits, batch[:, 1:]))
        comps["loss_clm"] = terms[-1].item()

    if cfg.logit_loss is not None:
        t = t_logits.data
        if t.shape != tuple(s_logits.shape):
            raise ShapeError(f"teacher logits {t.shape} vs student {tuple(s_logits.shape)}")
        tau = cfg.temperature
        t_scaled = t * (1.0 / tau)
        s_scaled = ad.mul(s_logits, 1.0 / tau) if tau != 1.0 else s_logits
        if cfg.top_k is not None and cfg.top_k < t.shape[-1]:
            k = cfg.top_k
            idx = np.sort(np.argpartition(-t_scaled, k - 1, axis=-1)[..., :k], axis=-1)
            t_scaled = np.take_along_axis(t_scaled, idx, axis=-1)
            s_scaled = ad.gather_last(s_scaled, idx)
        t_logp = max_shift_log_softmax_rows(t_scaled)
        t_prob = np.exp(t_logp)
        if cfg.logit_loss == "kld":
            entropy = (t_prob * t_logp).sum(axis=-1)
            term = ad.mean(ad.add(Tensor._wrap(entropy), ad.soft_cross_entropy(s_scaled, t_prob)))
        else:
            s_logp = ad.log_softmax(s_scaled)
            s_prob = ad.exp(s_logp)
            if cfg.logit_loss == "rkld":
                gap = ad.sub(s_logp, Tensor._wrap(t_logp))
                term = ad.mean(ad.tsum(ad.mul(s_prob, gap), axis=-1))
            elif cfg.logit_loss == "mse":
                diff = ad.sub(s_prob, Tensor._wrap(t_prob))
                term = ad.mean(ad.mean(ad.mul(diff, diff), axis=-1))
            else:
                term = ad.mean(one_minus_cosine(t_prob, s_prob))
        terms.append(term)
        comps["loss_logits"] = term.item()

    if cfg.is_components:
        is_terms = []
        scale = 1.0 / math.sqrt(student.config.d_head)
        for (comp, t_key), (_, s_key) in zip(sites(0), sites(1)):
            if comp == "att":
                for t_state, s_state in zip(t_acts[t_key], s_acts[s_key]):
                    t = t_state.data.transpose(0, 2, 1, 3).astype(np.float64)
                    s_state = ad.transpose(s_state, (0, 2, 1, 3))  # head-major
                    t_scores = np.matmul(t, t.swapaxes(-1, -2)) * scale
                    t_rel = max_shift_softmax_rows(t_scores).mean(axis=1)
                    t_rel = t_rel.astype(t_state.dtype)
                    s_t = ad.transpose(s_state, (0, 1, 3, 2))
                    s_scores = ad.mul(ad.matmul(s_state, s_t), scale)
                    s_rel = ad.mean(ad.softmax(s_scores), axis=1)
                    cross = ad.tsum(ad.mul(Tensor._wrap(t_rel), ad.log(s_rel)), axis=-1)
                    entropy = (t_rel * np.log(t_rel)).sum(axis=-1)
                    is_terms.append(ad.mean(ad.sub(Tensor._wrap(entropy), cross)))
                continue
            t_state = t_acts[t_key].data
            s_state = ad.matmul(s_acts[s_key], projection)
            if t_state.shape != tuple(s_state.shape):
                raise ShapeError(f"teacher {t_state.shape} vs student {tuple(s_state.shape)}")
            if cfg.is_loss_fn == "cosine":
                is_terms.append(ad.mean(one_minus_cosine(t_state, s_state)))
            else:
                diff = ad.sub(s_state, Tensor._wrap(t_state))
                is_terms.append(ad.mean(ad.mul(diff, diff)))
        l_is = reduce(ad.add, is_terms)
        if cfg.alpha_mode == "constant":
            alpha = cfg.alpha_const
        elif l_is.item() <= np.finfo(student.dtype).eps:
            alpha = 0.0
        else:
            alpha = comps["loss_logits"] / l_is.item()
        terms.append(ad.mul(l_is, float(alpha)))
        comps.update(loss_is=l_is.item(), alpha=alpha, alpha_times_is=alpha * l_is.item())

    loss = reduce(ad.add, terms)
    comps["loss_total"] = loss.item()
    return loss, comps
