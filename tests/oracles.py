"""Independent oracles the tests check the library against.

Everything here is deliberately written the 'dumb' way (explicit loops,
two-pass statistics, closed-form recursions, plain least squares) and must
stay decoupled from the package's own implementations.
"""

import numpy as np


def matmul_loops(a, b):
    """Naive triple-loop matrix product with left-to-right accumulation."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for h in range(k):
                acc += a[i, h] * b[h, j]
            out[i, j] = acc
    return out


def column_means_loop(x):
    """Per-column mean via explicit accumulation."""
    rows, cols = x.shape
    out = np.zeros(cols)
    for j in range(cols):
        acc = 0.0
        for i in range(rows):
            acc += x[i, j]
        out[j] = acc / rows
    return out


def adaptive_avg_pool_loop(x, target):
    """Pool [L x d] to [target x d]: bin b averages rows [floor(b*L/T), ceil((b+1)*L/T)).

    Each entry adds its bin's rows one at a time, first row to last, then
    divides by the bin width.
    """
    length, cols = x.shape
    out = np.zeros((target, cols))
    for b in range(target):
        start = (b * length) // target
        end = -(-(b + 1) * length // target)
        for j in range(cols):
            acc = float(x[start, j])
            for i in range(start + 1, end):
                acc += float(x[i, j])
            out[b, j] = acc / (end - start)
    return out


def pearson_two_pass(x, y):
    """Two-pass population Pearson: subtract means first, then correlate."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    xc = x - x.mean()
    yc = y - y.mean()
    denom = np.sqrt(np.sum(xc * xc) * np.sum(yc * yc))
    if denom == 0.0:
        return 0.0
    return float(np.sum(xc * yc) / denom)


def mean_pcc_two_pass(preds, targets):
    """Column-wise two-pass Pearson averaged over the six target dims."""
    scores = [pearson_two_pass(preds[:, i], targets[:, i]) for i in range(preds.shape[1])]
    return scores, float(np.mean(scores))


def ema_closed_form(initial, values, decay):
    """shadow_k = d^k * initial + (1-d) * sum_j d^(k-j) * value_j."""
    k = len(values)
    out = (decay**k) * np.asarray(initial, dtype=np.float64)
    for j, value in enumerate(values, start=1):
        out = out + (1.0 - decay) * (decay ** (k - j)) * np.asarray(value)
    return out


def clip_global_norm_loop(grads, max_norm):
    """Per-tensor clipping of name -> grad arrays, in place; returns (factor, norm)."""
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    norm = float(np.sqrt(total))
    if norm <= max_norm or norm == 0.0:
        return 1.0, norm
    factor = max_norm / norm
    for g in grads.values():
        g *= factor
    return factor, norm


def adamw_step_loop(values, grads, m, v, t, lr, weight_decay,
                    beta1=0.9, beta2=0.999, eps=1e-8):
    """AdamW step ``t`` (1-based), tensor by tensor, in place on name -> array dicts."""
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for name, g in grads.items():
        m[name] *= beta1
        m[name] += (1.0 - beta1) * g
        v[name] *= beta2
        v[name] += (1.0 - beta2) * (g * g)
        update = (m[name] / bc1) / (np.sqrt(v[name] / bc2) + eps)
        if weight_decay != 0.0:
            update = update + weight_decay * values[name]
        values[name] -= lr * update


def ema_update_loop(shadows, values, decay):
    """shadow <- d * shadow + (1 - d) * value, tensor by tensor, in place."""
    for name, value in values.items():
        shadows[name] *= decay
        shadows[name] += (1.0 - decay) * value


def least_squares_mean_pcc(features_train, targets_train, features_eval, targets_eval):
    """Fit ridge-free linear regression (with intercept) and score mean PCC.

    The fit uses plain lstsq on the training block; scoring is the two-pass
    Pearson averaged over target columns on the eval block.
    """
    ones_train = np.hstack([features_train, np.ones((features_train.shape[0], 1))])
    ones_eval = np.hstack([features_eval, np.ones((features_eval.shape[0], 1))])
    coef, *_ = np.linalg.lstsq(ones_train, targets_train, rcond=None)
    preds = ones_eval @ coef
    _, p_mean = mean_pcc_two_pass(preds, targets_eval)
    return p_mean


def dataset_mean_features(samples):
    """Temporal mean of each modality's raw sequence, concatenated per sample.

    The mean accumulates in float64 whatever dtype the sequences are stored in.
    """
    rows = []
    for s in samples:
        rows.append(
            np.concatenate(
                [
                    s.features[m].mean(axis=0, dtype=np.float64)
                    for m in ("visual", "audio", "text")
                ]
            )
        )
    return np.stack(rows, axis=0)


def dropout_float_mask(keep, rate):
    """Inverted dropout as one float64 mask: 1/(1-rate) where kept, else 0.

    ``keep`` is a boolean keep-mask. Dropout's forward is ``x * mask`` and
    its backward ``upstream * mask``.
    """
    return keep.astype(np.float64) / (1.0 - rate)


def replay_keep_masks(stream, rate, batch, align, hidden):
    """The keep-masks a training forward draws from ``stream``, drawn again.

    One uniform per element, ``u < 1 - rate`` keeps it: a [batch x align x
    hidden] mask per branch in the order visual, audio, text, then
    [batch x hidden] for the fusion head. ``stream`` is a copy of the
    model's dropout generator taken before the forward.
    """
    shapes = [(m, (batch, align, hidden)) for m in ("visual", "audio", "text")]
    shapes.append(("fusion", (batch, hidden)))
    return {name: stream.random(shape) < 1.0 - rate for name, shape in shapes}


def model_param_grads_repeated(model, out, keep, d_y_hat, d_aux, d_v_hat):
    """Parameter gradients of the training forward that gave ``out``, by explicit row gradients.

    Reverses the forward from the layer inputs in ``out`` and its training
    record, and from ``keep``, the keep-masks the forward drew (see
    ``replay_keep_masks``), applied as float masks (hidden relu, sigmoid or
    identity, sigmoid outputs). The record's gates are not read: each
    hidden activation's output is recomputed from its layer's input,
    weight and bias, with the forward's bits, and each hidden derivative
    is formed here from that output ``y``: relu's as ``y > 0``, sigmoid's as
    ``y * (1 - y)``. Each branch's time-mean adjoint is built as an
    explicit [B*T x h] array with ``np.repeat``. Grads start at zero and
    receive one sum each, as the model's accumulators do.
    """
    rec = out.record
    rows = (out.y_hat.shape[0] * model.align_len, model.hidden_dim)
    grads = {}

    def sigmoid_back(y, up):
        return up * (y * (1.0 - y))

    def act_forward(layer, x):
        """The hidden activation of ``x @ W.T + b``; sigmoid in its two stable halves."""
        y = x @ layer.weight.value.T
        y += layer.bias.value
        if model.hidden_activation == "identity":
            return y
        if model.hidden_activation == "relu":
            return np.maximum(y, 0.0)
        pos = y >= 0
        ex = np.exp(y[~pos])
        y[pos] = 1.0 / (1.0 + np.exp(-y[pos]))
        y[~pos] = ex / (1.0 + ex)
        return y

    def act_back(y, up):
        if model.hidden_activation == "identity":
            return up
        if model.hidden_activation == "sigmoid":
            return sigmoid_back(y, up)
        return up * (y > 0).astype(np.float64)

    def drop_back(keep, up):
        if keep is None:
            return up
        return up * dropout_float_mask(keep, model.drop.rate).reshape(up.shape)

    def linear_back(name, layer, x, up):
        grads[f"{name}.weight"] = np.zeros(layer.weight.shape) + up.T @ x
        if layer.bias is not None:
            grads[f"{name}.bias"] = np.zeros(layer.out_dim) + up.sum(axis=0)
        return up @ layer.weight.value

    def time_mean_back(d_mean):
        return np.repeat(
            d_mean[:, None, :] / model.align_len, model.align_len, axis=1
        ).reshape(rows)

    d_y_logits = sigmoid_back(out.y_hat, d_y_hat)
    d_h_drop = linear_back("fusion.out", model.fusion_out, rec.h_drop, d_y_logits)
    h_out = act_forward(model.fusion_hidden, out.z_fus)
    d_h_pre = act_back(h_out, drop_back(keep["fusion"], d_h_drop))
    d_fused = linear_back("fusion.hidden", model.fusion_hidden, out.z_fus, d_h_pre)
    h = model.hidden_dim
    d_z = {}
    for i, m in enumerate(("visual", "audio", "text")):
        if model.fusion == "concat":
            d_z[m] = d_fused[:, i * h : (i + 1) * h].copy()
        else:
            d_z[m] = d_fused / 3.0
        if m in d_aux:
            d_logits = sigmoid_back(out.aux[m], d_aux[m])
            d_z[m] = d_z[m] + linear_back(f"{m}.aux", model.aux_head[m], out.z[m], d_logits)
    if model.vad_enabled:
        d_v = linear_back("vad.inj", model.inj, out.v_hat, d_z["audio"])
        if d_v_hat is not None:
            d_v = d_v + d_v_hat
        d_v_logits = sigmoid_back(out.v_hat, d_v)
        d_a_mean = linear_back("vad.head", model.vad_head, rec.a_mean, d_v_logits)
    for m in ("visual", "audio", "text"):
        d_act = drop_back(keep[m], time_mean_back(d_z[m]))
        d_pre = act_back(act_forward(model.proj[m], rec.rows[m]), d_act)
        if m == "audio" and model.vad_enabled:
            d_pre = d_pre + time_mean_back(d_a_mean)
        linear_back(f"{m}.proj", model.proj[m], rec.rows[m], d_pre)
    return grads


def grad_check(f, x, eps=1e-5):
    """Compare f's analytic gradient against central finite differences.

    ``f`` maps an array to ``(scalar value, gradient array of x's shape)``.
    Returns the max over coordinates of
    ``|analytic - numeric| / max(1, |analytic|, |numeric|)``. ``x`` is
    copied, never changed.
    """
    x = np.array(x, dtype=np.float64)
    _, analytic = f(x)
    analytic = np.asarray(analytic, dtype=np.float64)
    if analytic.shape != x.shape:
        raise ValueError(
            f"gradient shape {analytic.shape} does not match input shape {x.shape}"
        )
    flat = x.reshape(-1)
    grad_flat = analytic.reshape(-1)
    worst = 0.0
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up, _ = f(x)
        flat[i] = orig - eps
        down, _ = f(x)
        flat[i] = orig
        if not (np.isfinite(up) and np.isfinite(down)):
            raise FloatingPointError("non-finite value while probing finite differences")
        numeric = (up - down) / (2.0 * eps)
        a = grad_flat[i]
        err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
        worst = max(worst, err)
    return worst
