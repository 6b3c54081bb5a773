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


def model_param_grads_repeated(model, d_y_hat, d_aux, d_v_hat):
    """Parameter gradients of a model's last forward, by explicit row gradients.

    Reverses the forward from its training record and outputs, which hold
    every layer input, each hidden activation's output and the dropout
    keep-masks, applied as float masks (hidden relu, sigmoid or identity,
    sigmoid outputs). Each hidden derivative is formed here from that
    output: relu's as ``out > 0``, sigmoid's as ``out * (1 - out)``. Each
    branch's time-mean adjoint is built as an explicit [B*T x h] array with
    ``np.repeat``. Grads start at zero and receive one sum each, as the
    model's accumulators do.
    """
    rec = model._cache
    out = rec.out
    rows = (out.y_hat.shape[0] * model.align_len, model.hidden_dim)
    grads = {}

    def sigmoid_back(y, up):
        return up * (y * (1.0 - y))

    def act_back(out, up):
        if model.hidden_activation == "identity":
            return up
        if model.hidden_activation == "sigmoid":
            return sigmoid_back(out, up)
        return up * (out > 0).astype(np.float64)

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
    d_h_pre = act_back(rec.h_kept, drop_back(rec.keep["fusion"], d_h_drop))
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
        d_act = drop_back(rec.keep[m], time_mean_back(d_z[m]))
        d_pre = act_back(rec.kept[m].reshape(rows), d_act)
        if m == "audio" and model.vad_enabled:
            d_pre = d_pre + time_mean_back(d_a_mean)
        linear_back(f"{m}.proj", model.proj[m], rec.rows[m], d_pre)
    return grads
