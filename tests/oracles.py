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
    """Temporal mean of each modality's raw sequence, concatenated per sample."""
    rows = []
    for s in samples:
        rows.append(
            np.concatenate(
                [s.features[m].mean(axis=0) for m in ("visual", "audio", "text")]
            )
        )
    return np.stack(rows, axis=0)
