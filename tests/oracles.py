"""Independent scalar-loop reference implementations.

Everything here is written with plain Python loops and floats, element by
element, deliberately avoiding the vectorized code paths under test. Sums
accumulate strictly left to right so results are comparable bit for bit
with the package's sequential group statistics. Two helpers are vectorized:
``twn_alpha_grid`` runs numpy over its search grid, not over a tested path,
and ``layer_stats_reference`` keeps the ``np.histogram`` form of the trap
statistics that ``diagnostics`` now bins directly.
"""

import math

import numpy as np


def group_of(r, c, rows, cols, kind, group_size):
    """Flat group id of element (r, c) under a granularity."""
    if kind == "per-tensor":
        return 0
    if kind == "per-channel":
        return r
    gpr = (cols + group_size - 1) // group_size
    return r * gpr + c // group_size


def n_groups_of(rows, cols, kind, group_size):
    if kind == "per-tensor":
        return 1
    if kind == "per-channel":
        return rows
    return rows * ((cols + group_size - 1) // group_size)


def group_elements(rows, cols, kind, group_size):
    """List of (r, c) per group, in row-major element order."""
    n = n_groups_of(rows, cols, kind, group_size)
    members = [[] for _ in range(n)]
    for r in range(rows):
        for c in range(cols):
            members[group_of(r, c, rows, cols, kind, group_size)].append((r, c))
    return members


def absmean_params_scalar(values):
    total = 0.0
    for v in values:
        total += abs(v)
    alpha = total / len(values)
    return alpha, alpha / 2.0


def twn_params_scalar(values):
    total = 0.0
    for v in values:
        total += abs(v)
    delta = 0.75 * (total / len(values))
    kept = 0.0
    count = 0
    for v in values:
        if abs(v) >= delta:
            kept += abs(v)
            count += 1
    if count == 0:
        return 0.0, delta
    return kept / count, delta


def ternarize_scalar(v, delta):
    if v >= delta:
        return 1
    if abs(v) < delta:
        return 0
    return -1


def quantize_scalar(w, scheme, kind, group_size):
    """Full scalar quantization: returns (codes, scales, thresholds)."""
    rows, cols = len(w), len(w[0])
    members = group_elements(rows, cols, kind, group_size)
    params = absmean_params_scalar if scheme == "absmean" else twn_params_scalar
    scales, thresholds = [], []
    codes = [[0] * cols for _ in range(rows)]
    for g, elems in enumerate(members):
        alpha, delta = params([w[r][c] for r, c in elems])
        scales.append(alpha)
        thresholds.append(delta)
        for r, c in elems:
            codes[r][c] = 0 if alpha == 0.0 else ternarize_scalar(w[r][c], delta)
    return codes, scales, thresholds


def deadzone_mask_scalar(w, thresholds, kind, group_size):
    rows, cols = len(w), len(w[0])
    return [
        [
            abs(w[r][c]) < thresholds[group_of(r, c, rows, cols, kind, group_size)]
            for c in range(cols)
        ]
        for r in range(rows)
    ]


def tequila_bias_scalar(w, mask, lam):
    """lam * the row sums of ``np.where(mask, w, 0.0)``, left to right.

    Each row starts from its first term, not from 0.0, so a row whose terms
    are all -0.0 sums to -0.0, and a deselected weight adds +0.0.
    """
    out = []
    for r in range(len(w)):
        terms = [w[r][c] if mask[r][c] else 0.0 for c in range(len(w[0]))]
        s = terms[0]
        for t in terms[1:]:
            s += t
        out.append(lam * s)
    return out


def twn_alpha_grid(values, delta, step_fraction=1e-5):
    """Brute-force alpha minimizing sum((w - alpha*code)^2) on a dense grid.

    The grid is scanned as numpy vectors, one element of ``values`` at a
    time, so each grid point's error accumulates left to right exactly as
    a scalar loop would; ties go to the smallest alpha.
    """
    codes = [ternarize_scalar(v, delta) for v in values]
    hi = 2.0 * max(abs(v) for v in values)
    if hi == 0.0:
        return 0.0, 0.0
    step = step_fraction * hi
    n_steps = int(round(hi / step))
    alphas = np.arange(n_steps + 1, dtype=np.float64) * step
    errs = np.zeros_like(alphas)
    for v, q in zip(values, codes):
        d = v - alphas * q
        errs += d * d
    k = int(np.argmin(errs))
    return float(alphas[k]), float(errs[k])


def recon_error(values, alpha, delta):
    err = 0.0
    for v in values:
        d = v - alpha * ternarize_scalar(v, delta)
        err += d * d
    return err


def sign(v):
    return (v > 0) - (v < 0)


def forward_ternary_scalar(x, codes, scales, kind, group_size):
    """y[b][r] = sum_j x[b][j] * code[r][j] * alpha(group of r, j)."""
    batch, cols = len(x), len(x[0])
    rows = len(codes)
    y = [[0.0] * rows for _ in range(batch)]
    for b in range(batch):
        for r in range(rows):
            acc = 0.0
            for j in range(cols):
                g = group_of(r, j, rows, cols, kind, group_size)
                acc += x[b][j] * codes[r][j] * scales[g]
            y[b][r] = acc
    return y


def forward_minima_scalar(x, w, codes, scales, mask, eps, kind, group_size):
    batch, cols = len(x), len(x[0])
    rows = len(w)
    y = forward_ternary_scalar(x, codes, scales, kind, group_size)
    for b in range(batch):
        for r in range(rows):
            extra = 0.0
            for j in range(cols):
                if mask[r][j]:
                    extra += sign(x[b][j]) * sign(w[r][j])
            y[b][r] += eps * extra
    return y


def forward_tequila_scalar(x, w, codes, scales, mask, lam, kind, group_size):
    y = forward_ternary_scalar(x, codes, scales, kind, group_size)
    bias = tequila_bias_scalar(w, mask, lam)
    for b in range(len(x)):
        for r in range(len(w)):
            y[b][r] += bias[r]
    return y


def forward_dlt_scalar(x, codes, alphas, bs, kind, group_size):
    """y = sum_g alpha_g * (sum_{j in g} code x) + b_g * (sum_{j in g} x)."""
    batch, cols = len(x), len(x[0])
    rows = len(codes)
    y = [[0.0] * rows for _ in range(batch)]
    for b in range(batch):
        for r in range(rows):
            acc = 0.0
            for j in range(cols):
                g = group_of(r, j, rows, cols, kind, group_size)
                acc += alphas[g] * codes[r][j] * x[b][j] + bs[g] * x[b][j]
            y[b][r] = acc
    return y


def forward_seq_scalar(x, codes, alphas, bs, mask, kind, group_size):
    """Dead positions evaluate as alpha_g * b_g instead of zero."""
    batch, cols = len(x), len(x[0])
    rows = len(codes)
    y = [[0.0] * rows for _ in range(batch)]
    for b in range(batch):
        for r in range(rows):
            acc = 0.0
            for j in range(cols):
                g = group_of(r, j, rows, cols, kind, group_size)
                if mask[r][j]:
                    acc += alphas[g] * bs[g] * x[b][j]
                else:
                    acc += alphas[g] * codes[r][j] * x[b][j]
            y[b][r] = acc
    return y


def backward_ste_scalar(g, x, w_abs_ge_delta, scales, kind, group_size):
    """grad[r][j] = sum_b g[b][r] x[b][j] * (alpha if outside deadzone else 1)."""
    batch = len(g)
    rows = len(w_abs_ge_delta)
    cols = len(x[0])
    grad = [[0.0] * cols for _ in range(rows)]
    for r in range(rows):
        for j in range(cols):
            acc = 0.0
            for b in range(batch):
                acc += g[b][r] * x[b][j]
            gid = group_of(r, j, rows, cols, kind, group_size)
            grad[r][j] = acc * scales[gid] if w_abs_ge_delta[r][j] else acc
    return grad


def backward_minima_scalar(g, x, mask, scales, eps, kind, group_size):
    batch = len(g)
    rows = len(mask)
    cols = len(x[0])
    grad = [[0.0] * cols for _ in range(rows)]
    for r in range(rows):
        for j in range(cols):
            if mask[r][j]:
                acc = 0.0
                for b in range(batch):
                    acc += sign(x[b][j]) * g[b][r]
                grad[r][j] = eps * acc
            else:
                acc = 0.0
                for b in range(batch):
                    acc += g[b][r] * x[b][j]
                gid = group_of(r, j, rows, cols, kind, group_size)
                grad[r][j] = acc * scales[gid]
    return grad


def backward_tequila_scalar(g, x, mask, scales, lam, kind, group_size, mixed=True):
    """Dead: sum_b g*(x + lam) with mixed gradients, lam*sum_b g without."""
    batch = len(g)
    rows = len(mask)
    cols = len(x[0])
    grad = [[0.0] * cols for _ in range(rows)]
    for r in range(rows):
        for j in range(cols):
            acc = 0.0
            if mask[r][j]:
                for b in range(batch):
                    if mixed:
                        acc += g[b][r] * (x[b][j] + lam)
                    else:
                        acc += lam * g[b][r]
                grad[r][j] = acc
            else:
                for b in range(batch):
                    acc += g[b][r] * x[b][j]
                gid = group_of(r, j, rows, cols, kind, group_size)
                grad[r][j] = acc * scales[gid]
    return grad


def grad_alpha_scalar(g, x, codes, kind, group_size):
    """d/d alpha_g of sum(g * y) for y = sum alpha_g code x, per group."""
    rows, cols = len(codes), len(codes[0])
    out = [0.0] * n_groups_of(rows, cols, kind, group_size)
    for r in range(rows):
        for j in range(cols):
            gid = group_of(r, j, rows, cols, kind, group_size)
            for b in range(len(g)):
                out[gid] += g[b][r] * x[b][j] * codes[r][j]
    return out


def grad_b_dlt_scalar(g, x, rows, kind, group_size):
    cols = len(x[0])
    out = [0.0] * n_groups_of(rows, cols, kind, group_size)
    for r in range(rows):
        for j in range(cols):
            gid = group_of(r, j, rows, cols, kind, group_size)
            for b in range(len(g)):
                out[gid] += g[b][r] * x[b][j]
    return out


def grad_b_seq_scalar(g, x, mask, alphas, kind, group_size):
    rows, cols = len(mask), len(mask[0])
    out = [0.0] * n_groups_of(rows, cols, kind, group_size)
    for r in range(rows):
        for j in range(cols):
            if not mask[r][j]:
                continue
            gid = group_of(r, j, rows, cols, kind, group_size)
            for b in range(len(g)):
                out[gid] += alphas[gid] * g[b][r] * x[b][j]
    return out


def flip_rate_recount(pushes, window):
    """Flip rate over the last ``window`` pushes, recounting every adjacent pair.

    ``pushes`` is a list of snapshots, each a list of per-layer code matrices.
    """
    snaps = pushes[-window:]
    flips = 0
    for prev, cur in zip(snaps, snaps[1:]):
        for a, b in zip(prev, cur):
            for row_a, row_b in zip(a.tolist(), b.tolist()):
                flips += sum(x != y for x, y in zip(row_a, row_b))
    total = sum(c.size for c in snaps[0])
    return flips / ((len(snaps) - 1) * total)


def layer_stats_reference(w, q, band, bins):
    """(size, deadzone fraction, boundary fraction, counts, edges, normalized).

    The trap statistics of one layer as ``diagnostics`` computed them through
    a masked divide and ``np.histogram`` over the clipped w / threshold.
    """
    w = np.asarray(w, dtype=np.float64)
    thr = q.layout.expand(q.thresholds)
    a = np.abs(w)
    near = (a >= (1.0 - band) * thr) & (a <= (1.0 + band) * thr)
    normalized = not (thr == 0).all()
    values = w
    if normalized:
        values = np.zeros_like(w)
        nonzero = thr > 0
        np.divide(w, thr, out=values, where=nonzero)
        zero_thr = ~nonzero & (w != 0)
        values[zero_thr] = np.sign(w[zero_thr]) * np.inf
    clipped = np.clip(values, -3.0, 3.0)
    counts, edges = np.histogram(clipped, bins, range=(-3.0, 3.0))
    dead = float((a < thr).sum()) / w.size
    return w.size, dead, float(near.sum()) / w.size, counts, edges, normalized


def gemv_scalar(codes, scales, bias, x, kind, group_size):
    """y[r] = sum_g alpha_g * sum_{j in g} code x + bias[r], explicit loops."""
    rows, cols = len(codes), len(codes[0])
    y = []
    for r in range(rows):
        acc = 0.0
        gpr_members = {}
        for j in range(cols):
            gid = group_of(r, j, rows, cols, kind, group_size)
            gpr_members.setdefault(gid, 0.0)
            gpr_members[gid] += codes[r][j] * x[j]
        for gid in sorted(gpr_members):
            acc += scales[gid] * gpr_members[gid]
        y.append(acc + bias[r])
    return y


def packed_mlp_scalar(layers, x):
    """Output of a tanh MLP run from packed layers, for one input vector, in Python loops.

    ``layers`` are the layers of a TQLA file in order. Each is decoded by
    ``unpack_codes_scalar`` (padding columns dropped) and run by
    ``gemv_scalar`` with its float32 scales and bias as Python floats; a
    file's group size 0 is per-tensor, and any other size is per-group
    (per-channel is the group size ``cols``). tanh is applied between
    layers, not after the last.
    """
    for k, layer in enumerate(layers):
        rows, cols = layer.rows, layer.cols
        padded = unpack_codes_scalar(bytes(layer.index_bytes), bytes(layer.sign_bytes), rows, cols)
        codes = [row[:cols] for row in padded]
        kind = "per-tensor" if layer.group_size == 0 else "per-group"
        scales = [float(s) for s in layer.scales]
        bias = [float(b) for b in layer.bias]
        y = gemv_scalar(codes, scales, bias, x, kind, layer.group_size)
        x = y if k == len(layers) - 1 else [math.tanh(v) for v in y]
    return x


def rel_err(a, b):
    """Normalized max deviation between two nested lists / arrays."""
    import numpy as np

    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(float(np.max(np.abs(b))), 1e-300)
    return float(np.max(np.abs(a - b))) / scale



def adam_step_scalar(p, g, m0, v0, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """(new value, m, v) of one element after adaptive-moment step ``t``.

    Each operation is one IEEE double operation in the order
    ``optimizer_step`` applies them, so the results match it bit for bit;
    a parameter's first step passes ``m0 = v0 = 0.0``.
    """
    m = (1.0 - b1) * g + m0 * b1
    v = g * g * (1.0 - b2) + v0 * b2
    den = math.sqrt(v / (1.0 - b2**t)) + eps
    return p - m / (1.0 - b1**t) * lr / den, m, v


def _layer_forward_scalar(layer, x, scheme, kind, group_size, lam, eps):
    """(y, view) of one layer: its quantized view and output for inputs ``x``.

    ``layer`` is a dict as ``mlp_step_scalar`` takes it; ``view`` holds the
    codes, scales and deadzone mask the backward reads.
    """
    w = layer["w"]
    rows, cols = len(w), len(w[0])
    if "delta" in layer:  # learnable alpha, frozen thresholds
        alpha, delta = layer["alpha"], layer["delta"]
        codes = [
            [
                0
                if alpha[group_of(r, c, rows, cols, kind, group_size)] == 0.0
                else ternarize_scalar(w[r][c], delta[group_of(r, c, rows, cols, kind, group_size)])
                for c in range(cols)
            ]
            for r in range(rows)
        ]
    else:
        estimator = "twn" if scheme == "twn" else "absmean"
        codes, alpha, delta = quantize_scalar(w, estimator, kind, group_size)
    mask = deadzone_mask_scalar(w, delta, kind, group_size)
    if scheme == "seq":
        y = forward_seq_scalar(x, codes, alpha, layer["b"], mask, kind, group_size)
    elif scheme == "dlt":
        y = forward_dlt_scalar(x, codes, alpha, layer["b"], kind, group_size)
    elif scheme == "minima":
        y = forward_minima_scalar(x, w, codes, alpha, mask, eps, kind, group_size)
    elif scheme in ("tequila", "tequila-nomix"):
        y = forward_tequila_scalar(x, w, codes, alpha, mask, lam, kind, group_size)
    else:
        y = forward_ternary_scalar(x, codes, alpha, kind, group_size)
    return y, {"codes": codes, "alpha": alpha, "mask": mask}


def _layer_backward_scalar(layer, view, x, g, scheme, kind, group_size, lam, eps):
    """(grad wrt ``x``, grads per parameter) of one layer for upstream ``g``."""
    w = layer["w"]
    rows, cols = len(w), len(w[0])
    codes, alpha, mask = view["codes"], view["alpha"], view["mask"]
    if scheme == "minima":
        grads = {"w": backward_minima_scalar(g, x, mask, alpha, eps, kind, group_size)}
    elif scheme in ("tequila", "tequila-nomix"):
        mixed = scheme == "tequila"
        grads = {"w": backward_tequila_scalar(g, x, mask, alpha, lam, kind, group_size, mixed)}
    else:
        live = [[not dead for dead in row] for row in mask]
        grads = {"w": backward_ste_scalar(g, x, live, alpha, kind, group_size)}
    if "delta" in layer:
        grads["alpha"] = grad_alpha_scalar(g, x, codes, kind, group_size)
    if scheme == "dlt":
        grads["b"] = grad_b_dlt_scalar(g, x, rows, kind, group_size)
    elif scheme == "seq":
        grads["b"] = grad_b_seq_scalar(g, x, mask, alpha, kind, group_size)
    # the input sees w_q, plus the coupling: alpha * b at seq's dead weights, b for dlt
    grad_x = [[0.0] * cols for _ in range(len(g))]
    for n in range(len(g)):
        for j in range(cols):
            acc = 0.0
            for r in range(rows):
                k = group_of(r, j, rows, cols, kind, group_size)
                weight = codes[r][j] * alpha[k]
                if scheme == "dlt":
                    weight += layer["b"][k]
                elif scheme == "seq" and mask[r][j]:
                    weight += alpha[k] * layer["b"][k]
                acc += g[n][r] * weight
            grad_x[n][j] = acc
    return grad_x, grads


def _task_loss_scalar(task, y, target):
    """(loss, gradient wrt ``y``) of the regression or character task."""
    batch, width = len(y), len(y[0])
    if task == "synthetic-regression":
        total = 0.0
        grad = [[0.0] * width for _ in range(batch)]
        for n in range(batch):
            for r in range(width):
                d = y[n][r] - target[n][r]
                total += d * d
                grad[n][r] = 2.0 * d / (batch * width)
        return total / (batch * width), grad
    # cross-entropy of a softmax over each row, against the class index in ``target``
    total = 0.0
    grad = []
    for n in range(batch):
        top = max(y[n])
        exps = [math.exp(v - top) for v in y[n]]
        norm = sum(exps)
        total -= y[n][target[n]] - top - math.log(norm)
        row = [e / norm / batch for e in exps]
        row[target[n]] -= 1.0 / batch
        grad.append(row)
    return total / batch, grad


def mlp_step_scalar(layers, x, target, task, t, lr, scheme, kind, group_size, lam, eps):
    """One training step of a tanh MLP of quantized layers, in Python loops.

    ``layers`` holds one dict per layer, first layer first: "w" (rows x cols
    nested lists), "alpha" and the frozen "delta" for the schemes that learn
    alpha, "b" for those that learn b, and the moments "m" and "v", dicts of
    the same shapes per parameter. The forward quantizes every layer, feeds
    tanh of each output to the next, and takes the ``task`` loss of the last
    output against ``target`` (rows of values for regression, class indices
    for the character task). The backward chains the layer backwards through
    tanh (``g * (1 - a * a)``), and one adaptive-moment step ``t`` at rate
    ``lr`` updates every parameter and its moments in place. Returns
    (loss, last layer output).
    """
    acts = [x]
    views = []
    for k, layer in enumerate(layers):
        y, view = _layer_forward_scalar(layer, acts[-1], scheme, kind, group_size, lam, eps)
        views.append(view)
        acts.append(y if k == len(layers) - 1 else [[math.tanh(v) for v in row] for row in y])
    loss, g = _task_loss_scalar(task, acts[-1], target)
    grads = [None] * len(layers)
    for k in range(len(layers) - 1, -1, -1):
        a = acts[k]
        grad_x, grads[k] = _layer_backward_scalar(
            layers[k], views[k], a, g, scheme, kind, group_size, lam, eps
        )
        g = [[gx * (1.0 - av * av) for gx, av in zip(grow, arow)] for grow, arow in zip(grad_x, a)]
    for layer, layer_grads in zip(layers, grads):
        for name, grad in layer_grads.items():
            runs = [(layer[name], grad, layer["m"][name], layer["v"][name])]
            if isinstance(layer[name][0], list):  # the weights: one run per row
                runs = list(zip(*runs[0]))
            for p, gp, m, v in runs:
                for j in range(len(p)):
                    p[j], m[j], v[j] = adam_step_scalar(p[j], gp[j], m[j], v[j], t, lr)
    return loss, acts[-1]


#: The canonical triple table of the TQLA format, as listed in ``tqla.packing``.
TQLA_PATTERNS = [
    (0, 0, 0), (0, 0, 1), (0, 1, -1), (0, 1, 0), (0, 1, 1),
    (1, -1, -1), (1, -1, 0), (1, -1, 1), (1, 0, -1), (1, 0, 0),
    (1, 0, 1), (1, 1, -1), (1, 1, 0), (1, 1, 1),
]


def pack_codes_scalar(codes):
    """(index bytes, sign bytes) of a (rows, cols) code matrix, one triple at a time.

    Triple k (row-major, ceil(cols/3) per row, the last one of a row padded
    with zeros) goes to the low nibble of index byte k/2 when k is even and
    the high nibble when odd; a negated pattern sets bit k%8 of sign byte k/8.
    """
    rows, cols = len(codes), len(codes[0])
    per_row = (cols + 2) // 3
    n = rows * per_row
    index = bytearray((n + 1) // 2)
    signs = bytearray((n + 7) // 8)
    for k in range(n):
        r, s = divmod(k, per_row)
        t = tuple(int(codes[r][c]) if c < cols else 0 for c in range(3 * s, 3 * s + 3))
        if t in TQLA_PATTERNS:
            i = TQLA_PATTERNS.index(t)
        else:
            i = TQLA_PATTERNS.index(tuple(-v for v in t))
            signs[k // 8] |= 1 << (k % 8)
        index[k // 2] |= i << (4 * (k % 2))
    return bytes(index), bytes(signs)


def unpack_codes_scalar(index, signs, rows, cols):
    """(rows, 3*ceil(cols/3)) codes of packed sections, one triple at a time."""
    per_row = (cols + 2) // 3
    out = [[0] * (3 * per_row) for _ in range(rows)]
    for k in range(rows * per_row):
        r, s = divmod(k, per_row)
        pattern = TQLA_PATTERNS[(index[k // 2] >> (4 * (k % 2))) & 0x0F]
        sign = -1 if (signs[k // 8] >> (k % 8)) & 1 else 1
        for j in range(3):
            out[r][3 * s + j] = sign * pattern[j]
    return out
