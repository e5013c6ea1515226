"""Independent scalar-loop reference implementations.

Everything here is written with plain Python loops and floats, element by
element, deliberately avoiding the vectorized code paths under test. Sums
accumulate strictly left to right so results are comparable bit for bit
with the package's sequential group statistics. The one vectorized helper,
``twn_alpha_grid``, runs numpy over its search grid, not over a tested path.
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


def rel_err(a, b):
    """Normalized max deviation between two nested lists / arrays."""
    import numpy as np

    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(float(np.max(np.abs(b))), 1e-300)
    return float(np.max(np.abs(a - b))) / scale


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
