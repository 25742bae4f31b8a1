"""Training criteria: standard transducer loss and its weakly supervised variant.

Both losses are the negative log total weight of the corresponding training
lattice. The hot path does not materialize arc objects: it runs the
forward-backward recurrence directly on the T x (U+1) grid, which is
mathematically identical to ``wfst.total_weight`` on the built lattice (the
test suite asserts equality against both the lattice route and exhaustive
path enumeration).

The recurrence runs as a wavefront. Cell (t, u) depends only on (t, u-1) and
(t-1, u), so every cell of an anti-diagonal d = t + u depends only on the
diagonal before it. The arc weights are stored skewed, cell (t, u) at
(d, u) with -inf outside the grid, and alpha and beta each take T + U vector
steps over whole diagonals. Every cell sees the same operands in the same
order as a cell-by-cell loop (a missing predecessor is -inf, and
``logaddexp(-inf, x) == x`` exactly), so the result is bit-identical to it.

Gradients are with respect to the logits by default: arc occupancies are
routed through the log-softmax Jacobian, and bypass arcs additionally apply
the star chain rule — the star weight depends on the row only through the
blank log-probability, with d(star)/d(logp_blank) = -p_blank / (1 - p_blank).
Each row of the log-probability sensitivity has at most two nonzero entries,
blank and the row's target, so the kernel returns it as two planes,
``d_blank`` [B, T, U+1] and ``d_tok`` [B, T, U]. The logit gradient is then
softmax * (d_blank + d_tok) minus the two planes in their own columns; no
dense sensitivity tensor is built. The raw log-probability-level gradient
(plain occupancy accumulation) is available via ``grad_wrt="logprobs"``.
"""

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .exceptions import NoPath, ShapeMismatch, WstError
from .graphs import PenaltyConfig
from .numerics import NEG_INF, star_log_prob
from .vocab import Vocab, validate_transcript


def log_softmax(logits) -> np.ndarray:
    """Numerically stable log-softmax over the last axis."""
    z = np.asarray(logits, dtype=float)
    m = z.max(axis=-1, keepdims=True)
    shifted = z - m
    shifted -= np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return shifted


def star_logprob(row) -> float:
    """Log of the average non-blank probability of one normalized row.

    row[0] is the blank log-probability; the result is
    log((1 - p_blank) / (|V| - 1)), -inf when blank takes all the mass.
    """
    r = np.asarray(row, dtype=float)
    if r.ndim != 1 or r.shape[0] < 2:
        raise ShapeMismatch("expected one probability row of length >= 2")
    return star_log_prob(float(r[0]), r.shape[0])


def _star_rows(blank_lp: np.ndarray, vocab_size: int) -> np.ndarray:
    """Vectorized star log-weight from blank log-probabilities (stable log1mexp)."""
    b = np.minimum(blank_lp, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        near = np.log(-np.expm1(b))
        far = np.log1p(-np.exp(b))
        out = np.where(b > math.log(0.5), near, far)
    out = np.where(b >= 0.0, NEG_INF, out)
    return out - math.log(vocab_size - 1)


def _skew(plane: np.ndarray, diags: int, col_offset: int, width: int) -> np.ndarray:
    """[B, T', C] grid plane -> [diags, B, width], cell (t, u) at (t + u, u + col_offset).

    Everything else is -inf. The diagonal axis comes first so that one
    diagonal is a contiguous block.
    """
    out = np.full((diags, plane.shape[0], width), NEG_INF)
    for u in range(plane.shape[2]):
        out[u:u + plane.shape[1], :, u + col_offset] = plane[:, :, u].T
    return out


def _grid_loss_grad(
    lp: np.ndarray,
    ys: np.ndarray,
    use_star: bool,
    lambda1: float,
    lambda2: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Forward-backward over the (t, u) grid for a batch of equal-shape items.

    lp: [B, T, U+1, V] log-probabilities; ys: [B, U] token ids, none of them 0.
    Returns (log total weight [B], d_blank [B, T, U+1], d_tok [B, T, U],
    idx [B, T, U, 1]): the sensitivity d(log total)/d(lp) is d_blank in the
    blank column, d_tok in the target column idx, and zero elsewhere.
    """
    b_sz, t_len, cols, v_size = lp.shape
    u_len = cols - 1
    blank = lp[..., 0]  # [B, T, U+1]
    idx = np.broadcast_to(ys[:, None, :, None], (b_sz, t_len, u_len, 1))
    tok = np.take_along_axis(lp[:, :, :u_len, :], idx, axis=-1)[..., 0]

    if use_star:
        star = _star_rows(blank, v_size)  # [B, T, U+1]
        star1 = star[:, :, :u_len] + lambda1 if lambda1 != NEG_INF else np.full_like(tok, NEG_INF)
        star2 = star + lambda2 if lambda2 != NEG_INF else np.full_like(blank, NEG_INF)
        vert = np.logaddexp(tok, star1)
        horiz = np.logaddexp(blank, star2)
    else:
        vert = tok
        horiz = blank

    # Skewed planes. Alpha and beta carry a -inf column on each side of the
    # U+1 cells (cell u at column u+1); vs has one at each end of the U token
    # arcs, so vs[d, :-1] lines up vertical arcs with the cell they enter and
    # vs[d, 1:] with the cell they leave. The last frame has no horizontal
    # arc: leaving it out keeps the wavefront inside the grid.
    diags = t_len + u_len
    vs = _skew(vert, diags, 1, cols + 1)
    hs = _skew(horiz[:, : t_len - 1], diags, 0, cols)

    alpha_s = np.full((diags, b_sz, cols + 2), NEG_INF)
    alpha_s[0, :, 1] = 0.0
    for d in range(1, diags):
        prev = alpha_s[d - 1]
        np.logaddexp(prev[:, :-2] + vs[d - 1, :, :-1], prev[:, 1:-1] + hs[d - 1],
                     out=alpha_s[d, :, 1:-1])

    term = blank[:, t_len - 1, u_len]  # mandatory final blank, never bypassed
    beta_s = np.full((diags, b_sz, cols + 2), NEG_INF)
    beta_s[diags - 1, :, cols] = term
    for d in range(diags - 2, -1, -1):
        nxt = beta_s[d + 1]
        np.logaddexp(vs[d, :, 1:] + nxt[:, 2:], hs[d] + nxt[:, 1:-1], out=beta_s[d, :, 1:-1])

    t_ix = np.arange(t_len)[:, None]
    u_ix = np.arange(cols)[None, :]
    alpha = np.moveaxis(alpha_s[t_ix + u_ix, :, u_ix + 1], -1, 0)  # [B, T, U+1]
    beta = np.moveaxis(beta_s[t_ix + u_ix, :, u_ix + 1], -1, 0)
    total = alpha[:, t_len - 1, u_len] + term

    tot = total[:, None, None]
    with np.errstate(invalid="ignore"):
        log_g_vert = alpha[:, :, :u_len] + vert + beta[:, :, 1:]
        gamma_vert = np.where(log_g_vert == NEG_INF, 0.0, np.exp(log_g_vert - tot))
        log_g_horiz = alpha[:, : t_len - 1, :] + horiz[:, : t_len - 1, :] + beta[:, 1:, :]
        gamma_horiz = np.where(log_g_horiz == NEG_INF, 0.0, np.exp(log_g_horiz - tot))
    gamma_term = np.where(
        alpha[:, t_len - 1, u_len] == NEG_INF, 0.0,
        np.exp(alpha[:, t_len - 1, u_len] + term - tot[:, 0, 0]),
    )

    if use_star:
        with np.errstate(invalid="ignore"):
            gamma_tok = np.where(gamma_vert > 0.0, gamma_vert * np.exp(tok - vert), 0.0)
            gamma_tok_byp = gamma_vert - gamma_tok
            h = horiz[:, : t_len - 1, :]
            gamma_blank = np.where(
                gamma_horiz > 0.0, gamma_horiz * np.exp(blank[:, : t_len - 1, :] - h), 0.0
            )
            gamma_blank_byp = gamma_horiz - gamma_blank
    else:
        gamma_tok = gamma_vert
        gamma_blank = gamma_horiz

    d_blank = np.zeros((b_sz, t_len, cols))
    d_blank[:, : t_len - 1, :] += gamma_blank
    d_blank[:, t_len - 1, u_len] += gamma_term

    if use_star:
        gamma_star = np.zeros((b_sz, t_len, cols))
        gamma_star[:, :, :u_len] += gamma_tok_byp
        gamma_star[:, : t_len - 1, :] += gamma_blank_byp
        # d(star)/d(logp_blank) = -p_blank / (1 - p_blank); zero occupancy rows
        # contribute nothing even where the factor would blow up.
        p_blank = np.exp(blank)
        with np.errstate(divide="ignore", invalid="ignore"):
            factor = p_blank / np.expm1(blank)  # = -p/(1-p)
            d_blank += np.where(gamma_star > 0.0, gamma_star * factor, 0.0)

    return total, d_blank, gamma_tok, idx


def _logit_grad(lp: np.ndarray, d_blank: np.ndarray, d_tok: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """-d(log total)/d(logits) from the two sensitivity planes, written over ``lp``.

    Equals -(dlp - softmax * dlp.sum(-1)) for the dense sensitivity dlp: a row
    has only the blank and target nonzeros, so its sum is d_blank + d_tok
    exactly, and -(a - b) == b - a in IEEE arithmetic (up to the sign of 0).
    """
    u_len = d_tok.shape[2]
    s = d_blank.copy()
    s[:, :, :u_len] += d_tok
    g = np.exp(lp, out=lp)
    g *= s[..., None]
    g[..., 0] -= d_blank
    g_tok = g[:, :, :u_len]
    np.put_along_axis(g_tok, idx, np.take_along_axis(g_tok, idx, axis=-1) - d_tok[..., None], axis=-1)
    return g


def _logprob_grad(lp: np.ndarray, d_blank: np.ndarray, d_tok: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """-d(log total)/d(lp): the negated dense arc occupancies."""
    dlp = np.zeros_like(lp)
    dlp[..., 0] = d_blank
    np.put_along_axis(dlp[:, :, : d_tok.shape[2]], idx, d_tok[..., None], axis=-1)
    return -dlp


def _check_grid(z: np.ndarray, ys: np.ndarray) -> None:
    """Typed errors for [B, T, U+1, V] logits and [B, U] target ids."""
    b_sz, t_len, cols, v_size = z.shape
    if v_size < 2:
        raise ShapeMismatch("vocabulary axis must have size >= 2")
    if t_len < 1:
        raise ShapeMismatch("need at least one frame")
    if ys.ndim != 2 or ys.shape[0] != b_sz:
        raise ShapeMismatch(f"expected [B][U] targets with B={b_sz}, got shape {ys.shape}")
    if ys.shape[1] + 1 != cols:
        raise ShapeMismatch(f"tensor has {cols} transcript rows, expected U+1={ys.shape[1] + 1}")
    if not np.isfinite(z).all():
        raise ShapeMismatch("logits must be finite")
    bad = (ys < 1) | (ys >= v_size)
    if bad.any():
        validate_transcript(Vocab(v_size), ys[int(np.argmax(bad.any(axis=1)))])


def _target_ids(ys, v_size: int) -> np.ndarray:
    """Target ids as an int array; an id too large for one is out of vocabulary."""
    try:
        return np.asarray(ys, dtype=int)
    except OverflowError:
        for row in np.atleast_2d(np.asarray(ys, dtype=object)):
            validate_transcript(Vocab(max(v_size, 2)), row)
        raise


def _loss_and_grad(z, ys, use_star, penalties, grad_wrt) -> Tuple[np.ndarray, np.ndarray]:
    """Validated log total weight [B] and gradient for a [B, T, U+1, V] batch."""
    if grad_wrt not in ("logits", "logprobs"):
        raise ValueError(f"grad_wrt must be 'logits' or 'logprobs', got {grad_wrt!r}")
    _check_grid(z, ys)
    lp = log_softmax(z)
    lam1 = penalties.lambda1 if penalties is not None else 0.0
    lam2 = penalties.lambda2 if penalties is not None else 0.0
    total, *planes = _grid_loss_grad(lp, ys, use_star, lam1, lam2)
    grad = _logit_grad(lp, *planes) if grad_wrt == "logits" else _logprob_grad(lp, *planes)
    return total, grad


def _single_loss(logits, tokens, use_star, penalties, grad_wrt) -> Tuple[float, np.ndarray]:
    z = np.asarray(logits, dtype=float)
    if z.ndim != 3:
        raise ShapeMismatch(f"expected a [T][U+1][|V|] logit tensor, got {z.ndim} dimensions")
    ys = _target_ids(list(tokens), z.shape[-1]).reshape(1, -1)
    total, grad = _loss_and_grad(z[None], ys, use_star, penalties, grad_wrt)
    if total[0] == NEG_INF:
        raise NoPath("lattice admits no accepting path")
    return float(-total[0]), grad[0]


def rnnt_loss(logits, tokens: Sequence[int], grad_wrt: str = "logits") -> Tuple[float, np.ndarray]:
    """Standard transducer loss -log P(y|x) and its gradient.

    ``logits`` is a [T][U+1][|V|] tensor of unnormalized scores; row-wise
    log-softmax is applied internally.
    """
    return _single_loss(logits, tokens, use_star=False, penalties=None, grad_wrt=grad_wrt)


def wst_loss(
    logits,
    tokens: Sequence[int],
    penalties: PenaltyConfig,
    grad_wrt: str = "logits",
) -> Tuple[float, np.ndarray]:
    """Weakly supervised transducer loss over the bypass-augmented lattice.

    With both penalties at -inf this reduces exactly (bit-for-bit) to
    ``rnnt_loss``. For finite penalties the loss is strictly below the
    standard loss, since the path set is a strict superset.
    """
    return _single_loss(logits, tokens, use_star=True, penalties=penalties, grad_wrt=grad_wrt)


def batched_grid_loss(
    logits: np.ndarray,
    ys: np.ndarray,
    criterion: str = "rnnt",
    penalties: Optional[PenaltyConfig] = None,
    grad_wrt: str = "logits",
) -> Tuple[np.ndarray, np.ndarray]:
    """Loss and gradient for a batch of equal-shape items.

    logits: [B, T, U+1, V]; ys: [B, U]. Per-item results are bit-identical to
    the corresponding single calls (the recurrence is elementwise over the
    batch axis). Inputs are validated as in the single calls: non-finite
    logits or mismatched shapes raise ShapeMismatch, and a blank or
    out-of-vocabulary target raises the VocabError of ``validate_transcript``.
    """
    z = np.asarray(logits, dtype=float)
    if z.ndim != 4:
        raise ShapeMismatch(f"expected a [B][T][U+1][|V|] tensor, got {z.ndim} dimensions")
    use_star = _criterion_flag(criterion)
    total, grad = _loss_and_grad(z, _target_ids(ys, z.shape[-1]), use_star, penalties, grad_wrt)
    return -total, grad


def _criterion_flag(criterion: str) -> bool:
    if criterion == "rnnt":
        return False
    if criterion == "wst":
        return True
    raise ValueError(f"criterion must be 'rnnt' or 'wst', got {criterion!r}")


class BatchItemError(WstError):
    """Wraps a per-item failure inside batch_loss with the item index."""

    def __init__(self, index: int, cause: Exception):
        self.index = index
        self.cause = cause
        super().__init__(f"item {index}: {cause}")


def batch_loss(
    items: Sequence[Tuple[np.ndarray, Sequence[int]]],
    criterion: str = "rnnt",
    penalties: Optional[PenaltyConfig] = None,
    grad_wrt: str = "logits",
) -> Tuple[List[float], List[np.ndarray], float]:
    """Per-item losses and gradients plus the arithmetic mean loss.

    Items are independent; results are identical to per-item calls regardless
    of batch order. Failures carry the offending item index.
    """
    use_star = _criterion_flag(criterion)
    losses: List[float] = []
    grads: List[np.ndarray] = []
    for i, (logits, tokens) in enumerate(items):
        try:
            loss, grad = _single_loss(logits, tokens, use_star, penalties, grad_wrt)
        except WstError as exc:
            raise BatchItemError(i, exc) from exc
        losses.append(loss)
        grads.append(grad)
    mean = sum(losses) / len(losses) if losses else 0.0
    return losses, grads, mean
