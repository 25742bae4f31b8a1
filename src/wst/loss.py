"""Training criteria: standard transducer loss and its weakly supervised variant.

Both losses are the negative log total weight of the corresponding training
lattice, and one kernel computes both: the standard loss is the weakly
supervised one without bypass arcs, selected by ``penalties is None``. The
hot path does not materialize arc objects: it runs the forward-backward
recurrence directly on the T x (U+1) grid, which is mathematically identical
to ``wfst.total_weight`` on the built lattice (the test suite asserts
equality against both the lattice route and exhaustive path enumeration).

The recurrence is written once, in ``_sweep``, as a wavefront: cell (t, u)
depends only on (t, u-1) and (t-1, u), so each anti-diagonal d = t + u is one
vector step over arc weights stored skewed, cell (t, u) at (d, u), with -inf
outside the grid. Alpha is the sweep from (0, 0), and beta is the same sweep
on the grid reversed in both axes; one sweep computes both, over the forward
and reversed planes stacked on the batch axis (2B rows), and splits them
afterwards. The grid ends in a frame T whose only reachable cell is (T, U):
the mandatory final blank is the one arc into it, with no bypass twin, so the
log total weight is alpha at (T, U). Every cell sees the same operands as a
cell-by-cell loop (``logaddexp(-inf, x) == x``, ``x + 0.0 == x``, and IEEE
``+`` and ``logaddexp`` commute), and the recurrence is elementwise over the
batch axis, so the result is bit-identical to one.

Gradients are with respect to the logits by default: arc occupancies are
routed through the log-softmax Jacobian, and bypass arcs additionally apply
the star chain rule — the star weight depends on the row only through the
blank log-probability, with d(star)/d(logp_blank) = -p_blank / (1 - p_blank).
Each row of the log-probability sensitivity has at most two nonzero entries,
blank and the row's target, so the kernel returns it as two planes,
``d_blank`` [B, T, U+1] and ``d_tok`` [B, T, U]. The logit gradient is then
softmax * (d_blank + d_tok) minus the two planes in their own columns; no
dense sensitivity tensor is built. Target entries are read and written
through one flat index into the C-contiguous log-probabilities. The raw
log-probability-level gradient (plain occupancy accumulation) is available via
``grad_wrt="logprobs"``.
"""

from typing import Optional, Sequence, Tuple

import numpy as np

from .exceptions import NoPath, ShapeMismatch
from .graphs import PenaltyConfig, penalties_for
from .numerics import NEG_INF, star_log_prob
from .vocab import Vocab, validate_transcript


def log_softmax(logits) -> np.ndarray:
    """Numerically stable log-softmax over the last axis, as a C-contiguous array.

    An entry more than about 1.8e308 below its row's maximum overflows to
    -inf, the log of a probability that is 0 in floating point.
    """
    z = np.ascontiguousarray(logits, dtype=float)
    m = z.max(axis=-1, keepdims=True)
    with np.errstate(over="ignore"):
        shifted = z - m
    shifted -= np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return shifted


def _skew(plane: np.ndarray, diags: int, col_offset: int, width: int) -> np.ndarray:
    """[B, T', C] grid plane -> [diags, B, width], cell (t, u) at (t + u, u + col_offset).

    Everything else is -inf. The diagonal axis comes first so that one
    diagonal is a contiguous block.
    """
    out = np.full((diags, plane.shape[0], width), NEG_INF)
    for u in range(plane.shape[2]):
        out[u:u + plane.shape[1], :, u + col_offset] = plane[:, :, u].T
    return out


def _sweep(vert: np.ndarray, horiz: np.ndarray) -> np.ndarray:
    """Forward log scores of a grid lattice from (0, 0), one anti-diagonal per step.

    vert [B, S, U] weighs the arcs (t, u) -> (t, u+1), horiz [B, S-1, U+1] the
    arcs (t, u) -> (t+1, u); returns [B, S, U+1]. Skewed scores carry a -inf
    column each side of the U+1 cells (cell u at column u+1), and vs one at each
    end of the U vertical arcs, so vs[d, :-1] lines up an arc with the cell it enters.
    """
    b_sz, frames, u_len = vert.shape
    cols, diags = u_len + 1, frames + u_len
    vs = _skew(vert, diags, 1, cols + 1)
    hs = _skew(horiz, diags, 0, cols)
    a = np.full((diags, b_sz, cols + 2), NEG_INF)
    a[0, :, 1] = 0.0
    for d in range(1, diags):
        prev = a[d - 1]
        np.logaddexp(prev[:, :-2] + vs[d - 1, :, :-1], prev[:, 1:-1] + hs[d - 1],
                     out=a[d, :, 1:-1])
    t_ix = np.arange(frames)[:, None]
    u_ix = np.arange(cols)[None, :]
    return np.moveaxis(a[t_ix + u_ix, :, u_ix + 1], -1, 0)


def _occupancy(alpha_src: np.ndarray, arc: np.ndarray, beta_dst: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Posterior arc occupancy exp(alpha + arc + beta - total); exactly 0 off every path."""
    log_g = alpha_src + arc + beta_dst
    return np.where(log_g == NEG_INF, 0.0, np.exp(log_g - total[:, None, None]))


def _plain_share(gamma: np.ndarray, plain: np.ndarray, arc: np.ndarray) -> np.ndarray:
    """The part of occupancy ``gamma`` taken by the plain arc of a twin whose log-sum is ``arc``."""
    return np.where(gamma > 0.0, gamma * np.exp(plain - arc), 0.0)


def _grid_loss_grad(
    lp: np.ndarray,
    ys: np.ndarray,
    penalties: Optional[PenaltyConfig],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Forward-backward over the (t, u) grid for a batch of equal-shape items.

    lp: [B, T, U+1, V] C-contiguous log-probabilities; ys: [B, U] token ids,
    none of them 0. With ``penalties`` None the grid has no bypass arcs and no
    star weight is computed; otherwise each arc weight is the log-sum of the
    arc and its bypass twin.
    Returns (log total weight [B], d_blank [B, T, U+1], d_tok [B, T, U],
    flat [B, T, U]): the sensitivity d(log total)/d(lp) is d_blank in the
    blank column, d_tok at the target entries ``lp.reshape(-1)[flat]``, and
    zero elsewhere.
    """
    b_sz, t_len, cols, v_size = lp.shape
    u_len = cols - 1
    blank = lp[..., 0]  # [B, T, U+1]
    rows = np.arange(b_sz * t_len * cols).reshape(b_sz, t_len, cols)[:, :, :u_len]
    flat = rows * v_size + ys[:, None, :]
    tok = lp.reshape(-1)[flat]

    if penalties is None:
        vert, horiz = tok, blank.copy()
    else:
        # star is finite or -inf and lambda is never +inf, so no sum is NaN
        star = star_log_prob(blank, v_size)  # [B, T, U+1]
        vert = np.logaddexp(tok, star[:, :, :u_len] + penalties.lambda1)
        horiz = np.logaddexp(blank, star + penalties.lambda2)
    # The grid ends in frame T, whose only reachable cell is (T, U): the
    # mandatory final blank is the one arc out of frame T-1, with no twin.
    horiz[:, -1, :] = NEG_INF
    horiz[:, -1, -1] = blank[:, -1, -1]
    vert_end = np.concatenate([vert, np.full((b_sz, 1, u_len), NEG_INF)], axis=1)

    # beta is the forward pass of the reversed grid; both run in one sweep,
    # the reversed planes stacked after the forward ones on the batch axis
    scores = _sweep(np.concatenate([vert_end, vert_end[:, ::-1, ::-1]]),
                    np.concatenate([horiz, horiz[:, ::-1, ::-1]]))  # [2B, T+1, U+1]
    alpha, beta = scores[:b_sz], scores[b_sz:, ::-1, ::-1]
    total = alpha[:, t_len, u_len]
    if (total == NEG_INF).any():  # only after log_softmax overflowed; occupancy divides by the total
        raise NoPath(f"lattice of item {int(np.argmax(total == NEG_INF))} admits no accepting path")
    # Huge logits can overflow exp here; the caller rejects a non-finite result.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        gamma_vert = _occupancy(alpha[:, :t_len, :u_len], vert, beta[:, :t_len, 1:], total)
        gamma_horiz = _occupancy(alpha[:, :t_len], horiz, beta[:, 1:], total)
        if penalties is None:
            return total, gamma_horiz, gamma_vert, flat

        gamma_tok = _plain_share(gamma_vert, tok, vert)
        gamma_blank = _plain_share(gamma_horiz, blank, horiz)
        gamma_star = gamma_horiz - gamma_blank
        gamma_star[:, :, :u_len] += gamma_vert - gamma_tok
        # d(star)/d(logp_blank) = -p_blank / (1 - p_blank); zero occupancy rows
        # contribute nothing even where the factor would blow up.
        p_blank = np.exp(blank)
        factor = p_blank / np.expm1(blank)  # = -p/(1-p)
        d_blank = gamma_blank + np.where(gamma_star > 0.0, gamma_star * factor, 0.0)
    return total, d_blank, gamma_tok, flat


def _logit_grad(lp: np.ndarray, d_blank: np.ndarray, d_tok: np.ndarray, flat: np.ndarray) -> np.ndarray:
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
    g.reshape(-1)[flat] -= d_tok
    return g


def _logprob_grad(lp: np.ndarray, d_blank: np.ndarray, d_tok: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """-d(log total)/d(lp): the negated dense arc occupancies."""
    dlp = np.zeros_like(lp)
    dlp[..., 0] = d_blank
    dlp.reshape(-1)[flat] = d_tok
    return -dlp


def _finite_logits(logits) -> np.ndarray:
    """``logits`` as a float array; ShapeMismatch unless every entry is finite."""
    z = np.asarray(logits, dtype=float)
    if not np.isfinite(z).all():
        raise ShapeMismatch("logits must be finite")
    return z


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
    _finite_logits(z)
    bad = (ys < 1) | (ys >= v_size)
    if bad.any():
        validate_transcript(Vocab(v_size), ys[int(np.argmax(bad.any(axis=1)))])


def _target_ids(ys, v_size: int) -> np.ndarray:
    """Target ids as an int array; a bool, non-integral or too large id is out of vocabulary."""
    arr = np.asarray(ys)
    if arr.dtype.kind != "i" and arr.size:
        rows = np.atleast_2d(np.asarray(ys, dtype=object))
        for row in rows.reshape(-1, rows.shape[-1]):
            validate_transcript(Vocab(max(v_size, 2)), row)
    return arr.astype(int, copy=False)


def _item_logits(logits, tokens: Sequence[int]) -> np.ndarray:
    """One item's [T, U+1, V] logits as a float array, checked as a batch of one."""
    z = np.asarray(logits, dtype=float)
    if z.ndim != 3:
        raise ShapeMismatch(f"expected a [T][U+1][|V|] logit tensor, got {z.ndim} dimensions")
    _check_grid(z[None], _target_ids([list(tokens)], z.shape[-1]))
    return z


def _single_loss(logits, tokens, criterion, penalties, grad_wrt) -> Tuple[float, np.ndarray]:
    """``batched_grid_loss`` on a batch of one [T, U+1, V] item."""
    z = _item_logits(logits, tokens)
    loss, grad = batched_grid_loss(z[None], [list(tokens)], criterion, penalties, grad_wrt)
    return float(loss[0]), grad[0]


def rnnt_loss(logits, tokens: Sequence[int], grad_wrt: str = "logits") -> Tuple[float, np.ndarray]:
    """Standard transducer loss -log P(y|x) and its gradient.

    ``logits`` is a [T][U+1][|V|] tensor of unnormalized scores; row-wise
    log-softmax is applied internally.
    """
    return _single_loss(logits, tokens, "rnnt", None, grad_wrt)


def wst_loss(
    logits,
    tokens: Sequence[int],
    penalties: Optional[PenaltyConfig],
    grad_wrt: str = "logits",
) -> Tuple[float, np.ndarray]:
    """Weakly supervised transducer loss over the bypass-augmented lattice.

    ``None`` penalties mean ``PenaltyConfig()``. With both penalties at -inf
    this reduces exactly (bit-for-bit) to ``rnnt_loss``. For finite penalties the loss is strictly below the
    standard loss, since the path set is a strict superset.
    """
    return _single_loss(logits, tokens, "wst", penalties, grad_wrt)


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
    batch axis). Non-finite logits or mismatched shapes raise ShapeMismatch,
    and a blank or out-of-vocabulary target raises the VocabError of
    ``validate_transcript``. Finite logits so large that log-softmax leaves an
    item no path, or that its arc occupancies overflow, raise NoPath.
    ``penalties`` are ignored for ``"rnnt"``; for ``"wst"``, None means
    ``PenaltyConfig()``.
    """
    z = np.asarray(logits, dtype=float)
    if z.ndim != 4:
        raise ShapeMismatch(f"expected a [B][T][U+1][|V|] tensor, got {z.ndim} dimensions")
    pen = penalties_for(criterion, penalties)
    ys = _target_ids(ys, z.shape[-1])
    if grad_wrt not in ("logits", "logprobs"):
        raise ValueError(f"grad_wrt must be 'logits' or 'logprobs', got {grad_wrt!r}")
    _check_grid(z, ys)
    lp = log_softmax(z)
    total, d_blank, d_tok, flat = _grid_loss_grad(lp, ys, pen)
    bad = ~(np.isfinite(d_blank).all(axis=(1, 2)) & np.isfinite(d_tok).all(axis=(1, 2)))
    if bad.any():  # exp overflowed in the occupancy step of huge logits
        raise NoPath(f"arc occupancies of item {int(np.argmax(bad))} overflowed")
    grad_fn = _logit_grad if grad_wrt == "logits" else _logprob_grad
    return -total, grad_fn(lp, d_blank, d_tok, flat)

