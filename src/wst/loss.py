"""Training criteria: standard transducer loss and its weakly supervised variant.

Both losses are the negative log total weight of the corresponding training
lattice, and one kernel computes both: the standard loss is the weakly
supervised one without bypass arcs, selected by ``penalties is None``. The
hot path does not materialize arc objects: it runs the forward-backward
recurrence directly on the T x (U+1) grid, which is mathematically identical
to ``wfst.total_weight`` on the built lattice (the test suite asserts
equality against both the lattice route and exhaustive path enumeration).
A call checks its input once, against the grid contract the builders share.

The recurrence is written once, in ``_alpha_beta``, as a wavefront: cell (t, u)
depends only on (t, u-1) and (t-1, u), so each anti-diagonal d = t + u is one
vector step over arc weights stored skewed, cell (t, u) at (d, u), with -inf
outside the grid. A diagonal is one flat row that holds every item's U+1
cells between -inf pad cells, 2B(U+3) in all, and the arc planes share that
layout, so a step is three 1-D ufunc calls over the row (Bagby et al., SLT
2018, lay out the anti-diagonals the same way). ``_cells`` states the layout
once, as a strided grid view that writes the arc planes and reads the scores.
Arcs into pad cells are -inf, so the pads stay -inf and keep the items apart.
Alpha is the sweep from (0, 0), and beta is the same sweep on the grid
reversed in both axes, run in the same rows as items B..2B-1. The grid ends
in a frame T whose only cell on a path is (T, U), entered by the mandatory
final blank, so the log total weight is alpha at (T, U).
Every cell sees the same operands as a cell-by-cell loop (``logaddexp(-inf,
x) == x``, ``x + 0.0 == x``, and IEEE ``+`` and ``logaddexp`` commute), and
the recurrence is elementwise over the batch axis, so the result is
bit-identical to one. Every path crosses each frame and each transcript
position once, so an item's occupancies sum to 1 over each. That residual is
the one failure test: no path, a lost path count and an overflow raise NoPath.

Gradients are with respect to the logits by default: arc occupancies are
routed through the log-softmax Jacobian, and bypass arcs additionally apply
the star chain rule — the star weight depends on the row only through the
blank log-probability, with d(star)/d(logp_blank) = -p_blank / (1 - p_blank).
Each row of the log-probability sensitivity has at most two nonzero entries,
blank and the row's target, so the kernel returns it as two planes,
``d_blank`` [B, T, U+1] and ``d_tok`` [B, T, U]; no dense sensitivity tensor
is built. The raw log-probability gradient, ``grad_wrt="logprobs"``, is the
two planes subtracted in their own columns from a -0.0 fill.

A call takes one exp per logit, in one pass over cache-sized blocks of whole
rows: it rejects a block with a NaN or infinite entry, takes each row's
maximum m, writes e = exp(z - m) into the one dense [B, T, U+1, V] array a
call allocates, and keeps the row sums S. Every loss and the oracle reach
that finiteness check, after the grid contract. The recurrence reads only
the blank and target planes (the "function merging" of Li et al., ASRU
2019), each entry formed as (z - m) - log S, as log-softmax forms it, so the
losses are a dense log-softmax's to the bit. The logit gradient is e scaled
in place by (d_blank + d_tok) / S, minus the two planes in their columns.
"""

from typing import Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .exceptions import NoPath, ShapeMismatch
from .graphs import PenaltyConfig, _check_grid, item_tensor, penalties_for
from .numerics import NEG_INF, star_log_prob

_CONSERVATION_TOL = 1e-6  # far from both ends: residuals are ~1e-14 on ordinary logits, 1.5e-5 at x1e10
_BLOCK_BYTES = 256 * 1024  # a row block of the dense passes; 64 KB-1 MB ran alike, 4 MB (twice a 2 MB L2) slower


def _row_blocks(*arrays):
    """[rows, width] views of C-contiguous arrays with one leading shape, _BLOCK_BYTES of the first at a time."""
    views = [a.reshape(-1, a.shape[-1]) for a in arrays]
    step = max(1, _BLOCK_BYTES // (views[0].shape[1] * views[0].itemsize))
    for i in range(0, len(views[0]), step):
        yield tuple(v[i:i + step] for v in views)


def _exp_rows(logits) -> Tuple[np.ndarray, ...]:
    """(z, e, m, sums): C-contiguous logits z, row maxima m, e = exp(z - m) and row sums of e (keepdims)."""
    z = np.ascontiguousarray(logits, dtype=float)
    e = np.empty_like(z)
    m, sums = np.empty((2, *z.shape[:-1], 1))
    with np.errstate(over="ignore"):  # only z - m can overflow
        for zb, eb, mb, sb in _row_blocks(z, e, m, sums):  # row-wise steps, so blocks keep the bits
            if not np.isfinite(zb).all():
                raise ShapeMismatch("logits must be finite")
            zb.max(axis=-1, keepdims=True, out=mb)
            np.subtract(zb, mb, out=eb)
            np.exp(eb, out=eb)
            eb.sum(axis=-1, keepdims=True, out=sb)
    return z, e, m, sums


def log_softmax(logits) -> np.ndarray:
    """Numerically stable log-softmax over the last axis, as a C-contiguous array.

    An entry more than about 1.8e308 below its row's maximum overflows to
    -inf, the log of a probability that is 0 in floating point. A 0-d input, an
    empty last axis, or any entry that is NaN, +inf or -inf, raises ShapeMismatch.
    """
    if np.ndim(logits) == 0 or np.shape(logits)[-1] == 0:
        raise ShapeMismatch("log-softmax needs a nonempty axis to normalise over")
    z, out, m, sums = _exp_rows(logits)
    with np.errstate(over="ignore"):
        np.subtract(z, m, out=out)
    out -= np.log(sums)
    return out


def _cells(skewed: np.ndarray, frames: int, cols: int, row: int, col: int) -> np.ndarray:
    """[frames, B, cols] view of [diags, B, width] ``skewed``, cell (t, u) at (row + t + u, col + u).

    It is in bounds if row + frames + cols - 2 < diags and col + cols <= width.
    """
    s_d, s_b, s_c = skewed.strides
    return as_strided(skewed[row:, :, col:], (frames, skewed.shape[1], cols), (s_d, s_b, s_d + s_c))


def _alpha_beta(vert: np.ndarray, horiz: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Forward and backward log scores [B, T+1, U+1] of a grid lattice, one anti-diagonal per step.

    vert [B, T, U] weighs the arcs (t, u) -> (t, u+1), horiz [B, T, U+1] the
    arcs (t, u) -> (t+1, u); a skewed plane holds each arc in the column of the cell it enters.
    """
    b_sz, t_len, u_len = vert.shape
    cols = u_len + 1
    a = np.full((t_len + cols, 2 * b_sz, cols + 2), NEG_INF)
    a[0, :, 1] = 0.0
    vs, hs = np.full((2, *a.shape), NEG_INF)  # apart from a, which alpha and beta keep alive
    # frame 0 of the reversed grid is frame T, which has no vert arcs
    _cells(vs[:, :b_sz], t_len, u_len, 0, 2)[...] = vert.transpose(1, 0, 2)
    _cells(vs[:, b_sz:], t_len, u_len, 1, 2)[...] = vert[:, ::-1, ::-1].transpose(1, 0, 2)
    _cells(hs[:, :b_sz], t_len, cols, 0, 1)[...] = horiz.transpose(1, 0, 2)
    _cells(hs[:, b_sz:], t_len, cols, 0, 1)[...] = horiz[:, ::-1, ::-1].transpose(1, 0, 2)
    rows, vs, hs = (x.reshape(len(x), -1) for x in (a, vs, hs))
    t1, t2 = np.empty((2, rows.shape[1] - 2))
    for left, mid, v, h, cur in zip(rows[:-1, :-2], rows[:-1, 1:-1], vs[:-1, 1:-1], hs[:-1, 1:-1],
                                    rows[1:, 1:-1]):
        np.add(left, v, out=t1)
        np.add(mid, h, out=t2)
        np.logaddexp(t1, t2, out=cur)
    scores = _cells(a, t_len + 1, cols, 0, 1).transpose(1, 0, 2)  # [2B, T+1, U+1]
    return scores[:b_sz], scores[b_sz:, ::-1, ::-1]


def _occupancy(alpha_src: np.ndarray, arc: np.ndarray, beta_dst: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Posterior arc occupancy exp(alpha + arc + beta - total); exactly 0 off every path."""
    log_g = alpha_src + arc + beta_dst
    return np.where(log_g == NEG_INF, 0.0, np.exp(log_g - total[:, None, None]))


def _check_conservation(gamma_vert: np.ndarray, gamma_horiz: np.ndarray) -> None:
    """Raise NoPath for an item whose twin occupancies break conservation: the kernel's one failure test.

    Every path crosses each frame once and each transcript position once, so
    gamma_horiz sums to 1 over u in every frame and gamma_vert to 1 over t at
    every position; the residual is about 1e-14 on ordinary input. It is
    exactly 1 for an item with no path, whose occupancies are all 0; large but
    finite where the path weights' log-sum loses their count; inf or NaN where
    exp overflowed. An item that passes has finite gradient planes.
    """
    residual = np.maximum(np.abs(gamma_horiz.sum(axis=2) - 1.0).max(axis=1),
                          np.abs(gamma_vert.sum(axis=1) - 1.0).max(axis=1, initial=0.0))
    bad = ~(residual <= _CONSERVATION_TOL)  # a NaN residual fails too
    if bad.any():
        item = int(np.argmax(bad))
        fault = "do not sum to 1 per frame and position" if np.isfinite(residual[item]) else "overflowed"
        raise NoPath(f"arc occupancies of item {item} {fault} (residual {residual[item]:.3g})")


def _plain_share(gamma: np.ndarray, plain: np.ndarray, arc: np.ndarray) -> np.ndarray:
    """The part of occupancy ``gamma`` taken by the plain arc of a twin whose log-sum is ``arc``."""
    return np.where(gamma > 0.0, gamma * np.exp(plain - arc), 0.0)


def _grid_loss_grad(blank: np.ndarray, tok: np.ndarray, v_size: int,
                    penalties: Optional[PenaltyConfig]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forward-backward over the (t, u) grid for a batch of equal-shape items.

    blank [B, T, U+1] and tok [B, T, U] are the log-probabilities of blank and
    of each row's target, over ``v_size`` symbols. With ``penalties`` None the
    grid has no bypass arcs; otherwise each arc weight is the log-sum of the
    arc and its bypass twin. Returns (log total weight [B], d_blank, d_tok):
    d(log total)/d(blank) and d(log total)/d(tok).
    """
    t_len, u_len = tok.shape[1:]
    if penalties is None:
        vert, horiz = tok, blank
    else:
        # star is finite or -inf and lambda is never +inf, so no sum is NaN
        star = star_log_prob(blank, v_size)  # [B, T, U+1]
        vert = np.logaddexp(tok, star[:, :, :u_len] + penalties.lambda1)
        # No self-loop is unrolled out of the last frame, so the final blank has no twin. Like
        # the plain blanks (<= 0) out of frame T-1 at u < U, these arcs would end in cells that
        # reach nothing, but under a penalty near the float maximum alpha + arc overflows on
        # them, and their NaN occupancy would turn a finite loss into NoPath.
        blank_bypass = star + penalties.lambda2
        blank_bypass[:, -1] = NEG_INF
        horiz = np.logaddexp(blank, blank_bypass)
    alpha, beta = _alpha_beta(vert, horiz)
    total = alpha[:, t_len, u_len]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        gamma_vert = _occupancy(alpha[:, :t_len, :u_len], vert, beta[:, :t_len, 1:], total)
        gamma_horiz = _occupancy(alpha[:, :t_len], horiz, beta[:, 1:], total)
        _check_conservation(gamma_vert, gamma_horiz)
        if penalties is None:
            return total, gamma_horiz, gamma_vert

        gamma_tok = _plain_share(gamma_vert, tok, vert)
        gamma_blank = _plain_share(gamma_horiz, blank, horiz)
        gamma_star = gamma_horiz - gamma_blank
        gamma_star[:, :, :u_len] += gamma_vert - gamma_tok
        # d(star)/d(logp_blank) = -p/(1-p) is finite unless blank == 0; there star is
        # -inf, so gamma_star is exactly 0 and the mask drops the infinite factor.
        factor = np.exp(blank) / np.expm1(blank)
        d_blank = gamma_blank + np.where(gamma_star > 0.0, gamma_star * factor, 0.0)
    return total, d_blank, gamma_tok


def _write_grad(e: np.ndarray, sums: np.ndarray, d_blank: np.ndarray, d_tok: np.ndarray,
                flat: np.ndarray, wrt_logits: bool) -> np.ndarray:
    """-d(log total)/d(logits), or /d(lp) if not ``wrt_logits``, written over e = exp(z - m).

    A row of the dense sensitivity dlp has only the blank and target nonzeros,
    so -(dlp - softmax * dlp.sum(-1)) is e * ((d_blank + d_tok) / sums) minus
    the two planes in their columns (-(a - b) == b - a, up to the sign of 0).
    The log-probability gradient starts from -0.0, and -0.0 - x == -x, so it
    is -0.0 off every arc. The targets ``e.reshape(-1)[flat]`` are distinct and never in column 0.
    """
    if wrt_logits:
        scale = d_blank.copy()
        scale[:, :, :d_tok.shape[2]] += d_tok
        scale /= sums[..., 0]
        e *= scale[..., None]
    else:
        e.fill(-0.0)
    e[..., 0] -= d_blank
    e.reshape(-1)[flat] -= d_tok
    return e


def _single_loss(logits, tokens, criterion, penalties, grad_wrt) -> Tuple[float, np.ndarray]:
    """``batched_grid_loss`` on a batch of one [T, U+1, V] item, which checks the rest."""
    z = item_tensor(logits)
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
    batch axis). Input that breaks the grid contract, ``graphs._check_grid``,
    raises its ShapeMismatch or VocabError, and then non-finite logits raise
    ShapeMismatch. An item whose arc occupancies do not sum to 1 over each
    frame and each position raises NoPath: no path, a lost path count or an
    overflow. Otherwise the loss and gradient are finite. ``penalties`` are
    ignored for ``"rnnt"``; for ``"wst"``, None means ``PenaltyConfig()``.
    """
    z = np.asarray(logits, dtype=float)
    if z.ndim != 4:
        raise ShapeMismatch(f"expected a [B][T][U+1][|V|] tensor, got {z.ndim} dimensions")
    pen = penalties_for(criterion, penalties)
    if grad_wrt not in ("logits", "logprobs"):
        raise ValueError(f"grad_wrt must be 'logits' or 'logprobs', got {grad_wrt!r}")
    ys = _check_grid(z, ys)
    z, e, m, sums = _exp_rows(z)
    v_size = z.shape[-1]
    flat = np.arange(0, z.size, v_size).reshape(z.shape[:-1])[:, :, :-1] + ys[:, None, :]  # target entries
    m, log_sums = m[..., 0], np.log(sums[..., 0])
    with np.errstate(over="ignore"):  # the two planes' entries are formed as log_softmax forms them
        blank = z[..., 0] - m - log_sums
        tok = z.reshape(-1)[flat] - m[:, :, :-1] - log_sums[:, :, :-1]
    total, d_blank, d_tok = _grid_loss_grad(blank, tok, v_size, pen)
    return -total, _write_grad(e, sums, d_blank, d_tok, flat, grad_wrt == "logits")

