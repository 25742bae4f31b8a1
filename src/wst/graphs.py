"""Builders for transcript graphs and training lattices.

Four constructions:

* linear transcript graph (a chain accepting exactly the transcript),
* compact weakly supervised transcript graph (the chain plus star self-loops
  and star bypass arcs; cyclic, export-only),
* standard transducer training lattice over a T x (U+1) grid,
* weakly supervised lattice: the same grid with a token-bypass twin for every
  token arc and a blank-bypass twin for every non-terminating blank arc.

Grid state (t, u) has id t*(U+1)+u; the pre-final state is T*(U+1) and the
final state T*(U+1)+1. The terminating blank arc from (T-1, U) is mandatory
and deliberately has no bypass twin, which keeps the weakly supervised path
set a strict superset of the standard one and preserves the lambda = -inf
reduction.
"""

import math
import warnings
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .exceptions import ShapeMismatch
from .numerics import NEG_INF, star_log_prob
from .vocab import Vocab, validate_transcript
from .wfst import EPSILON, Arc, ArcKind, Wfst

LN_HALF = math.log(0.5)


@dataclass(frozen=True)
class PenaltyConfig:
    """Constant log-domain penalties for bypass arcs.

    ``lambda1`` discounts token bypass arcs, ``lambda2`` blank bypass arcs.
    Both are fixed across epochs. -inf disables the arcs entirely. Finite
    positive values are accepted with a warning (they reward bypassing); +inf
    is rejected, since it would make a bypass path infinitely likely.
    """

    lambda1: float = LN_HALF
    lambda2: float = LN_HALF

    def __post_init__(self):
        for name in ("lambda1", "lambda2"):
            v = getattr(self, name)
            if math.isnan(v):
                raise ValueError(f"{name} must not be NaN")
            if v == math.inf:
                raise ValueError(f"{name} must not be +inf")
            if v > 0:
                warnings.warn(f"{name}={v} is positive; bypass arcs will be rewarded, not penalized")


def build_transcript_graph(vocab: Vocab, tokens: Sequence[int]) -> Wfst:
    """Linear chain accepting exactly the transcript, ending in an epsilon final arc."""
    validate_transcript(vocab, tokens)
    u_len = len(tokens)
    arcs: List[Arc] = []
    for u, tok in enumerate(tokens):
        arcs.append(Arc(u, u + 1, int(tok), int(tok), 0.0, ArcKind.TOKEN, position=u))
    final = u_len + 1
    arcs.append(Arc(u_len, final, EPSILON, EPSILON, 0.0, ArcKind.FINAL))
    return Wfst(num_states=u_len + 2, start=0, final=final, arcs=arcs)


def build_ws_transcript_graph(vocab: Vocab, tokens: Sequence[int], penalties: PenaltyConfig) -> Wfst:
    """Compact weakly supervised transcript graph.

    Every chain state carries a star self-loop (weight lambda2); every token
    arc gets a parallel star bypass arc (weight lambda1). The result is cyclic
    and therefore export-only: topo_sort rejects it by design.
    """
    validate_transcript(vocab, tokens)
    u_len = len(tokens)
    star = vocab.star_id
    arcs: List[Arc] = []
    for u in range(u_len + 1):
        arcs.append(Arc(u, u, star, star, penalties.lambda2, ArcKind.BLANK_BYPASS, position=u))
        if u < u_len:
            tok = int(tokens[u])
            arcs.append(Arc(u, u + 1, tok, tok, 0.0, ArcKind.TOKEN, position=u))
            arcs.append(Arc(u, u + 1, star, star, penalties.lambda1, ArcKind.TOKEN_BYPASS, position=u))
    final = u_len + 1
    arcs.append(Arc(u_len, final, EPSILON, EPSILON, 0.0, ArcKind.FINAL))
    return Wfst(num_states=u_len + 2, start=0, final=final, arcs=arcs)


def _check_tensor(vocab: Vocab, tokens: Sequence[int], logp) -> np.ndarray:
    lp = np.asarray(logp, dtype=float)
    if lp.ndim != 3:
        raise ShapeMismatch(f"expected a [T][U+1][|V|] tensor, got {lp.ndim} dimensions")
    t_len, rows, v = lp.shape
    if t_len < 1:
        raise ShapeMismatch("need at least one frame")
    if rows != len(tokens) + 1:
        raise ShapeMismatch(f"tensor has {rows} transcript rows, expected U+1={len(tokens) + 1}")
    if v != vocab.size:
        raise ShapeMismatch(f"tensor vocabulary axis is {v}, expected |V|={vocab.size}")
    return lp


def build_rnnt_lattice(vocab: Vocab, tokens: Sequence[int], logp) -> Wfst:
    """Standard transducer training lattice.

    Token arcs (t,u)->(t,u+1) emit the next transcript token without advancing
    time; blank arcs (t,u)->(t+1,u) consume a frame. A mandatory final blank
    leads from (T-1, U) to the pre-final state, followed by a zero-weight
    epsilon arc into the final state.
    """
    validate_transcript(vocab, tokens)
    lp = _check_tensor(vocab, tokens, logp)
    t_len = lp.shape[0]
    u_len = len(tokens)
    cols = u_len + 1

    def sid(t: int, u: int) -> int:
        return t * cols + u

    pre_final = t_len * cols
    final = pre_final + 1
    blank = vocab.blank_id
    arcs: List[Arc] = []
    for t in range(t_len):
        for u in range(cols):
            if u < u_len:
                tok = int(tokens[u])
                arcs.append(Arc(sid(t, u), sid(t, u + 1), tok, tok, float(lp[t, u, tok]),
                                ArcKind.TOKEN, frame=t, position=u))
            if t < t_len - 1:
                arcs.append(Arc(sid(t, u), sid(t + 1, u), blank, EPSILON, float(lp[t, u, blank]),
                                ArcKind.BLANK, frame=t, position=u))
    arcs.append(Arc(sid(t_len - 1, u_len), pre_final, blank, EPSILON,
                    float(lp[t_len - 1, u_len, blank]), ArcKind.BLANK, frame=t_len - 1, position=u_len))
    arcs.append(Arc(pre_final, final, EPSILON, EPSILON, 0.0, ArcKind.FINAL))
    return Wfst(num_states=final + 1, start=0, final=final, arcs=arcs)


def build_wst_lattice(vocab: Vocab, tokens: Sequence[int], logp, penalties: PenaltyConfig) -> Wfst:
    """Weakly supervised lattice: the standard grid plus star bypass twins.

    Each token arc gets a parallel token-bypass arc (star weight + lambda1);
    each non-terminating blank arc gets a parallel blank-bypass arc (star
    weight + lambda2). The star weight at (t, u) is the log of the average
    non-blank probability of that row. The terminating blank has no twin.
    """
    validate_transcript(vocab, tokens)
    lp = _check_tensor(vocab, tokens, logp)
    t_len = lp.shape[0]
    u_len = len(tokens)
    cols = u_len + 1

    def sid(t: int, u: int) -> int:
        return t * cols + u

    pre_final = t_len * cols
    final = pre_final + 1
    blank = vocab.blank_id
    star = vocab.star_id
    arcs: List[Arc] = []
    for t in range(t_len):
        for u in range(cols):
            star_w = star_log_prob(float(lp[t, u, blank]), vocab.size)
            if u < u_len:
                tok = int(tokens[u])
                arcs.append(Arc(sid(t, u), sid(t, u + 1), tok, tok, float(lp[t, u, tok]),
                                ArcKind.TOKEN, frame=t, position=u))
                arcs.append(Arc(sid(t, u), sid(t, u + 1), star, star,
                                _add_penalty(star_w, penalties.lambda1),
                                ArcKind.TOKEN_BYPASS, frame=t, position=u))
            if t < t_len - 1:
                arcs.append(Arc(sid(t, u), sid(t + 1, u), blank, EPSILON, float(lp[t, u, blank]),
                                ArcKind.BLANK, frame=t, position=u))
                arcs.append(Arc(sid(t, u), sid(t + 1, u), star, star,
                                _add_penalty(star_w, penalties.lambda2),
                                ArcKind.BLANK_BYPASS, frame=t, position=u))
    arcs.append(Arc(sid(t_len - 1, u_len), pre_final, blank, EPSILON,
                    float(lp[t_len - 1, u_len, blank]), ArcKind.BLANK, frame=t_len - 1, position=u_len))
    arcs.append(Arc(pre_final, final, EPSILON, EPSILON, 0.0, ArcKind.FINAL))
    return Wfst(num_states=final + 1, start=0, final=final, arcs=arcs)


def _add_penalty(star_w: float, lam: float) -> float:
    # -inf + -inf must stay -inf, never NaN
    if star_w == NEG_INF or lam == NEG_INF:
        return NEG_INF
    return star_w + lam
