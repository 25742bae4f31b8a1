"""Builders for transcript graphs and training lattices.

Four constructions:

* linear transcript graph (a chain accepting exactly the transcript),
* compact weakly supervised transcript graph (the chain plus star self-loops
  and star bypass arcs; cyclic, export-only),
* standard transducer training lattice over a T x (U+1) grid,
* weakly supervised lattice: the same grid with a token-bypass twin for every
  token arc and a blank-bypass twin for every non-terminating blank arc.

The lattices come from one grid builder and the transcript graphs from one
chain builder: each plain form is the weakly supervised one without star arcs,
and ``penalties is None`` is the switch (``penalties_for`` maps a criterion).

Grid state (t, u) has id t*(U+1)+u; the pre-final state is T*(U+1) and the
final state T*(U+1)+1. The terminating blank arc from (T-1, U) is mandatory
and deliberately has no bypass twin, which keeps the weakly supervised path
set a strict superset of the standard one and preserves the lambda = -inf
reduction.
"""

import math
import warnings
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .exceptions import ShapeMismatch
from .numerics import LN_HALF, star_log_prob
from .vocab import Vocab, check_field_types, validate_transcript
from .wfst import EPSILON, Arc, ArcKind, Wfst


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
        check_field_types(self)
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
    return _chain(vocab, tokens, None)


def build_ws_transcript_graph(vocab: Vocab, tokens: Sequence[int],
                              penalties: Optional[PenaltyConfig]) -> Wfst:
    """Compact weakly supervised transcript graph.

    Every chain state carries a star self-loop (weight lambda2); every token
    arc gets a parallel star bypass arc (weight lambda1). ``None`` penalties
    mean ``PenaltyConfig()``. The result is cyclic and therefore export-only:
    topo_sort rejects it by design.
    """
    return _chain(vocab, tokens, penalties_for("wst", penalties))


def _chain(vocab: Vocab, tokens: Sequence[int], penalties: Optional[PenaltyConfig]) -> Wfst:
    """Transcript chain, with star self-loops and bypass arcs iff penalties are given."""
    validate_transcript(vocab, tokens)
    u_len = len(tokens)
    star = vocab.star_id
    arcs: List[Arc] = []
    for u in range(u_len + 1):
        if penalties is not None:
            arcs.append(Arc(u, u, star, star, penalties.lambda2, ArcKind.BLANK_BYPASS, position=u))
        if u < u_len:
            tok = int(tokens[u])
            arcs.append(Arc(u, u + 1, tok, tok, 0.0, ArcKind.TOKEN, position=u))
            if penalties is not None:
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
    if not (lp < np.inf).all():  # -inf is a zero probability; NaN fails the comparison
        raise ShapeMismatch("log-probabilities must not be NaN or +inf")
    return lp


def penalties_for(criterion: str, penalties: Optional[PenaltyConfig] = None) -> Optional[PenaltyConfig]:
    """The bypass penalties a criterion trains with; None means no bypass arcs.

    ``"rnnt"`` has none. ``"wst"`` uses ``penalties``, or ``PenaltyConfig()``
    when they are not given.
    """
    if criterion == "rnnt":
        return None
    if criterion == "wst":
        return PenaltyConfig() if penalties is None else penalties
    raise ValueError(f"criterion must be 'rnnt' or 'wst', got {criterion!r}")


def build_rnnt_lattice(vocab: Vocab, tokens: Sequence[int], logp) -> Wfst:
    """Standard transducer training lattice: the grid with no bypass arcs."""
    return _grid_lattice(vocab, tokens, logp, None)


def build_wst_lattice(vocab: Vocab, tokens: Sequence[int], logp,
                      penalties: Optional[PenaltyConfig]) -> Wfst:
    """Weakly supervised lattice; ``None`` penalties mean ``PenaltyConfig()``."""
    return _grid_lattice(vocab, tokens, logp, penalties_for("wst", penalties))


def _grid_lattice(vocab: Vocab, tokens: Sequence[int], logp,
                  penalties: Optional[PenaltyConfig]) -> Wfst:
    """Training lattice over the T x (U+1) grid, with bypass twins iff penalties are given.

    Token arcs (t,u)->(t,u+1) emit the next transcript token without advancing
    time; blank arcs (t,u)->(t+1,u) consume a frame. A mandatory final blank
    leads from (T-1, U) to the pre-final state, followed by a zero-weight
    epsilon arc into the final state. With penalties, each token arc gets a
    parallel token-bypass arc (star weight + lambda1) and each non-terminating
    blank arc a parallel blank-bypass arc (star weight + lambda2). The star
    weight at (t, u) is the log of the average non-blank probability of that
    row. The terminating blank has no twin.
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
    star_w = star_log_prob(lp[..., blank], vocab.size)
    arcs: List[Arc] = []
    for t in range(t_len):
        for u in range(cols):
            if u < u_len:
                tok = int(tokens[u])
                arcs.append(Arc(sid(t, u), sid(t, u + 1), tok, tok, float(lp[t, u, tok]),
                                ArcKind.TOKEN, frame=t, position=u))
                if penalties is not None:
                    arcs.append(Arc(sid(t, u), sid(t, u + 1), star, star,
                                    float(star_w[t, u] + penalties.lambda1),
                                    ArcKind.TOKEN_BYPASS, frame=t, position=u))
            if t < t_len - 1:
                arcs.append(Arc(sid(t, u), sid(t + 1, u), blank, EPSILON, float(lp[t, u, blank]),
                                ArcKind.BLANK, frame=t, position=u))
                if penalties is not None:
                    arcs.append(Arc(sid(t, u), sid(t + 1, u), star, star,
                                    float(star_w[t, u] + penalties.lambda2),
                                    ArcKind.BLANK_BYPASS, frame=t, position=u))
    arcs.append(Arc(sid(t_len - 1, u_len), pre_final, blank, EPSILON,
                    float(lp[t_len - 1, u_len, blank]), ArcKind.BLANK, frame=t_len - 1, position=u_len))
    arcs.append(Arc(pre_final, final, EPSILON, EPSILON, 0.0, ArcKind.FINAL))
    return Wfst(num_states=final + 1, start=0, final=final, arcs=arcs)
