"""Builders for transcript graphs and training lattices.

Four constructions:

* linear transcript graph (a chain accepting exactly the transcript),
* compact weakly supervised transcript graph (the chain plus star self-loops
  and star bypass arcs; cyclic, export-only),
* standard transducer training lattice over a T x (U+1) grid,
* weakly supervised lattice: the same grid with the star arcs unrolled too.

All four come from one chain builder: a lattice is its transcript graph
unrolled over the frames, and a plain form is the weakly supervised one without
star arcs, switched by ``penalties is None`` (``penalties_for`` maps a criterion).
``_check_grid`` is the one input contract of a score grid and its transcript,
checked once by the grid builder, the loss kernel and the oracle alike.

Grid state (t, u) has id t*(U+1)+u; the pre-final state is T*(U+1) and the
final state T*(U+1)+1. The terminating blank arc from (T-1, U) is mandatory
and deliberately has no bypass twin (no self-loop is unrolled out of the last
frame), which keeps the weakly supervised path set a strict superset of the
standard one and preserves the lambda = -inf reduction.
"""

import math
import warnings
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

from .exceptions import ShapeMismatch
from .vocab import Vocab, check_field_types, validate_transcript
from .wfst import EPSILON, Arc, ArcKind, Wfst

LN_HALF = math.log(0.5)


def star_log_prob(log_p_blank, vocab_size: int):
    """Log of the average non-blank probability, the star arc's weight: log((1 - p_blank) / (|V| - 1)).

    Elementwise on an array of blank log-probabilities; a scalar gives a float.
    Returns -inf where blank takes all the mass (log_p_blank >= 0). A NaN
    entry or a vocabulary of fewer than two symbols raises ValueError.
    """
    if vocab_size < 2:
        raise ValueError("vocab_size must be at least 2")
    if np.isnan(log_p_blank).any():
        raise ValueError("log_p_blank must not be NaN")
    with np.errstate(divide="ignore"):
        out = np.log(-np.expm1(np.minimum(log_p_blank, 0.0))) - math.log(vocab_size - 1)
    return float(out) if np.ndim(out) == 0 else out


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


def item_tensor(scores) -> np.ndarray:
    """One item's scores as a float array; ShapeMismatch unless it is [T, U+1, V]."""
    z = np.asarray(scores, dtype=float)
    if z.ndim != 3:
        raise ShapeMismatch(f"expected a [T][U+1][|V|] tensor, got {z.ndim} dimensions")
    return z


def _check_grid(scores: np.ndarray, ys) -> np.ndarray:
    """The grid contract: [B, T, U+1, V] scores, V >= 2 and T >= 1, and [B, U] ids; returns int ids.

    A bad id raises the VocabError of ``validate_transcript`` for the first bad row.
    Finiteness is the caller's: logits and log-probabilities admit different values.
    """
    b_sz, t_len, cols, v_size = scores.shape
    if v_size < 2:
        raise ShapeMismatch("vocabulary axis must have size >= 2")
    if t_len < 1:
        raise ShapeMismatch("need at least one frame")
    fast = isinstance(ys, np.ndarray) and ys.dtype.kind == "i"  # a list may hide a bool among ints
    ids = ys if fast else np.asarray(ys, dtype=object)
    if ids.ndim != 2 or ids.shape[0] != b_sz:
        raise ShapeMismatch(f"expected [B][U] targets with B={b_sz}, got shape {ids.shape}")
    if ids.shape[1] + 1 != cols:
        raise ShapeMismatch(f"tensor has {cols} transcript rows, expected U+1={ids.shape[1] + 1}")
    bad = ((ids < 1) | (ids >= v_size)).any(axis=1) if fast else np.ones(b_sz, bool)
    for row in ids[bad]:  # an object row that passes is a row of integral ids
        validate_transcript(Vocab(v_size), row)
    return ids.astype(int, copy=False)


def penalties_for(criterion: str, penalties: Optional[PenaltyConfig] = None) -> Optional[PenaltyConfig]:
    """The bypass penalties a criterion trains with; None means no bypass arcs.

    ``"rnnt"`` has none. ``"wst"`` uses ``penalties``, or ``PenaltyConfig()``
    when they are not given. Penalties that are neither raise ValueError.
    """
    if penalties is not None and not isinstance(penalties, PenaltyConfig):
        raise ValueError(f"penalties must be a PenaltyConfig or None, got {penalties!r}")
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
    """Training lattice: the transcript chain ``_chain(vocab, tokens, penalties)`` unrolled over frames.

    Grid state (t, u) is chain state u at frame t. A chain arc u -> u+1 (a token
    or its bypass) becomes (t, u) -> (t, u+1) in every frame; the plain blank and
    each self-loop of u (the blank bypass) become (t, u) -> (t+1, u) for t < T-1.
    The plain blank of (T-1, U) is the mandatory final blank into the pre-final
    state; the chain's final arc becomes the epsilon arc into the final state.
    An arc's weight is its chain weight plus the log-probability of its label
    in row (t, u); the plain blank's chain weight is 0. The star is one extra
    column, ``star_log_prob`` of the blank column, at index |V|.
    """
    lp = item_tensor(logp)
    if lp.shape[-1] != vocab.size:
        raise ShapeMismatch(f"tensor vocabulary axis is {lp.shape[-1]}, expected |V|={vocab.size}")
    tokens = _check_grid(lp[None], [list(tokens)])[0]
    if not (lp < np.inf).all():  # -inf is a zero probability; NaN fails the comparison
        raise ShapeMismatch("log-probabilities must not be NaN or +inf")
    t_len, cols, _ = lp.shape
    blank = vocab.blank_id
    rows = np.concatenate([lp, star_log_prob(lp[..., blank], vocab.size)[..., None]], axis=-1).tolist()
    # per chain state: the arcs that emit (u -> u+1), then those that consume a frame (u -> u)
    emit: List[List[Arc]] = [[] for _ in range(cols)]
    wait = [[Arc(u, u, blank, EPSILON, 0.0, ArcKind.BLANK, position=u)] for u in range(cols)]
    *chain, last = _chain(vocab, tokens, penalties).arcs
    for a in chain:
        (wait if a.dst == a.src else emit)[a.src].append(a)

    def at(a: Arc, t: int, dst: int) -> Arc:  # chain arc a read in row (t, a.src)
        return Arc(t * cols + a.src, dst, a.label, a.olabel, a.weight + rows[t][a.src][a.label], a.kind, t, a.position)

    arcs: List[Arc] = []
    for t in range(t_len):
        for u in range(cols):
            arcs += [at(a, t, t * cols + u + 1) for a in emit[u]]
            if t < t_len - 1:
                arcs += [at(a, t, (t + 1) * cols + u) for a in wait[u]]
    pre_final = t_len * cols
    arcs += [at(wait[-1][0], t_len - 1, pre_final), replace(last, src=pre_final, dst=pre_final + 1)]
    return Wfst(num_states=pre_final + 2, start=0, final=pre_final + 1, arcs=arcs)
