"""Brute-force reference implementations used as ground-truth oracles.

Exhaustive path enumeration is intentionally naive: it is the independent
check that the dynamic-programming routines are measured against, so it must
not share their machinery beyond the lattice builders themselves.
"""

from typing import List, Optional, Sequence, Tuple

from .exceptions import TooManyPaths
from .graphs import PenaltyConfig, build_rnnt_lattice, build_wst_lattice, penalties_for
from .loss import log_softmax
from .numerics import log_sum
from .vocab import Vocab
from .wfst import Wfst, out_arcs, topo_sort

MAX_PATHS = 10**6


def enumerate_paths(g: Wfst, max_paths: int = MAX_PATHS) -> List[Tuple[Tuple[int, ...], float]]:
    """Every start->final path as (arc-id sequence, path log-weight).

    Iterative depth-first traversal; raises TooManyPaths past the guard and
    CyclicGraph for cyclic inputs.
    """
    topo_sort(g)  # acyclicity check
    adj = out_arcs(g)
    paths: List[Tuple[Tuple[int, ...], float]] = []
    # frames: (state, next out-arc offset, entered via an arc?)
    stack: List[List] = [[g.start, 0, False]]
    cur: List[int] = []
    cur_w = [0.0]
    while stack:
        state, idx, _ = stack[-1]
        if state == g.final and idx == 0:
            if len(paths) >= max_paths:
                raise TooManyPaths(f"more than {max_paths} accepting paths")
            paths.append((tuple(cur), cur_w[-1]))
        if idx < len(adj[state]):
            stack[-1][1] = idx + 1
            arc_id, arc = adj[state][idx]
            cur.append(arc_id)
            cur_w.append(cur_w[-1] + arc.weight)
            stack.append([arc.dst, 0, True])
        else:
            _, _, entered = stack.pop()
            if entered:
                cur.pop()
                cur_w.pop()
    return paths


def brute_force_loss(
    logits,
    tokens: Sequence[int],
    criterion: str = "rnnt",
    penalties: Optional[PenaltyConfig] = None,
    max_paths: int = MAX_PATHS,
) -> float:
    """Loss by explicit summation over every enumerated alignment path."""
    pen = penalties_for(criterion, penalties)
    lp = log_softmax(logits)
    vocab = Vocab(lp.shape[-1])
    if pen is None:
        g = build_rnnt_lattice(vocab, tokens, lp)
    else:
        g = build_wst_lattice(vocab, tokens, lp, pen)
    paths = enumerate_paths(g, max_paths=max_paths)
    return -log_sum(w for _, w in paths)
