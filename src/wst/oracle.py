"""Brute-force reference implementations used as ground-truth oracles.

Exhaustive path enumeration is intentionally naive: it is the independent
check that the dynamic-programming routines are measured against, so it must
not share their machinery beyond the lattice builders and the input checks.
"""

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .exceptions import NoPath, TooManyPaths
from .graphs import PenaltyConfig, _check_grid, _grid_lattice, item_tensor, penalties_for
from .loss import log_softmax
from .vocab import Vocab
from .wfst import Wfst, out_arcs, topo_sort

MAX_PATHS = 10**6


def enumerate_paths(g: Wfst, max_paths: int = MAX_PATHS) -> List[Tuple[Tuple[int, ...], float]]:
    """Every start->final path as (arc-id sequence, path log-weight).

    Iterative depth-first traversal over one stack of partial paths, so paths
    come out in lexicographic order of their arc ids; raises TooManyPaths past
    the guard and CyclicGraph for cyclic inputs.
    """
    topo_sort(g)  # acyclicity check
    adj = out_arcs(g)
    paths: List[Tuple[Tuple[int, ...], float]] = []
    stack: List[Tuple[int, Tuple[int, ...], float]] = [(g.start, (), 0.0)]
    while stack:
        state, arc_ids, weight = stack.pop()
        if state == g.final:
            if len(paths) >= max_paths:
                raise TooManyPaths(f"more than {max_paths} accepting paths")
            paths.append((arc_ids, weight))
        # pushed in reverse, so the out-arcs pop in insertion order
        for arc_id, arc in reversed(adj[state]):
            stack.append((arc.dst, arc_ids + (arc_id,), weight + arc.weight))
    return paths


def brute_force_loss(
    logits,
    tokens: Sequence[int],
    criterion: str = "rnnt",
    penalties: Optional[PenaltyConfig] = None,
    max_paths: int = MAX_PATHS,
) -> float:
    """Loss by one max shift and numpy's pairwise sum over every enumerated alignment path.

    Raises NoPath if no path has finite weight or if a path weight overflowed to +inf.
    """
    pen = penalties_for(criterion, penalties)
    z = item_tensor(logits)
    _check_grid(z[None], [list(tokens)])
    lp = log_softmax(z)
    g = _grid_lattice(Vocab(lp.shape[-1]), tokens, lp, pen)
    weights = np.array([w for _, w in enumerate_paths(g, max_paths=max_paths)])
    # a NaN weight is an overflow met by a -inf arc: a disabled path, like -inf itself
    weights = weights[weights > -np.inf]
    if weights.size == 0:  # the kernel raises NoPath here too
        raise NoPath("lattice admits no accepting path")
    top = weights.max()
    if top == np.inf:
        raise NoPath("a path weight overflowed (+inf); the loss is undefined")
    return -float(top + np.log(np.exp(weights - top).sum()))
