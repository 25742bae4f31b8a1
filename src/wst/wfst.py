"""Generic weighted automaton over the log semiring.

Weights are natural-log probabilities. ``NEG_INF`` (-inf) is the semiring
zero, a disabled arc or an empty sum, and log-addition is ``np.logaddexp``,
which is exact against -inf and gives +inf, never NaN, on +inf.

Graphs are immutable after construction. The forward-backward routines assume
acyclicity and process states in a deterministic topological order, so results
are bit-reproducible across runs. Beta is the forward sweep of the reversed
automaton, from the final state in reverse topological order. Self-loops are
representable (the compact weakly supervised transcript graph needs them for
export) but any cyclic graph is rejected by ``topo_sort`` and everything built
on it.
"""

import heapq
import json
import math
from dataclasses import asdict, dataclass, field
from enum import Enum
from numbers import Integral, Real
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .exceptions import CyclicGraph, NoPath

NEG_INF = float("-inf")
EPSILON = -1


class ArcKind(str, Enum):
    TOKEN = "token"
    BLANK = "blank"
    TOKEN_BYPASS = "token_bypass"
    BLANK_BYPASS = "blank_bypass"
    FINAL = "final"
    PLAIN = "plain"


@dataclass(frozen=True)
class Arc:
    """A weighted transition.

    ``label``/``olabel`` are token ids, the star id, or EPSILON. ``frame`` and
    ``position`` record which log-probability row the weight was read from;
    gradient routing depends on them, so lattice builders always set them.
    """

    src: int
    dst: int
    label: int
    olabel: int
    weight: float
    kind: ArcKind = ArcKind.PLAIN
    frame: Optional[int] = None
    position: Optional[int] = None


@dataclass(frozen=True)
class Wfst:
    """Automaton with a single start and a single final state.

    The final state has no outgoing arcs. State ids are integers in
    [0, num_states). Arc weights are real numbers, finite or -inf (a disabled
    arc). Anything else raises ValueError naming the field or the arc.
    """

    num_states: int
    start: int
    final: int
    arcs: Tuple[Arc, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "arcs", tuple(self.arcs))
        for name in ("num_states", "start", "final"):
            if not _is_a(getattr(self, name), Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not (0 <= self.start < self.num_states):
            raise ValueError(f"start state {self.start} out of range")
        if not (0 <= self.final < self.num_states):
            raise ValueError(f"final state {self.final} out of range")
        for a in self.arcs:
            if not (_is_a(a.src, Integral) and _is_a(a.dst, Integral) and _is_a(a.weight, Real)):
                raise ValueError(f"arc {a}: state ids must be integers and the weight a real number")
            if not (0 <= a.src < self.num_states and 0 <= a.dst < self.num_states):
                raise ValueError(f"arc {a} references a state outside [0, {self.num_states})")
            if a.src == self.final:
                raise ValueError("final state must have no outgoing arcs")
            if not a.weight < math.inf:
                raise ValueError(f"arc {a}: a weight must not be NaN or +inf")


def _is_a(value, kind) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)  # no field is a bool


def out_arcs(g: Wfst) -> List[List[Tuple[int, Arc]]]:
    """Adjacency lists of (arc index, arc), preserving arc insertion order."""
    adj: List[List[Tuple[int, Arc]]] = [[] for _ in range(g.num_states)]
    for i, a in enumerate(g.arcs):
        adj[a.src].append((i, a))
    return adj


def topo_sort(g: Wfst) -> List[int]:
    """Deterministic topological ordering (smallest state id first among ties).

    Raises CyclicGraph if the graph has a cycle (self-loops included).
    """
    indeg = [0] * g.num_states
    for a in g.arcs:
        indeg[a.dst] += 1
    adj = out_arcs(g)
    ready = [s for s in range(g.num_states) if indeg[s] == 0]
    heapq.heapify(ready)
    order: List[int] = []
    while ready:
        s = heapq.heappop(ready)
        order.append(s)
        for _, a in adj[s]:
            indeg[a.dst] -= 1
            if indeg[a.dst] == 0:
                heapq.heappush(ready, a.dst)
    if len(order) != g.num_states:
        raise CyclicGraph("graph contains a cycle; only acyclic graphs can be scored")
    return order


def _push(num_states: int, source: int, arcs, order: Iterable[int]) -> List[float]:
    """Log total weight of all paths from ``source`` to each state.

    ``arcs`` are (from, to, weight) triples. Each state in ``order`` pushes its
    score along its arcs in list order, so results are bit-reproducible. A -inf
    arc adds nothing, so it is skipped: an overflowed +inf score would make it NaN.
    """
    adj: List[List[Tuple[int, float]]] = [[] for _ in range(num_states)]
    for src, dst, w in arcs:
        if w != NEG_INF:
            adj[src].append((dst, w))
    score = [NEG_INF] * num_states
    score[source] = 0.0
    for s in order:
        s_score = score[s]
        if s_score == NEG_INF:
            continue
        for dst, w in adj[s]:
            score[dst] = float(np.logaddexp(score[dst], s_score + w))
    return score


def forward_scores(g: Wfst, order: Optional[Sequence[int]] = None) -> List[float]:
    """Log total weight of all start->state paths (alpha)."""
    order = topo_sort(g) if order is None else order
    return _push(g.num_states, g.start, [(a.src, a.dst, a.weight) for a in g.arcs], order)


def backward_scores(g: Wfst, order: Optional[Sequence[int]] = None) -> List[float]:
    """Log total weight of all state->final paths (beta): alpha of the reversed automaton."""
    order = topo_sort(g) if order is None else order
    return _push(g.num_states, g.final, [(a.dst, a.src, a.weight) for a in g.arcs], reversed(order))


def _no_overflow(total: float) -> float:
    if total == math.inf:
        raise NoPath("total weight overflowed (+inf); the path weights are too large to sum")
    return total


def total_weight(g: Wfst) -> float:
    """log sum over all accepting paths of exp(summed arc weights); -inf if none, NoPath if it overflowed."""
    return _no_overflow(forward_scores(g)[g.final])


def arc_posteriors(g: Wfst) -> List[float]:
    """Occupancy of each arc under the path distribution, aligned with g.arcs.

    posterior(arc) = exp(alpha[src] + weight + beta[dst] - total). These are the
    gradients of total_weight with respect to the arc weights. Raises NoPath
    when the total weight is not finite: -inf for no accepting path, +inf
    where the path weights overflowed, as total_weight does.
    """
    order = topo_sort(g)
    alpha = forward_scores(g, order)
    beta = backward_scores(g, order)
    total = _no_overflow(alpha[g.final])
    if total == NEG_INF:
        raise NoPath("no accepting path; posteriors are undefined")
    post = []
    for a in g.arcs:
        terms = (alpha[a.src], a.weight, beta[a.dst])  # off every path one is -inf, so an overflow elsewhere is 0
        post.append(0.0 if NEG_INF in terms else math.exp(sum(terms) - total))
    return post


def _symbol(label: int, symbols: Optional[Dict[int, str]]) -> str:
    if symbols and label in symbols:
        return symbols[label]
    if label == EPSILON:
        return "eps"
    if label == 0:
        return "blk"
    return str(label)


def export_dot(g: Wfst, symbols: Optional[Dict[int, str]] = None) -> str:
    """Render as Graphviz DOT, arcs annotated "input:output/weight"."""
    lines = [
        "digraph wfst {",
        "  rankdir=LR;",
        "  node [shape=circle];",
        f"  {g.final} [shape=doublecircle];",
    ]
    for a in g.arcs:
        lab = f"{_symbol(a.label, symbols)}:{_symbol(a.olabel, symbols)}/{a.weight:g}"
        lines.append(f'  {a.src} -> {a.dst} [label="{lab}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_json(g: Wfst) -> str:
    """Round-trippable JSON arc list; -inf weights serialize as -Infinity, numpy scalars as Python ones."""
    return json.dumps(asdict(g), indent=2, default=np.generic.item)  # any other object still raises TypeError


def wfst_from_json(text: str) -> Wfst:
    """Inverse of export_json; bit-exact on weights. A malformed object raises ValueError naming the fault."""
    obj = json.loads(text)
    try:
        arcs = tuple(Arc(**{**d, "weight": float(d["weight"]), "kind": ArcKind(d["kind"])})
                     for d in obj["arcs"])
        return Wfst(num_states=obj["num_states"], start=obj["start"], final=obj["final"], arcs=arcs)
    except KeyError as exc:
        raise ValueError(f"wfst JSON lacks the key {exc}") from None
    except TypeError as exc:
        raise ValueError(f"malformed wfst JSON: {exc}") from None
