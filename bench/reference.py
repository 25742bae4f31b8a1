"""Computations made apart from the grid recurrence, used to check its outputs.

Nothing here calls ``wst.loss``: the log-softmax and the edit distance are
written out again, and the reference loss is the forward pass over the lattice
built by ``wst.graphs`` and scored by ``wst.wfst.total_weight``.
"""

from typing import Callable, List, Sequence

import numpy as np

GRAD_ROW_SUM_TOL = 1e-9   # |sum over V of one logits-gradient row|
LATTICE_REL_TOL = 1e-9    # grid loss against the lattice forward pass
FD_STEP = 1e-5
FD_REL_TOL = 1e-4         # as in the acceptance suite's gradient check
# Central differences lose about eps * |loss| / FD_STEP (~1e-9 at a loss of 40)
# to rounding, so entries below FD_FLOOR are compared to FD_REL_TOL * FD_FLOOR
# absolute; with 1024 symbols most entries are that small.
FD_FLOOR = 1e-4


class CheckFailed(Exception):
    """An output of the program is wrong."""


def log_softmax(z: np.ndarray) -> np.ndarray:
    m = z.max(axis=-1, keepdims=True)
    return z - (m + np.log(np.exp(z - m).sum(axis=-1, keepdims=True)))


def lattice_loss(wst, logits: np.ndarray, tokens: Sequence[int], penalties=None) -> float:
    """-log total weight of the rnnt lattice, or of the wst lattice when penalties are given."""
    vocab = wst.Vocab(logits.shape[-1])
    lp = log_softmax(logits)
    if penalties is None:
        graph = wst.build_rnnt_lattice(vocab, tokens, lp)
    else:
        graph = wst.build_wst_lattice(vocab, tokens, lp, penalties)
    return -wst.total_weight(graph)


def check_against_lattice(loss: float, reference: float, what: str) -> None:
    rel = abs(loss - reference) / max(abs(reference), 1e-300)
    if not rel <= LATTICE_REL_TOL:
        raise CheckFailed(f"{what}: grid loss {loss!r} vs lattice {reference!r} (rel {rel:.3e})")


def check_grad_rows(grad: np.ndarray, what: str) -> None:
    worst = float(np.max(np.abs(grad.sum(axis=-1))))
    if not worst <= GRAD_ROW_SUM_TOL:
        raise CheckFailed(f"{what}: a logits-gradient row sums to {worst:.3e}, not 0")


def check_dominance(rnnt_losses: np.ndarray, wst_losses: np.ndarray, what: str) -> None:
    bad = [i for i, (r, w) in enumerate(zip(rnnt_losses, wst_losses)) if not w < r]
    if bad:
        raise CheckFailed(f"{what}: wst loss is not below rnnt loss on items {bad}")


def check_finite_differences(f: Callable[[np.ndarray], float], z: np.ndarray,
                             grad: np.ndarray, coords: List[tuple], what: str) -> None:
    """Central differences of ``f`` at ``coords`` against ``grad``."""
    for idx in coords:
        zp, zm = z.copy(), z.copy()
        zp[idx] += FD_STEP
        zm[idx] -= FD_STEP
        fd = (f(zp) - f(zm)) / (2 * FD_STEP)
        rel = abs(fd - grad[idx]) / max(abs(fd), abs(grad[idx]), FD_FLOOR)
        if not rel <= FD_REL_TOL:
            raise CheckFailed(f"{what}: gradient {grad[idx]!r} vs finite difference {fd!r} at {idx}")


def levenshtein(ref: Sequence[int], hyp: Sequence[int]) -> int:
    prev = list(range(len(hyp) + 1))
    for i, r in enumerate(ref, 1):
        cur = [i]
        for j, h in enumerate(hyp, 1):
            cur.append(min(prev[j - 1] + (r != h), prev[j] + 1, cur[j - 1] + 1))
        prev = cur
    return prev[-1]


def pooled_error_rate(refs: Sequence[Sequence[int]], hyps: Sequence[Sequence[int]]) -> float:
    edits = sum(levenshtein(r, h) for r, h in zip(refs, hyps))
    return edits / max(sum(len(r) for r in refs), 1)


def mixed_calibration_band(rate: float, ref_tokens: int):
    """Acceptance band for the realized rate of ``mixed`` corruption (criterion 8).

    Minimal alignments merge some adjacent insertion+deletion pairs into one
    substitution, so the realized rate may fall to 0.85 of the nominal one.
    """
    sigma = (rate * (1 - rate) / ref_tokens) ** 0.5
    return 0.85 * rate - 0.005, rate + 3 * sigma + 0.01
