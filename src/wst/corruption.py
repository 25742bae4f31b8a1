"""Synthetic transcript corruption and WER scoring.

The corruption procedure is pinned for reproducibility: every token draws an
independent Bernoulli(rate) corruption event; a substitution replaces the
token with a uniformly random *different* non-blank token, an insertion adds
a uniformly random non-blank token immediately after the current one, and a
deletion drops the token. ``mixed`` picks one of the three uniformly per
event. Randomness comes from NumPy's default PCG64 generator seeded from the
spec, so corpora are bit-reproducible; dataset-level corruption derives one
child seed per utterance index, keeping results independent of processing
order or thread count.
"""

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .exceptions import EmptyReference
from .vocab import Vocab, check_field_types, validate_transcript

KINDS = ("sub", "ins", "del", "mixed")


@dataclass(frozen=True)
class CorruptionSpec:
    kind: str
    rate: float
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def _random_token(rng: np.random.Generator, vocab: Vocab) -> int:
    return int(rng.integers(1, vocab.size))


def _random_other_token(rng: np.random.Generator, vocab: Vocab, avoid: int) -> int:
    if vocab.size < 3:
        raise ValueError("substitution needs at least two distinct non-blank tokens")
    tok = int(rng.integers(1, vocab.size - 1))
    return tok + 1 if tok >= avoid else tok


def corrupt(
    vocab: Vocab,
    tokens: Sequence[int],
    spec: CorruptionSpec,
    rng: np.random.Generator = None,
) -> List[int]:
    """Apply the pinned corruption procedure to one transcript."""
    validate_transcript(vocab, tokens)
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    out: List[int] = []
    for tok in tokens:
        tok = int(tok)
        if rng.random() >= spec.rate:
            out.append(tok)
            continue
        kind = spec.kind
        if kind == "mixed":
            kind = ("sub", "ins", "del")[int(rng.integers(3))]
        if kind == "sub":
            out.append(_random_other_token(rng, vocab, tok))
        elif kind == "ins":
            out.append(tok)
            out.append(_random_token(rng, vocab))
        # "del": drop the token
    return out


def corrupt_dataset(
    vocab: Vocab,
    transcripts: Sequence[Sequence[int]],
    spec: CorruptionSpec,
) -> List[List[int]]:
    """Corrupt each transcript with a per-utterance derived seed.

    Utterance i uses PCG64 seeded from SeedSequence([spec.seed, i]), so the
    output is the same no matter how the work is ordered or sharded.
    """
    out = []
    for i, toks in enumerate(transcripts):
        rng = np.random.default_rng(np.random.SeedSequence([spec.seed, i]))
        out.append(corrupt(vocab, toks, spec, rng=rng))
    return out


def edit_counts(ref: Sequence[int], hyp: Sequence[int]) -> Tuple[int, int, int]:
    """(substitutions, insertions, deletions) of a minimal edit alignment.

    Among the minimum-cost alignments, the one with the most substitutions is
    taken. Its counts are unique: the cost, the substitution count and the two
    lengths fix the other two. So swapping ``ref`` and ``hyp`` swaps
    insertions and deletions.
    """
    n, m = len(ref), len(hyp)
    # Each path scores w * cost - substitutions. w exceeds any substitution
    # count, so the least score has the least cost, then the most substitutions.
    w = n + m + 1
    row = list(range(0, (m + 1) * w, w))
    for i in range(1, n + 1):
        ri = ref[i - 1]
        diag, row[0] = row[0], i * w
        for j in range(1, m + 1):
            up = row[j]
            row[j] = min(diag + (0 if ri == hyp[j - 1] else w - 1), row[j - 1] + w, up + w)
            diag = up
    # score = w * cost - subs with 0 <= subs < w; then n = matches + subs + dels
    # and m = matches + subs + ins give ins - dels = m - n.
    cost = -(-row[m] // w)
    subs = w * cost - row[m]
    ins = (cost - subs + m - n) // 2
    return subs, ins, cost - subs - ins


def score_corpus(refs: Sequence[Sequence[int]], hyps: Sequence[Sequence[int]]) -> Dict[str, float]:
    """Pooled edit counts and rates of ``hyps`` against ``refs``.

    Rates are total edit counts divided by the total reference token count,
    broken down by substitution / insertion / deletion; WER is ``error_rate``.
    Raises EmptyReference when the references hold no token, where no rate
    is defined.
    """
    total_tokens = 0
    subs = ins = dels = 0
    for ref, hyp in zip(refs, hyps, strict=True):
        s, i, d = edit_counts(ref, hyp)
        subs += s
        ins += i
        dels += d
        total_tokens += len(ref)
    if total_tokens == 0:
        raise EmptyReference("WER is undefined for a reference corpus with no tokens")
    return {
        "total_ref_tokens": total_tokens,
        "sub_count": subs,
        "ins_count": ins,
        "del_count": dels,
        "sub_rate": subs / total_tokens,
        "ins_rate": ins / total_tokens,
        "del_rate": dels / total_tokens,
        "error_rate": (subs + ins + dels) / total_tokens,
    }


def measure_corruption(
    vocab: Vocab,
    transcripts: Sequence[Sequence[int]],
    spec: CorruptionSpec,
) -> Dict[str, float]:
    """Realized error rates of the corruption procedure on a dataset, as ``score_corpus`` pools them."""
    return score_corpus(transcripts, corrupt_dataset(vocab, transcripts, spec))
