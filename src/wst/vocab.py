"""Vocabulary and transcript contracts.

A vocabulary has ``size`` real output symbols (index 0 is the reserved blank).
The star symbol is virtual: it has id ``size``, which is deliberately one past
the end of every probability row, so it can never be produced by a softmax.
"""

from dataclasses import dataclass
from typing import Sequence

from .exceptions import BlankInTranscript, OutOfVocabulary, StarInTranscript

BLANK_ID = 0


@dataclass(frozen=True)
class Vocab:
    """Token identity: |V| real symbols including blank, plus a virtual star."""

    size: int

    def __post_init__(self):
        if self.size < 2:
            raise ValueError("vocabulary needs blank plus at least one real token")

    @property
    def blank_id(self) -> int:
        return BLANK_ID

    @property
    def star_id(self) -> int:
        return self.size

    def is_real_token(self, token_id: int) -> bool:
        return 1 <= token_id < self.size


def validate_transcript(vocab: Vocab, tokens: Sequence[int]) -> None:
    """Check that every token is a real (non-blank, non-star) vocabulary symbol.

    Raises BlankInTranscript, StarInTranscript or OutOfVocabulary with the
    offending position. Empty transcripts are legal.
    """
    for i, tok in enumerate(tokens):
        tok = int(tok)
        if tok == vocab.blank_id:
            raise BlankInTranscript(i)
        if tok == vocab.star_id:
            raise StarInTranscript(i, tok)
        if not vocab.is_real_token(tok):
            raise OutOfVocabulary(i, tok)
