"""Vocabulary and transcript contracts.

A vocabulary has ``size`` real output symbols (index 0 is the reserved blank).
The star symbol is virtual: it has id ``size``, which is deliberately one past
the end of every probability row, so it can never be produced by a softmax.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

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
    offending position; a bool or a value that is not an integer is out of
    vocabulary. Empty transcripts are legal.
    """
    for i, tok in enumerate(tokens):
        try:
            tok_id = int(tok)
        except (TypeError, ValueError, OverflowError):
            tok_id = None
        if tok_id is None or tok_id != tok or isinstance(tok, (bool, np.bool_)):
            raise OutOfVocabulary(i, tok)
        if tok_id == vocab.blank_id:
            raise BlankInTranscript(i)
        if tok_id == vocab.star_id:
            raise StarInTranscript(i, tok_id)
        if not vocab.is_real_token(tok_id):
            raise OutOfVocabulary(i, tok_id)
