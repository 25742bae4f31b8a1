"""Vocabulary and transcript contracts.

A vocabulary has ``size`` real output symbols (index 0 is the reserved blank).
The star symbol is virtual: it has id ``size``, which is deliberately one past
the end of every probability row, so it can never be produced by a softmax.

Every config dataclass (``Vocab``, ``PenaltyConfig``, ``CorruptionSpec``,
``ToyTask``, ``ExperimentConfig``) first calls ``check_field_types``: an int
field takes any integer, a float field any real number, any other field an
instance of its class, and no field a bool; else a ValueError names the field.
"""

import numbers
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .exceptions import BlankInTranscript, OutOfVocabulary, StarInTranscript

BLANK_ID = 0


def check_field_types(obj) -> None:
    """ValueError naming the first field of dataclass ``obj`` whose value has the wrong type.

    A numpy scalar that passes is stored as the Python scalar it holds, so every
    field serializes to JSON.
    """
    for f in fields(obj):
        value = getattr(obj, f.name)
        kind = {int: numbers.Integral, float: numbers.Real}.get(f.type, f.type)
        if isinstance(value, bool) or not isinstance(value, kind):  # no field is a bool
            raise ValueError(f"{f.name} must be of type {f.type.__name__}, got {value!r}")
        if isinstance(value, np.generic):
            object.__setattr__(obj, f.name, value.item())  # the classes are frozen


@dataclass(frozen=True)
class Vocab:
    """Token identity: |V| real symbols including blank, plus a virtual star."""

    size: int

    def __post_init__(self):
        check_field_types(self)
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
