"""Exception types shared across the package."""


class WstError(Exception):
    """Base class for all domain errors raised by this package."""


class VocabError(WstError, ValueError):
    """A transcript violates the vocabulary contract."""


class OutOfVocabulary(VocabError):
    def __init__(self, position: int, token_id: int):
        self.position = position
        self.token_id = token_id
        super().__init__(f"token id {token_id} at position {position} is outside the vocabulary")


class BlankInTranscript(VocabError):
    def __init__(self, position: int):
        self.position = position
        super().__init__(f"blank token at position {position}; blank is reserved and may not appear in transcripts")


class StarInTranscript(OutOfVocabulary):
    """The star id is one past the last real symbol, so it is also out of vocabulary."""

    def __init__(self, position: int, token_id: int):
        self.position = position
        self.token_id = token_id
        VocabError.__init__(
            self, f"star token at position {position}; star is virtual and may not appear in transcripts")


class CyclicGraph(WstError):
    """The automaton contains a cycle; only acyclic graphs can be processed."""


class NoPath(WstError):
    """No accepting path has a usable weight: none at all, or the loss kernel's occupancies break conservation."""


class ShapeMismatch(WstError, ValueError):
    """Tensor dimensions disagree with the expected (T, U, |V|)."""


class TooManyPaths(WstError):
    """Path enumeration exceeded its guard limit."""


class EmptyReference(WstError, ValueError):
    """WER rate is undefined for an empty reference."""


class Divergence(WstError):
    """Training stopped because the loss raised NoPath on a batch's logits."""

    def __init__(self, epoch: int, batch: int):
        self.epoch = epoch
        self.batch = batch
        super().__init__(f"the loss raised NoPath at epoch {epoch}, batch {batch}")
