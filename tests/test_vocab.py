import pytest
from hypothesis import given, strategies as st

from wst.corruption import CorruptionSpec, corrupt
from wst.exceptions import BlankInTranscript, OutOfVocabulary, StarInTranscript
from wst.graphs import build_transcript_graph
from wst.vocab import Vocab, validate_transcript


def test_vocab_minimum_size():
    with pytest.raises(ValueError):
        Vocab(1)
    v = Vocab(2)
    assert v.blank_id == 0
    assert v.star_id == 2


def test_star_is_not_a_row_index():
    v = Vocab(5)
    assert v.star_id == 5
    assert not v.is_real_token(v.star_id)
    assert not v.is_real_token(v.blank_id)


def test_valid_transcript():
    validate_transcript(Vocab(3), [1, 2, 1])


def test_blank_rejected():
    with pytest.raises(BlankInTranscript) as exc:
        validate_transcript(Vocab(3), [0, 1])
    assert exc.value.position == 0


def test_star_rejected():
    with pytest.raises(StarInTranscript) as exc:
        validate_transcript(Vocab(3), [3])
    assert exc.value.position == 0


def test_out_of_vocabulary():
    with pytest.raises(OutOfVocabulary) as exc:
        validate_transcript(Vocab(3), [1, 7])
    assert exc.value.position == 1
    assert exc.value.token_id == 7
    with pytest.raises(OutOfVocabulary):
        validate_transcript(Vocab(3), [-2])


@pytest.mark.parametrize("bad", [1.5, True, False, float("nan"), float("inf"), "1", None])
def test_non_integer_rejected(bad):
    with pytest.raises(OutOfVocabulary) as exc:
        validate_transcript(Vocab(3), [1, bad])
    assert exc.value.position == 1


def test_non_integer_rejected_by_builders():
    with pytest.raises(OutOfVocabulary):
        build_transcript_graph(Vocab(3), [1.5])
    with pytest.raises(OutOfVocabulary):
        corrupt(Vocab(3), [True], CorruptionSpec("sub", 0.5, 0))


def test_empty_transcript_legal():
    validate_transcript(Vocab(2), [])


@given(st.integers(min_value=2, max_value=12), st.lists(st.integers(min_value=-3, max_value=15), max_size=8))
def test_accepts_exactly_real_token_sequences(size, tokens):
    v = Vocab(size)
    ok = all(1 <= t < size for t in tokens)
    if ok:
        validate_transcript(v, tokens)
    else:
        with pytest.raises((BlankInTranscript, StarInTranscript, OutOfVocabulary)):
            validate_transcript(v, tokens)
