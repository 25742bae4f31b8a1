import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wst.corruption import (
    KINDS,
    CorruptionSpec,
    corrupt,
    corrupt_dataset,
    edit_counts,
    measure_corruption,
    score_corpus,
)
from wst.exceptions import EmptyReference
from wst.vocab import Vocab

V = Vocab(11)


def levenshtein(a, b):
    """Plain unit-cost edit distance, one row of the table at a time."""
    row = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        prev, row[0] = row[0], i
        for j, y in enumerate(b, 1):
            prev, row[j] = row[j], min(row[j] + 1, row[j - 1] + 1, prev + (x != y))
    return row[-1]


class TestSpecValidation:
    def test_bad_kind(self):
        with pytest.raises(ValueError):
            CorruptionSpec("swap", 0.1)

    def test_bad_rate(self):
        with pytest.raises(ValueError):
            CorruptionSpec("sub", 1.5)
        with pytest.raises(ValueError):
            CorruptionSpec("sub", -0.1)

    def test_all_kinds_accepted(self):
        for k in KINDS:
            CorruptionSpec(k, 0.5)


class TestCorrupt:
    def test_rate_zero_is_identity(self):
        toks = [1, 2, 3, 4, 5]
        for kind in KINDS:
            assert corrupt(V, toks, CorruptionSpec(kind, 0.0, 0)) == toks

    def test_rate_one_del_empties(self):
        assert corrupt(V, [1, 2, 3], CorruptionSpec("del", 1.0, 0)) == []

    def test_rate_one_ins_doubles_length(self):
        out = corrupt(V, [1, 2, 3], CorruptionSpec("ins", 1.0, 0))
        assert len(out) == 6
        assert out[::2] == [1, 2, 3]  # originals preserved in place

    def test_rate_one_sub_changes_every_token(self):
        toks = [1, 2, 3, 4, 5]
        out = corrupt(V, toks, CorruptionSpec("sub", 1.0, 0))
        assert len(out) == len(toks)
        assert all(a != b for a, b in zip(toks, out))
        assert all(1 <= t < V.size for t in out)

    def test_sub_needs_vocab_of_three(self):
        with pytest.raises(ValueError):
            corrupt(Vocab(2), [1], CorruptionSpec("sub", 1.0, 0))

    def test_deterministic_given_seed(self):
        toks = list(range(1, 11)) * 3
        spec = CorruptionSpec("mixed", 0.5, 42)
        assert corrupt(V, toks, spec) == corrupt(V, toks, spec)

    def test_seed_changes_output(self):
        toks = list(range(1, 11)) * 3
        a = corrupt(V, toks, CorruptionSpec("mixed", 0.5, 1))
        b = corrupt(V, toks, CorruptionSpec("mixed", 0.5, 2))
        assert a != b

    def test_never_emits_blank_or_star(self):
        toks = list(range(1, 11)) * 5
        for kind in KINDS:
            out = corrupt(V, toks, CorruptionSpec(kind, 0.8, 3))
            assert all(V.is_real_token(t) for t in out)


class TestCorruptDataset:
    def test_order_independent_per_utterance(self):
        data = [[1, 2, 3], [4, 5], [6, 7, 8, 9]]
        spec = CorruptionSpec("mixed", 0.6, 5)
        full = corrupt_dataset(V, data, spec)
        # corrupting each utterance alone with its derived seed matches
        for i, toks in enumerate(data):
            rng = np.random.default_rng(np.random.SeedSequence([spec.seed, i]))
            assert corrupt(V, toks, spec, rng=rng) == full[i]

    def test_empty_dataset(self):
        assert corrupt_dataset(V, [], CorruptionSpec("sub", 0.5, 0)) == []


def all_alignments(ref, hyp):
    """(subs, ins, dels) of every alignment of ``ref`` with ``hyp``; an equal pair is a match."""
    if not ref and not hyp:
        yield 0, 0, 0
    if ref and hyp:
        for s, i, d in all_alignments(ref[1:], hyp[1:]):
            yield s + (ref[0] != hyp[0]), i, d
    if hyp:
        for s, i, d in all_alignments(ref, hyp[1:]):
            yield s, i + 1, d
    if ref:
        for s, i, d in all_alignments(ref[1:], hyp):
            yield s, i, d + 1


class TestEditCounts:
    def test_equal(self):
        assert edit_counts([1, 2, 3], [1, 2, 3]) == (0, 0, 0)

    def test_pure_sub(self):
        assert edit_counts([1, 2, 3], [1, 5, 3]) == (1, 0, 0)

    def test_pure_ins(self):
        assert edit_counts([1, 2], [1, 9, 2]) == (0, 1, 0)

    def test_pure_del(self):
        assert edit_counts([1, 2, 3], [1, 3]) == (0, 0, 1)

    def test_mixed(self):
        # ref: 1 2 3 4; hyp: 1 5 4 6 -> sub(2->5), del(3), ins(6)
        assert sum(edit_counts([1, 2, 3, 4], [1, 5, 4, 6])) == 3

    def test_empty_hyp(self):
        assert edit_counts([1, 2, 3], []) == (0, 0, 3)

    def test_empty_ref(self):
        assert edit_counts([], [1, 2]) == (0, 2, 0)

    def test_tie_prefers_most_substitutions(self):
        # two minimal alignments of cost 4: (0, 1, 3) and (2, 0, 2)
        assert edit_counts([1, 1, 1, 2, 2, 1], [2, 2, 1, 2]) == (2, 0, 2)

    @given(st.lists(st.integers(1, 3), max_size=5), st.lists(st.integers(1, 3), max_size=5))
    @settings(max_examples=300)
    @example([1, 2], [2, 3])  # (2, 0, 0) and (0, 1, 1) both cost 2
    def test_matches_every_alignment(self, a, b):
        """The least-cost alignment with the most substitutions, found by enumerating all of them."""
        best = min(all_alignments(a, b), key=lambda c: (sum(c), -c[0]))
        assert edit_counts(a, b) == best

    @given(st.lists(st.integers(1, 5), max_size=8), st.lists(st.integers(1, 5), max_size=8))
    @settings(max_examples=200)
    @example([1, 1, 1, 2, 2, 1], [2, 2, 1, 2])
    def test_symmetry_swaps_ins_and_del(self, a, b):
        s1, i1, d1 = edit_counts(a, b)
        s2, i2, d2 = edit_counts(b, a)
        assert (s1, i1, d1) == (s2, d2, i2)

    @given(st.lists(st.integers(1, 5), max_size=8), st.lists(st.integers(1, 5), max_size=8))
    @settings(max_examples=200)
    def test_total_is_levenshtein(self, a, b):
        total = sum(edit_counts(a, b))
        assert total >= abs(len(a) - len(b))
        assert total <= max(len(a), len(b))
        assert total == levenshtein(a, b)


class TestScoreCorpus:
    @given(st.lists(st.tuples(st.lists(st.integers(1, 4), max_size=6),
                              st.lists(st.integers(1, 4), max_size=6)), max_size=5))
    @settings(max_examples=100)
    @example([])
    @example([([], [1, 2])])
    def test_pools_edit_counts(self, pairs):
        counts = [edit_counts(ref, hyp) for ref, hyp in pairs]
        subs, ins, dels = (sum(c[k] for c in counts) for k in range(3))
        total = sum(len(ref) for ref, _ in pairs)
        refs, hyps = [r for r, _ in pairs], [h for _, h in pairs]
        if total == 0:
            with pytest.raises(EmptyReference):
                score_corpus(refs, hyps)
            return
        assert score_corpus(refs, hyps) == {
            "total_ref_tokens": total,
            "sub_count": subs,
            "ins_count": ins,
            "del_count": dels,
            "sub_rate": subs / total,
            "ins_rate": ins / total,
            "del_rate": dels / total,
            "error_rate": (subs + ins + dels) / total,
        }

    @pytest.mark.parametrize("refs, hyps", [([[]], [[1, 2]]), ([[], []], [[], []]), ([], [])],
                             ids=["one empty, two insertions", "all empty", "no utterance"])
    def test_no_reference_token_raises(self, refs, hyps):
        with pytest.raises(EmptyReference):
            score_corpus(refs, hyps)

    def test_empty_utterance_pools_with_others(self):
        assert score_corpus([[], [1, 2]], [[3], [1, 2]])["error_rate"] == 0.5


class TestWer:
    """The WER of one utterance is ``score_corpus`` over a corpus of one."""

    def test_perfect(self):
        assert score_corpus([[1, 2, 3]], [[1, 2, 3]])["error_rate"] == 0.0

    def test_derived_example(self):
        counts = score_corpus([[1, 2, 3, 4]], [[1, 5, 4, 6]])
        assert counts["error_rate"] == pytest.approx(0.75)
        assert counts["sub_count"] + counts["ins_count"] + counts["del_count"] == 3

    def test_can_exceed_one(self):
        assert score_corpus([[1]], [[2, 3, 4]])["error_rate"] == pytest.approx(3.0)

    def test_empty_reference_raises(self):
        with pytest.raises(EmptyReference):
            score_corpus([[]], [[1]])


class TestCalibration:
    """Realized rates on a large corpus should match the nominal rate."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("rate", [0.1, 0.3, 0.5])
    def test_realized_rate_within_3_sigma(self, kind, rate):
        rng = np.random.default_rng(100)
        data = [[int(t) for t in rng.integers(1, 11, size=10)] for _ in range(1000)]
        stats = measure_corruption(V, data, CorruptionSpec(kind, rate, 17))
        n = stats["total_ref_tokens"]
        assert n == 10000
        sigma = (rate * (1 - rate) / n) ** 0.5
        if kind == "mixed":
            # a minimal alignment can merge adjacent ins+del events into one
            # substitution, so the realized rate sits a little below nominal
            assert 0.85 * rate - 0.005 <= stats["error_rate"] <= rate + 3 * sigma + 0.01
        else:
            assert abs(stats["error_rate"] - rate) <= 3 * sigma + 0.01

    def test_kind_purity(self):
        rng = np.random.default_rng(101)
        data = [[int(t) for t in rng.integers(1, 11, size=10)] for _ in range(200)]
        subs = measure_corruption(V, data, CorruptionSpec("sub", 0.3, 1))
        dels = measure_corruption(V, data, CorruptionSpec("del", 0.3, 1))
        assert subs["del_count"] == 0 and subs["ins_count"] == 0
        assert dels["sub_count"] == 0 and dels["ins_count"] == 0
