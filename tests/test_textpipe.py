"""Corpus filters, BPE training/application, and subword alignment."""

import pytest
from hypothesis import given, settings, strategies as st

from scenemt import textpipe
from scenemt.errors import AlignmentError, ParseError
from scenemt.textpipe import (
    ParallelPair,
    Vocab,
    apply_bpe,
    bpe_join,
    filter_corpus,
    read_bpe,
    train_bpe,
    word_subword_alignment,
    write_bpe,
)


def pair(ns, nt):
    return ParallelPair([f"s{i}" for i in range(ns)], [f"t{i}" for i in range(nt)])


class TestFilterCorpus:
    def test_long_source_dropped(self):
        assert filter_corpus([pair(101, 50)]) == []

    def test_long_target_dropped(self):
        assert filter_corpus([pair(50, 101)]) == []

    def test_boundary_length_kept(self):
        assert len(filter_corpus([pair(100, 100)])) == 1

    def test_equal_lengths_kept(self):
        assert len(filter_corpus([pair(10, 10)])) == 1

    def test_ratio_boundary(self):
        assert len(filter_corpus([pair(9, 6)])) == 1      # ratio exactly 1.5
        assert filter_corpus([pair(10, 6)]) == []         # 1.667

    def test_ratio_is_symmetric(self):
        assert filter_corpus([pair(6, 10)]) == []

    def test_empty_sides_dropped(self):
        assert filter_corpus([pair(0, 3), pair(3, 0)]) == []

    def test_injected_predicate_runs_last(self):
        calls = []

        def pred(p):
            calls.append(len(p.src))
            return len(p.src) != 5

        kept = filter_corpus([pair(5, 5), pair(4, 4), pair(101, 4)], predicates=[pred])
        assert [len(p.src) for p in kept] == [4]
        assert calls == [5, 4]  # the length-dropped pair never reaches the hook

    def test_idempotent(self):
        pairs = [pair(a, b) for a in (0, 3, 9, 10, 100, 101) for b in (0, 6, 10, 100)]
        once = filter_corpus(pairs)
        assert filter_corpus(once) == once

    def test_kept_pairs_satisfy_all_predicates(self):
        pairs = [pair(a, b) for a in range(1, 120, 7) for b in range(1, 120, 11)]
        for p in filter_corpus(pairs):
            ls, lt = len(p.src), len(p.trg)
            assert ls and lt
            assert ls <= 100 and lt <= 100
            assert max(ls, lt) / min(ls, lt) <= 1.5

    def test_transforms_run_before_filters(self):
        def lowercase(p):
            return ParallelPair([t.lower() for t in p.src], p.trg, p.meta)

        def drop_markup(p):
            return ParallelPair(
                [t for t in p.src if t != "<b>"], p.trg, p.meta
            )

        pairs = [ParallelPair(["<b>", "HI"], ["hi"])]
        kept = filter_corpus(pairs, transforms=[drop_markup, lowercase])
        assert kept[0].src == ["hi"]


class TestBpe:
    def test_zero_merges_splits_to_characters(self):
        model = train_bpe([["low"]], merges=0)
        assert apply_bpe(model, "low") == ["l", "o", "w", textpipe.END_MARKER]

    def test_frequent_word_becomes_single_unit(self):
        # hand simulation: pairs (l,o) and (o,w) tie at 3, (l,o) wins
        # lexicographically; then (lo,w) at 3; then (low,</w>) at 2
        corpus = [["low", "low", "lower"]]
        model = train_bpe(corpus, merges=3)
        assert model.merges[0] == ("l", "o")
        assert model.merges[1] == ("lo", "w")
        assert model.merges[2] == ("low", textpipe.END_MARKER)
        assert apply_bpe(model, "low") == ["low" + textpipe.END_MARKER]
        assert apply_bpe(model, "lower") == ["low", "e", "r", textpipe.END_MARKER]

    def test_join_inverts_apply(self):
        model = train_bpe([["hello", "help", "hero"]], merges=5)
        for word in ("hello", "help", "hero", "shell"):
            assert bpe_join(apply_bpe(model, word)) == word

    @given(
        st.lists(
            st.text(alphabet="abcd", min_size=1, max_size=8),
            min_size=1,
            max_size=12,
        ),
        st.integers(min_value=0, max_value=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_apply_is_deterministic_and_reversible(self, words, merges):
        model = train_bpe([words], merges)
        for w in words:
            first = apply_bpe(model, w)
            assert first == apply_bpe(model, w)
            assert bpe_join(first) == w

    def test_model_file_roundtrip(self):
        model = train_bpe([["banana", "bandana"]], merges=4)
        again = read_bpe(write_bpe(model))
        assert again.merges == model.merges

    def test_segment_sentence_concatenates_tokens(self):
        model = train_bpe([["low", "lower"]], merges=2)
        subwords = textpipe.segment_sentence(model, ["low", "lower"])
        assert bpe_join(subwords) == "lowlower"

    def test_bad_merge_line_rejected(self):
        with pytest.raises(ParseError):
            read_bpe("a b c\n")


class TestWordSubwordAlignment:
    def test_identity(self):
        align = word_subword_alignment(["a", "b"], ["a", "b"])
        assert align.ranges == ((0, 0), (1, 1))

    def test_split_word_spans_two(self):
        align = word_subword_alignment(["lower"], ["low", "er"])
        assert align.ranges == ((0, 1),)

    def test_marked_subwords(self):
        model = train_bpe([["lower", "low"]], merges=2)
        words = ["lower", "low"]
        subwords = []
        for w in words:
            subwords.extend(apply_bpe(model, w))
        align = word_subword_alignment(words, subwords)
        assert align.n_words == 2
        assert align.n_subwords == len(subwords)

    def test_mismatch_rejected(self):
        with pytest.raises(AlignmentError):
            word_subword_alignment(["abc"], ["ab", "d"])
        with pytest.raises(AlignmentError):
            word_subword_alignment(["ab"], ["ab", "cd"])

    @given(
        st.lists(st.text(alphabet="xyz", min_size=1, max_size=6), min_size=1, max_size=8),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_random_splits_always_align(self, words, rnd):
        subwords = []
        for w in words:
            pieces, rest = [], w
            while len(rest) > 1 and rnd.random() < 0.5:
                cut = rnd.randint(1, len(rest) - 1)
                pieces.append(rest[:cut])
                rest = rest[cut:]
            pieces.append(rest + textpipe.END_MARKER)
            subwords.extend(pieces)
        align = word_subword_alignment(words, subwords)
        # coverage and ordering invariants
        assert align.n_words == len(words)
        assert align.n_subwords == len(subwords)
        flat = [align.ranges[w][1] - align.ranges[w][0] + 1 for w in range(len(words))]
        assert sum(flat) == len(subwords)


class TestVocab:
    def test_reserved_ids(self):
        v = Vocab(["a", "b"])
        assert len(v) == 6
        assert v.encode(["a", "zzz"]) == [4, textpipe.UNK]

    def test_decode_strips_specials(self):
        v = Vocab(["a"])
        assert v.decode([textpipe.BOS, 4, textpipe.EOS]) == ["a"]

    def test_from_corpus_frequency_then_lexicographic(self):
        v = Vocab.from_corpus([["b", "a", "b"], ["c", "a"]])
        assert v.itos[4:] == ["a", "b", "c"]  # a and b tie at 2, a first

    def test_save_load_roundtrip(self, tmp_path):
        v = Vocab.from_corpus([["gamma", "alpha", "beta"]])
        v.save(tmp_path / "v.vocab")
        again = Vocab.load(tmp_path / "v.vocab")
        assert again.itos == v.itos
