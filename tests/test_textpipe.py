"""The reserved ids and the token vocabulary."""

from scenemt import textpipe
from scenemt.textpipe import Vocab


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
