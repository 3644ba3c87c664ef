"""Corpus filtering, BPE subwords, and word/subword alignment.

Filtering mirrors the usual NMT recipe at desk scale: drop empty pairs,
pairs with a side longer than 100 tokens, and pairs whose length ratio
(max/min) exceeds 1.5; anything heavier (language id, alignment scoring,
truecasing) plugs in through predicate/transform hooks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .errors import AlignmentError, ConfigError, ParseError
from .masks import Alignment

END_MARKER = "</w>"


@dataclass
class ParallelPair:
    src: list
    trg: list
    meta: str = None


def filter_corpus(pairs, max_len=100, max_ratio=1.5, predicates=(), transforms=()):
    """Keep pairs passing the length, ratio, and injected predicates.

    `transforms` (pair -> pair; the seam for unescaping or truecasing) run
    first; injected predicates (the seam for language-id or alignment
    scoring) run last. Boundary values survive: a pair is dropped only when
    a side is strictly longer than `max_len` or the max/min ratio is
    strictly above `max_ratio`.
    """
    kept = []
    for pair in pairs:
        for transform in transforms:
            pair = transform(pair)
        ls, lt = len(pair.src), len(pair.trg)
        if ls == 0 or lt == 0:
            continue
        if ls > max_len or lt > max_len:
            continue
        if max(ls, lt) / min(ls, lt) > max_ratio:
            continue
        if any(not pred(pair) for pred in predicates):
            continue
        kept.append(pair)
    return kept


# -- byte-pair encoding ----------------------------------------------------------


@dataclass
class BpeModel:
    merges: list  # ordered (left, right) symbol pairs
    vocab: set = field(default_factory=set)


def train_bpe(corpus, merges):
    """Greedy highest-frequency pair merging over a tokenized corpus.

    Ties break lexicographically on the (left, right) pair so training is
    deterministic. Each word gets the end-of-word marker appended as its
    final symbol before any merging.
    """
    if merges < 0:
        raise ConfigError("merge count must be non-negative")
    word_counts = Counter()
    for tokens in corpus:
        word_counts.update(tokens)

    sequences = {
        word: tuple(word) + (END_MARKER,) for word in word_counts
    }
    merge_list = []
    for _ in range(merges):
        pair_counts = Counter()
        for word, seq in sequences.items():
            n = word_counts[word]
            for a, b in zip(seq, seq[1:]):
                pair_counts[(a, b)] += n
        if not pair_counts:
            break
        best = min(pair_counts, key=lambda p: (-pair_counts[p], p))
        merge_list.append(best)
        sequences = {
            word: _merge_pair(seq, best) for word, seq in sequences.items()
        }

    vocab = set()
    for seq in sequences.values():
        vocab.update(seq)
    return BpeModel(merge_list, vocab)


def _merge_pair(seq, pair):
    out = []
    i = 0
    while i < len(seq):
        if i + 1 < len(seq) and (seq[i], seq[i + 1]) == pair:
            out.append(seq[i] + seq[i + 1])
            i += 2
        else:
            out.append(seq[i])
            i += 1
    return tuple(out)


def apply_bpe(model, word):
    """Replay the model's merges over one word; the marker rides the tail."""
    seq = tuple(word) + (END_MARKER,)
    for pair in model.merges:
        if len(seq) == 1:
            break
        seq = _merge_pair(seq, pair)
    return list(seq)


def bpe_join(subwords):
    """Undo apply_bpe: concatenate pieces and strip end-of-word markers."""
    return "".join(subwords).replace(END_MARKER, "")


def segment_sentence(model, tokens):
    """Apply BPE to every token, returning the flat subword sequence."""
    out = []
    for token in tokens:
        out.extend(apply_bpe(model, token))
    return out


def write_bpe(model):
    return "".join(f"{left} {right}\n" for left, right in model.merges)


def read_bpe(text):
    merges = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split(" ")
        if len(parts) != 2:
            raise ParseError("merge lines look like '<left> <right>'", line=lineno)
        merges.append((parts[0], parts[1]))
    return BpeModel(merges)


# -- word/subword alignment --------------------------------------------------------


def word_subword_alignment(words, subwords):
    """Map each word to its contiguous subword span.

    Pieces carrying the end-of-word marker close the current word; if no
    markers are present, subwords are matched greedily by concatenation.
    Raises AlignmentError when the two sequences do not spell the same text.
    """
    marked = any(END_MARKER in s for s in subwords)
    ranges = []
    w = 0
    start = 0
    acc = ""
    for i, piece in enumerate(subwords):
        if w >= len(words):
            raise AlignmentError("more subwords than the words can absorb")
        acc += piece.replace(END_MARKER, "")
        word = words[w]
        closes = piece.endswith(END_MARKER) if marked else acc == word
        if closes:
            if acc != word:
                raise AlignmentError(
                    f"subwords spell {acc!r} where word {w} is {word!r}"
                )
            ranges.append((start, i))
            w += 1
            start = i + 1
            acc = ""
        elif not word.startswith(acc):
            raise AlignmentError(
                f"subwords spell {acc!r} which does not start word {w} ({word!r})"
            )
    if w != len(words):
        raise AlignmentError(f"subwords cover only {w} of {len(words)} words")
    return Alignment(tuple(ranges))


# -- vocabulary -----------------------------------------------------------------

PAD, BOS, EOS, UNK = 0, 1, 2, 3
RESERVED = ("<pad>", "<s>", "</s>", "<unk>")


class Vocab:
    """Token/id table with four reserved ids at the bottom."""

    def __init__(self, tokens):
        self.itos = list(RESERVED) + list(tokens)
        self.stoi = {t: i for i, t in enumerate(self.itos)}

    def __len__(self):
        return len(self.itos)

    @classmethod
    def from_corpus(cls, sentences):
        counts = Counter()
        for tokens in sentences:
            counts.update(tokens)
        return cls(sorted(counts, key=lambda t: (-counts[t], t)))

    def encode(self, tokens):
        return [self.stoi.get(t, UNK) for t in tokens]

    def decode(self, ids):
        return [self.itos[i] for i in ids if i not in (PAD, BOS, EOS)]

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for t in self.itos[len(RESERVED):]:
                fh.write(t + "\n")

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as fh:
            return cls([ln.rstrip("\n") for ln in fh if ln.rstrip("\n")])
