"""Token vocabularies with the four reserved ids the model shares.

Ids 0-3 are padding, begin- and end-of-sentence and unknown; a `Vocab` puts
the corpus's tokens above them, most frequent first. Subword segmentation
happens before scenemt: masks reach subwords through the `--alignment`
counts file.
"""

from __future__ import annotations

from collections import Counter

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
