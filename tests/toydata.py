"""Deterministic toy corpora for desk-scale training runs; test fixtures, not part of scenemt.

The copy task maps every sentence to itself over a small symbol alphabet.
With the four reserved ids the total vocabulary is 4 + len(SYMBOLS) = 12,
which is what the step-0 loss check (ln 12) assumes.
"""

from __future__ import annotations

import numpy as np

from scenemt.semgraph import SceneCover
from scenemt.textpipe import RESERVED, Vocab

SYMBOLS = tuple("abcdefgh")


def copy_task(pairs=200, min_len=3, max_len=8, seed=13):
    """Sentences of random symbols paired with themselves.

    Returns (sentences, vocab, covers): token lists, the shared Vocab, and a
    two-scene cover per sentence (front and back halves overlapping on one
    token) so scene-mask heads have something real to chew on.
    """
    rng = np.random.default_rng(seed)
    vocab = Vocab(SYMBOLS)
    assert len(vocab) == len(RESERVED) + len(SYMBOLS)
    sentences, covers = [], []
    for _ in range(pairs):
        n = int(rng.integers(min_len, max_len + 1))
        tokens = [SYMBOLS[int(rng.integers(len(SYMBOLS)))] for _ in range(n)]
        sentences.append(tokens)
        covers.append(split_cover(n))
    return sentences, vocab, covers


def split_cover(n):
    """A two-scene cover of n tokens sharing the middle token."""
    if n < 3:
        return SceneCover(n, [frozenset(range(n))])
    mid = n // 2
    return SceneCover(n, [frozenset(range(mid + 1)), frozenset(range(mid, n))])


def write_copy_task(src_path, trg_path, cover_path, **kwargs):
    """Materialize the copy task as corpus + cover files for the CLI."""
    sentences, vocab, covers = copy_task(**kwargs)
    with open(src_path, "w", encoding="utf-8") as fh:
        fh.writelines(" ".join(s) + "\n" for s in sentences)
    with open(trg_path, "w", encoding="utf-8") as fh:
        fh.writelines(" ".join(s) + "\n" for s in sentences)
    with open(cover_path, "w", encoding="utf-8") as fh:
        for cover in covers:
            fh.write(f"#L {cover.length}\n")
            # the main relation is the first token of the only or front scene,
            # and the last token of the back scene
            for k, tokens in enumerate(cover.scenes):
                toks = ",".join(str(t) for t in sorted(tokens))
                fh.write(f"S P main={max(tokens) if k else min(tokens)} tokens={toks}\n")
    return sentences, vocab, covers
