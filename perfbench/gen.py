"""Seeded input generators for the benchmark workloads.

Everything the program receives is made here from the workload seed: token
ids, semantic graphs in the `.ug` text format, CoNLL-U trees, subword-count
alignments and model weights. The generators also return the ground truth
(scene token sets, unassigned tokens, tree heads, subword counts) that the
output checks in `checks.py` use; nothing here calls scenemt.
"""

from __future__ import annotations

import math

# scenemt reserves ids 0-3 (PAD, BOS, EOS, UNK); symbols start at 4
N_RESERVED = 4
BOS, EOS = 1, 2


class Sentence:
    """One generated source sentence with its structures and ground truth."""

    def __init__(self, n_words, scenes, unassigned, heads=None, counts=None):
        self.n_words = n_words
        self.scenes = scenes  # list of dicts: own, remote, main, kind
        self.unassigned = frozenset(unassigned)
        self.heads = heads  # 0-based head per word, -1 for the root
        self.counts = counts  # subwords per word

    def scene_sets(self):
        return [frozenset(s["own"]) | frozenset(s["remote"]) for s in self.scenes]


# -- scene structure ------------------------------------------------------------


def split_scenes(n):
    """The copy task's two-scene cover: front and back halves sharing the middle."""
    mid = n // 2
    return [
        dict(own=list(range(mid + 1)), remote=[], main=0, kind="P"),
        dict(own=list(range(mid + 1, n)), remote=[mid], main=n - 1, kind="P"),
    ]


def random_scenes(rng, n, n_scenes, n_unassigned):
    """Contiguous scene blocks over the assigned tokens, one remote edge each.

    Each scene gets at least two tokens of its own; every scene also reaches
    one token owned by another scene through a remote edge, so that token
    sits in two scenes.
    """
    unassigned = sorted(int(t) for t in rng.choice(n, size=n_unassigned, replace=False))
    assigned = [t for t in range(n) if t not in set(unassigned)]
    free = len(assigned) - 2 * n_scenes
    cuts = sorted(int(c) for c in rng.integers(0, free + 1, size=n_scenes - 1))
    sizes = [b - a + 2 for a, b in zip([0] + cuts, cuts + [free])]
    scenes, pos = [], 0
    for size in sizes:
        own = assigned[pos:pos + size]
        pos += size
        scenes.append(dict(own=own, remote=[], main=own[int(rng.integers(size))],
                           kind="PS"[int(rng.integers(2))]))
    for k, scene in enumerate(scenes):
        other = (k + 1 + int(rng.integers(n_scenes - 1))) % n_scenes
        owned = scenes[other]["own"]
        scene["remote"] = [owned[int(rng.integers(len(owned)))]]
    return scenes, unassigned


def ug_text(sentence, rng):
    """One `.ug` graph block: scenes under the root, participants in units.

    Non-main tokens of a scene hang off it in participant units of one to
    three tokens; a unit of more than one token is its own node with C/E/F
    edges to its terminals. Unassigned tokens hang off the root with U edges.
    """
    lines = [f"#L {sentence.n_words}"]
    lines += [f"T t{i} {i} w{i}" for i in range(sentence.n_words)]
    for k, scene in enumerate(sentence.scenes):
        node = f"s{k}"
        lines.append(f"E root {node} H")
        lines.append(f"E {node} t{scene['main']} {scene['kind']}")
        rest = [t for t in scene["own"] if t != scene["main"]]
        unit = 0
        while rest:
            size = min(len(rest), 1 + int(rng.integers(3)))
            chunk, rest = rest[:size], rest[size:]
            if size == 1:
                lines.append(f"E {node} t{chunk[0]} A")
                continue
            unit_node = f"u{k}_{unit}"
            unit += 1
            lines.append(f"E {node} {unit_node} A")
            for j, t in enumerate(chunk):
                lines.append(f"E {unit_node} t{t} {'CEF'[j % 3]}")
        lines += [f"E {node} t{t} A R" for t in scene["remote"]]
    lines += [f"E root t{t} U" for t in sorted(sentence.unassigned)]
    lines.append("ROOT root")
    return "\n".join(lines) + "\n"


# -- dependency trees and subwords -------------------------------------------------


def random_heads(rng, n):
    """A random rooted tree: each word hangs off one placed before it."""
    order = [int(x) for x in rng.permutation(n)]
    heads = [0] * n
    heads[order[0]] = -1
    for k in range(1, n):
        heads[order[k]] = order[int(rng.integers(k))]
    return heads


def conllu_text(sentence):
    rows = []
    for i, h in enumerate(sentence.heads):
        rel = "root" if h < 0 else "dep"
        rows.append("\t".join([str(i + 1), f"w{i}", "_", "_", "_", "_",
                               str(h + 1), rel, "_", "_"]))
    return "\n".join(rows) + "\n\n"


def subword_counts(rng, n_words, n_subwords):
    """One or two subwords per word, n_subwords in all."""
    counts = [1] * n_words
    for w in rng.choice(n_words, size=n_subwords - n_words, replace=False):
        counts[int(w)] = 2
    return counts


def mask_sentence(rng, n_subwords):
    """A masks-workload sentence of `n_subwords` tokens at subword level."""
    n_words = math.ceil(0.75 * n_subwords)
    n_scenes = max(2, min(12, round(n_words / 8)))
    scenes, unassigned = random_scenes(rng, n_words, n_scenes, max(1, n_words // 10))
    return Sentence(n_words, scenes, unassigned, heads=random_heads(rng, n_words),
                    counts=subword_counts(rng, n_words, n_subwords))


def source_sentence(rng, n_words):
    """A decode-workload source sentence with a generated scene cover."""
    n_scenes = max(2, min(6, n_words // 8))
    scenes, unassigned = random_scenes(rng, n_words, n_scenes, n_words // 10)
    return Sentence(n_words, scenes, unassigned)


def token_ids(rng, n, n_symbols):
    return [int(t) for t in rng.integers(N_RESERVED, N_RESERVED + n_symbols, size=n)]


# -- model weights -------------------------------------------------------------


def weights(rng, shapes):
    """A full parameter set: matrices ~ N(0, 1/fan_in), gains near 1, small biases."""
    out = {}
    for name in sorted(shapes):
        shape = shapes[name]
        if len(shape) == 2:
            out[name] = rng.normal(0.0, 1.0 / math.sqrt(shape[0]), size=shape)
        elif name.endswith(".g"):
            out[name] = 1.0 + rng.normal(0.0, 0.1, size=shape)
        else:
            out[name] = rng.normal(0.0, 0.1, size=shape)
    return out
