"""Output checks computed apart from the program.

Each check raises CheckError naming what disagreed. Expected values come
from the generators' ground truth and from code in this file; the only
program call is the teacher-forced `Model.forward` used to rescore beam
hypotheses, whose scoring (log-softmax, length penalty) is redone here.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from gen import BOS, EOS

SCORE_TOL = 1e-9
MASK_TOL = 1e-8
SYMMETRIC_FAMILIES = ("binary", "scaled", "normal", "udiscal")


class CheckError(AssertionError):
    pass


# -- train-copy -------------------------------------------------------------------


def check_losses(losses, vocab_size, tail, margin):
    """First loss is ln V; all finite; the mean of the last `tail` is lower by `margin`."""
    if not losses:
        raise CheckError("no losses recorded")
    if abs(losses[0] - math.log(vocab_size)) > 1e-9:
        raise CheckError(f"first loss {losses[0]!r} is not ln {vocab_size}")
    if not all(math.isfinite(x) for x in losses):
        raise CheckError("non-finite loss")
    last = sum(losses[-tail:]) / len(losses[-tail:])
    if not last < losses[0] - margin:
        raise CheckError(
            f"mean of the last {tail} losses {last:.6f} is not {margin} below "
            f"the first {losses[0]:.6f}"
        )


# -- decode-beam4 -------------------------------------------------------------------


def log_softmax_rows(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def check_hypothesis(forward, src, masks, cap, vocab_size, alpha, tokens, score, finished):
    """Rescore one beam result with a single teacher-forced forward pass.

    `forward(src, trg_in, masks)` returns the logits array. The target is the
    hypothesis plus EOS when it finished; its summed log probability over the
    GNMT penalty ((5+n)/6)^alpha must equal the reported score.
    """
    if not all(0 <= t < vocab_size for t in tokens):
        raise CheckError(f"token outside the vocabulary in {tokens}")
    targets = list(tokens) + ([EOS] if finished else [])
    if not 0 < len(targets) <= cap:
        raise CheckError(f"hypothesis of {len(targets)} steps against cap {cap}")
    logp = log_softmax_rows(forward(src, [BOS] + targets[:-1], masks))
    total = float(logp[np.arange(len(targets)), targets].sum())
    expected = total / ((5.0 + len(targets)) / 6.0) ** alpha
    if abs(expected - score) > SCORE_TOL:
        raise CheckError(f"score {score!r} but rescoring gives {expected!r}")


# -- masks-ucca --------------------------------------------------------------------


def read_mask_file(text):
    """(family, values) from a mask file: 'M rows cols family' then rows."""
    lines = text.split("\n")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "M":
        raise CheckError(f"bad mask header {lines[0]!r}")
    rows, cols = int(head[1]), int(head[2])
    body = [ln for ln in lines[1:] if ln]
    if len(body) != rows:
        raise CheckError(f"{len(body)} rows, header says {rows}")
    values = np.array([[float(x) for x in ln.split(" ")] for ln in body])
    if values.shape != (rows, cols):
        raise CheckError(f"mask of shape {values.shape}, header says {rows}x{cols}")
    return head[3], values


def _bfs(adj, start, n):
    dist = [math.inf] * n
    dist[start] = 0
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if dist[v] == math.inf:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def word_masks(sentence, c_scaled, c_normal):
    """Expected word-level matrices of the scene and tree families."""
    n = sentence.n_words
    sets = sentence.scene_sets()
    member = np.zeros((n, len(sets)), dtype=bool)
    for k, s in enumerate(sets):
        member[sorted(s), k] = True
    shared = (member.astype(int) @ member.T.astype(int)) > 0
    adj = [[j for j in range(len(sets)) if j != k and sets[k] & sets[j]]
           for k in range(len(sets))]
    scene_dist = np.array([_bfs(adj, k, len(sets)) for k in range(len(sets))])
    dist = np.full((n, n), math.inf)
    for a in range(len(sets)):
        for b in range(len(sets)):
            pair = member[:, a][:, None] & member[:, b][None, :]
            dist = np.where(pair, np.minimum(dist, scene_dist[a, b]), dist)
    free = sorted(sentence.unassigned)

    def pin(m):
        np.fill_diagonal(m, 1.0)
        m[free, :] = 1.0
        m[:, free] = 1.0
        return m

    tree_adj = [[] for _ in range(n)]
    for i, h in enumerate(sentence.heads):
        if h >= 0:
            tree_adj[i].append(h)
            tree_adj[h].append(i)
    tree = np.array([_bfs(tree_adj, s, n) for s in range(n)])
    normal = np.where(np.isfinite(dist), np.exp(-math.pi * (c_normal * dist) ** 2), 0.0)
    return {
        "binary": pin(shared.astype(float)),
        "scaled": pin(np.where(shared, 1.0, c_scaled)),
        "normal": pin(normal),
        "udiscal": np.exp(-tree ** 2 / 2.0) / math.sqrt(2.0 * math.pi),
    }


def expected_masks(sentence, c_scaled, c_normal):
    """Expected subword-level matrices of all five families."""
    counts = np.array(sentence.counts)
    expand = lambda m: np.repeat(np.repeat(m, counts, axis=0), counts, axis=1)
    out = {f: expand(m) for f, m in word_masks(sentence, c_scaled, c_normal).items()}
    ends = np.cumsum(counts) - 1
    starts = ends - counts + 1
    mids = (starts + ends) / 2.0
    parents = [h if h >= 0 else w for w, h in enumerate(sentence.heads)]
    centers = np.repeat(mids[parents], counts)
    offsets = np.arange(counts.sum())[None, :] - centers[:, None]
    out["pascal"] = np.exp(-offsets ** 2 / 2.0) / math.sqrt(2.0 * math.pi)
    return out


def check_mask_file(text, family, expected):
    got_family, values = read_mask_file(text)
    if got_family != family:
        raise CheckError(f"family {got_family!r}, expected {family!r}")
    if values.shape != expected.shape:
        raise CheckError(f"{family} mask of shape {values.shape}, expected {expected.shape}")
    if values.min() < 0.0 or values.max() > 1.0:
        raise CheckError(f"{family} mask value outside [0, 1]")
    if family in SYMMETRIC_FAMILIES and not np.array_equal(values, values.T):
        raise CheckError(f"{family} mask is not symmetric")
    worst = float(np.abs(values - expected).max())
    if worst > MASK_TOL:
        raise CheckError(f"{family} mask differs from the expected one by {worst:.3g}")
