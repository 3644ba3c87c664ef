import os

# One BLAS thread, as perfbench pins: set before numpy loads, and inherited by
# the CLI subprocesses. These matrices are too small for a second thread to
# pay; it only doubles the CPU a test run burns.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from collections import deque

import numpy as np
import pytest

from scenemt import autodiff as ad
from scenemt import semgraph
from scenemt.errors import DimensionError, ParseError, StructuralError
from scenemt.masks import FAMILIES, Mask
from scenemt.model import BeamResult, _search, length_penalty

# "I saw the dog that barked ." -- two scenes sharing "dog"; "that" and "."
# hang outside both scenes.
TWO_SCENE_GRAPH = """\
#L 7
T tI 0 I
T tsaw 1 saw
T tthe 2 the
T tdog 3 dog
T tthat 4 that
T tbarked 5 barked
T tdot 6 .
E root s1 H
E root s2 H
E root tthat R
E root tdot U
E s1 tsaw P
E s1 tI A
E s1 udog A
E udog tthe F
E udog tdog C
E s2 tbarked P
E s2 tdog A R
ROOT root
"""

TWO_SCENE_TOKENS = "I saw the dog that barked .".split()
I, SAW, THE, DOG, THAT, BARKED, DOT = range(7)

# Two scenes that both start at token 0: sa {0, 3, 4} with main relation d (3)
# and sb {0, 1, 2} with main relation c (2). Only the main relation puts sb,
# the later node, first.
SHARED_FIRST_TOKEN_GRAPH = """\
#L 5
T t0 0 a
T t1 1 b
T t2 2 c
T t3 3 d
T t4 4 e
E root sa H
E root sb H
E sa t3 P
E sa t0 A
E sa t4 A
E sb t2 P
E sb t0 A R
E sb t1 A
ROOT root
"""


@pytest.fixture
def two_scene_graph():
    (graph,) = semgraph.parse_ucca_file(TWO_SCENE_GRAPH)
    return graph


@pytest.fixture
def two_scene_cover(two_scene_graph):
    return semgraph.extract_scenes(two_scene_graph)


def random_tree_heads(n, rng):
    """Random rooted tree: node i>0 hangs off a random earlier node."""
    heads = [semgraph.ROOT_HEAD]
    for i in range(1, n):
        heads.append(int(rng.integers(0, i)))
    order = rng.permutation(n)
    # relabel so the root is not always token 0
    relabel = {int(old): new for new, old in enumerate(order)}
    new_heads = [0] * n
    for old, h in enumerate(heads):
        new_heads[relabel[old]] = semgraph.ROOT_HEAD if h == semgraph.ROOT_HEAD else relabel[h]
    return new_heads


def random_ud_graph(n, rng):
    heads = random_tree_heads(n, rng)
    return semgraph.UdGraph(n, heads)


def random_cover(rng, max_len=10, max_scenes=4):
    """Random scene cover; scenes may overlap and some tokens stay out."""
    L = int(rng.integers(2, max_len + 1))
    n_scenes = int(rng.integers(1, max_scenes + 1))
    scenes = []
    for _ in range(n_scenes):
        size = int(rng.integers(1, L + 1))
        scenes.append(frozenset(int(t) for t in rng.choice(L, size=size, replace=False)))
        rng.random()  # the P/S draw: a cover keeps no kind, but each seed keeps its covers
    return semgraph.SceneCover(L, scenes)


# -- mask files -----------------------------------------------------------------
#
# No command reads a mask file back; the tests read what `write_mask` and
# `scenemt masks` write with this reader.


def read_mask(text):
    """Parse mask-file text; a bad header, row or entry raises ParseError naming its line."""
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines or not lines[0][1].startswith("M "):
        raise ParseError("mask file must start with an 'M <rows> <cols> <family>' header")
    head_line, header = lines[0]
    fields = header.split()
    if len(fields) != 4:
        raise ParseError("bad mask header", line=head_line)
    if not (fields[1].isdecimal() and fields[2].isdecimal()):
        raise ParseError(
            f"mask dimensions must be non-negative integers, got {fields[1]!r} and {fields[2]!r}",
            line=head_line,
        )
    rows, cols, family = int(fields[1]), int(fields[2]), fields[3]
    if family not in FAMILIES:
        raise ParseError(f"unknown mask family {family!r}", line=head_line)
    if len(lines) - 1 != rows:
        raise ParseError(f"expected {rows} data rows, found {len(lines) - 1}")
    values = np.empty((rows, cols))
    for r, (lineno, line) in enumerate(lines[1:]):
        parts = line.split()
        if len(parts) != cols:
            raise ParseError(f"expected {cols} columns", line=lineno)
        try:
            values[r] = [float(p) for p in parts]
        except ValueError as exc:
            raise ParseError(f"non-numeric mask entry: {exc}", line=lineno) from exc
    return Mask(values, family)


def unique_write_mask(mask):
    """Reference for `write_mask`: each distinct value formatted once, found by `np.unique`.

    Values are told apart by their bits, so -0.0 and 0.0 keep their own text.
    """
    values = np.ascontiguousarray(mask.values, dtype=np.float64)
    _, first, where = np.unique(
        values.view(np.int64), return_index=True, return_inverse=True
    )
    distinct = values.reshape(-1)[first].tolist()
    text = np.array([f"{v:.9g}" for v in distinct], dtype=object)
    rows = text[where.reshape(values.shape)].tolist()
    lines = [f"M {values.shape[0]} {values.shape[1]} {mask.family}"]
    lines.extend(" ".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def floyd_warshall(n, edges):
    """Independent all-pairs shortest paths for oracle comparisons."""
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for u, v in edges:
        dist[u, v] = dist[v, u] = 1.0
    for k in range(n):
        for i in range(n):
            for j in range(n):
                through = dist[i, k] + dist[k, j]
                if through < dist[i, j]:
                    dist[i, j] = through
    return dist


# -- references for the fast graph paths --------------------------------------
#
# The simple algorithms that semgraph replaced with an edge index and array
# forms, kept as oracles: they scan the raw edge list and walk scenes pair
# by pair.


class SceneGraph:
    """Scenes as nodes, an edge wherever two scenes share a token."""

    def __init__(self, n_scenes, adj):
        self.n_scenes = n_scenes
        self.adj = adj  # adj[i] = set of neighbouring scene ids

    @classmethod
    def from_cover(cls, cover):
        n = len(cover.scenes)
        adj = [set() for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if cover.scenes[i] & cover.scenes[j]:
                    adj[i].add(j)
                    adj[j].add(i)
        return cls(n, adj)

    def distances_from(self, start):
        dist = [np.inf] * self.n_scenes
        dist[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in sorted(self.adj[u]):
                if dist[v] == np.inf:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        return dist


def bfs_scene_distance(cover):
    """Token distances: a BFS per scene, then the best scene pair per token pair."""
    L = cover.length
    dist = np.full((L, L), np.inf)
    sg = SceneGraph.from_cover(cover)
    scene_dist = [sg.distances_from(i) for i in range(sg.n_scenes)]
    token_scenes = [[] for _ in range(L)]
    for idx, s in enumerate(cover.scenes):
        for t in s:
            token_scenes[t].append(idx)
    for i in range(L):
        for j in range(i, L):
            best = np.inf
            for si in token_scenes[i]:
                for sj in token_scenes[j]:
                    best = min(best, scene_dist[si][sj])
            dist[i, j] = dist[j, i] = best
    return dist


def scan_children(graph, node_id):
    return [e for e in graph.edges if e.parent == node_id]


def scan_tokens_under(graph, node_id):
    """Terminals reachable from `node_id`, scanning every edge at every step."""
    seen, queue = {node_id}, deque([node_id])
    while queue:
        n = queue.popleft()
        for e in scan_children(graph, n):
            if e.child not in seen:
                seen.add(e.child)
                queue.append(e.child)
    tok = {nid: t for nid, t, _ in graph.terminals}
    return frozenset(tok[n] for n in seen if n in tok)


def scan_extract_scenes(graph):
    """extract_scenes over edge-scanning children and reachability."""
    scenes = []
    for node in sorted(graph.nodes):
        main_edges = [e for e in scan_children(graph, node)
                      if e.category in semgraph.MAIN_RELATION_CATEGORIES]
        if not main_edges:
            continue
        if len(main_edges) > 1:
            raise StructuralError(
                f"node {node!r} has {len(main_edges)} main-relation edges"
            )
        scenes.append((scan_tokens_under(graph, node),
                       scan_tokens_under(graph, main_edges[0].child)))
    scenes.sort(key=lambda s: (min(s[0], default=-1), sorted(s[1])))
    return semgraph.SceneCover(graph.length, [tokens for tokens, _ in scenes])


# -- autodiff references ----------------------------------------------------------
#
# The small ops that `autodiff.attention` fuses, kept to compose the reference
# it must match, and the finite-difference gradient oracle.


def transpose(a):
    """Swap the last two axes."""
    a = ad._as_tensor(a)

    def backward(g):
        if a.requires_grad:
            a.accumulate(ad._swap(g))

    return ad._make(ad._swap(a.data), (a,), backward)


def softmax_rows(x):
    """Row-wise softmax with max subtraction; each output row sums to 1."""
    x = ad._as_tensor(x)
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        if x.requires_grad:
            x.accumulate(s * (g - (g * s).sum(axis=-1, keepdims=True)))

    return ad._make(s, (x,), backward)


def sum_all(x):
    x = ad._as_tensor(x)

    def backward(g):
        if x.requires_grad:
            x.accumulate(np.full_like(x.data, float(g)))

    return ad._make(x.data.sum(), (x,), backward)


def grad_check(f, x, h=1e-5):
    """Max relative error between analytic and central-difference gradients.

    `f` must map the Tensor `x` to a scalar Tensor. The relative error per
    coordinate is |numeric - analytic| / max(1, |analytic|).
    """
    if h <= 0:
        raise ValueError("h must be positive")
    x.grad = None
    out = f(x)
    if out.data.size != 1:
        raise DimensionError("grad_check requires a scalar-valued function")
    out.backward()
    analytic = np.zeros_like(x.data) if x.grad is None else x.grad.copy()

    flat = x.data.reshape(-1)
    numeric = np.zeros_like(flat)
    with ad.no_grad():
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + h
            fp = float(f(x).data)
            flat[i] = saved - h
            fm = float(f(x).data)
            flat[i] = saved
            numeric[i] = (fp - fm) / (2.0 * h)
    numeric = numeric.reshape(x.data.shape)
    denom = np.maximum(1.0, np.abs(analytic))
    return float((np.abs(numeric - analytic) / denom).max())


def keep_graph_backward(root):
    """`Tensor.backward` before the replay released the graph, as the reference for it.

    It replays the same nodes in the same reverse-DFS order, but every node
    keeps its gradient, closure and parents afterwards.
    """
    root.grad = np.ones_like(root.data)
    for node in reversed(ad.Tape.trace(root).nodes):
        if node._backward is not None:
            node._backward(node.grad)


def reference_layer_norm(x, gain, bias, eps=1e-6):
    """The layer-norm node before the residual add was folded in, with np.mean.

    `ad.add` followed by this is the composed reference for `ad.layer_norm`.
    """
    x, gain, bias = ad._as_tensor(x), ad._as_tensor(gain), ad._as_tensor(bias)
    xc = x.data - x.data.mean(axis=-1, keepdims=True)
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out_data = gain.data * xhat + bias.data

    def backward(g):
        if bias.requires_grad:
            bias.accumulate(ad._unbroadcast(g, bias.data.shape))
        if gain.requires_grad:
            gain.accumulate(ad._unbroadcast(g * xhat, gain.data.shape))
        if x.requires_grad:
            gx = g * gain.data
            m1 = gx.mean(axis=-1, keepdims=True)
            m2 = (gx * xhat).mean(axis=-1, keepdims=True)
            x.accumulate(inv * (gx - m1 - xhat * m2))

    return ad._make(out_data, (x, gain, bias), backward)


# -- search oracles ------------------------------------------------------------------


def beam_search(score_fn, bos, eos, cfg):
    """Beam search over a prefix scorer, by `model._search`'s rules.

    `score_fn(prefix)` maps a token tuple (starting with `bos`) to a log
    probability vector for the next token.
    """
    return _search(lambda prefixes, _: np.array([score_fn(seq) for seq in prefixes]),
                   bos, eos, cfg)


def greedy_decode(score_fn, bos, eos, max_len):
    """Argmax decoding: the reference that beam search at width 1 must match.

    `score_fn(prefix)` maps a token tuple (starting with `bos`) to a log
    probability vector for the next token.
    """
    seq = (bos,)
    total = 0.0
    for _ in range(max_len):
        logp = score_fn(seq)
        tok = int(np.argmax(logp))
        total += float(logp[tok])
        seq = seq + (tok,)
        if tok == eos:
            return BeamResult(
                list(seq[1:]), total / length_penalty(len(seq) - 1, 0.0), True
            )
    return BeamResult(list(seq[1:]), total, False)
