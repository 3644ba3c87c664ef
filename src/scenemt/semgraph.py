"""Semantic graphs, scene extraction, and dependency trees.

Three line-oriented inputs are understood here:

* semantic graph files (``.ug``): ``#L <n>`` header, ``T <node> <tok> <surface>``
  terminal lines, ``E <parent> <child> <category> [R]`` edge lines (trailing
  ``R`` marks a remote edge), and a closing ``ROOT <node>`` line per graph;
* scene-cover shortcut files: ``#L <n>`` then one ``S <P|S> main=<i-j|i>
  tokens=<i,j,...>`` line per scene, so tests and the CLI can supply covers
  without a parser. Every token lies in 0..n-1 and ``main=`` inside
  ``tokens=``; a line that breaks either rule raises ParseError naming it;
* CoNLL-U, of which only ID and HEAD are consumed; IDs run 1, 2, ... in
  each sentence.

A *scene* is any graph node with an outgoing P or S edge; its token set is
every terminal reachable from it, remote edges included (that is what lets a
token belong to several scenes). A cover keeps only these token sets: the
main relation (the P or S edge) decides that a scene exists and where it
sorts, and is not stored. Tokens in no scene are the cover's unassigned.

Costs are linear in the input: each line is split once, each graph indexes
its out-edges and their child ids once, reachability walks child-id lists,
the cycle check is Kahn's in-degree count, a cover line is checked in
O(listed tokens), and the scene and tree distance matrices are filled in
array form with no array larger than L x L.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, ParseError, StructuralError

ROOT_HEAD = -1  # head marker for the dependency root token

MAIN_RELATION_CATEGORIES = ("P", "S")


# -- semantic graphs ----------------------------------------------------------


class UccaEdge(NamedTuple):
    parent: str
    child: str
    category: str
    remote: bool = False


@dataclass
class UccaGraph:
    """A semantic graph with an index of each node's outgoing edges.

    The indexes (`out_edges`: parent -> its edges in file order;
    `child_ids`: parent -> their child ids) and the terminal map
    (`token_of`: terminal node -> token index) are built at construction,
    so `reachable` and `tokens_under` cost what they visit, not a scan of
    every edge. `edges` must not change afterwards.
    """

    nodes: set
    edges: list
    terminals: list  # ordered (node_id, token_index, surface)
    root: str
    out_edges: dict = field(init=False, repr=False, compare=False)
    child_ids: dict = field(init=False, repr=False, compare=False)
    token_of: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.out_edges = {}
        for e in self.edges:
            self.out_edges.setdefault(e.parent, []).append(e)
        self.child_ids = {p: [e.child for e in es] for p, es in self.out_edges.items()}
        self.token_of = {nid: tok for nid, tok, _ in self.terminals}

    @property
    def length(self):
        return len(self.terminals)

    def validate(self):
        seen_tokens = {}
        for nid, tok, _ in self.terminals:
            if tok in seen_tokens:
                raise StructuralError(f"token index {tok} declared twice")
            seen_tokens[tok] = nid
        if sorted(seen_tokens) != list(range(len(self.terminals))):
            raise StructuralError(
                "terminal token indices must cover 0..L-1 exactly"
            )
        nodes = self.nodes
        indegree = dict.fromkeys(nodes, 0)  # over non-remote edges
        for e in self.edges:
            if e.parent not in nodes or e.child not in nodes:
                raise StructuralError(
                    f"edge {e.parent}->{e.child} references an undeclared node"
                )
            if not e.remote:
                indegree[e.child] += 1
        if self.root not in nodes:
            raise StructuralError(f"root {self.root!r} is not a declared node")

        # acyclicity over non-remote edges by Kahn's algorithm: a node is freed
        # once all its parents are, and only nodes on or under a cycle never are
        out_edges = self.out_edges
        ready = [n for n, d in indegree.items() if not d]
        freed = 0
        while ready:
            freed += 1
            for e in out_edges.get(ready.pop(), ()):
                if not e.remote:
                    indegree[e.child] -= 1
                    if not indegree[e.child]:
                        ready.append(e.child)
        if freed != len(nodes):
            raise StructuralError("cycle detected over non-remote edges")

        # every node reachable from the root (remote edges count)
        missing = nodes - self.reachable(self.root)
        if missing:
            raise StructuralError(
                f"nodes unreachable from root: {sorted(missing)}"
            )

    def reachable(self, start):
        """All nodes reachable from `start`, following every edge."""
        child_ids = self.child_ids
        seen = {start}
        stack = [start]
        while stack:
            for c in child_ids.get(stack.pop(), ()):
                if c not in seen:
                    seen.add(c)
                    stack.append(c)
        return seen

    def tokens_under(self, node_id):
        """Token indices of terminals reachable from `node_id`."""
        token_of = self.token_of
        return frozenset(token_of[n] for n in self.reachable(node_id) if n in token_of)


@dataclass
class SceneCover:
    """A sentence of `length` tokens and its scenes, each a frozenset of token indices."""

    length: int
    scenes: list

    @property
    def unassigned(self):
        """The tokens in no scene."""
        return frozenset(range(self.length)).difference(*self.scenes)


def parse_ucca_file(text):
    """Parse a multi-graph file; each graph ends at its ROOT line."""
    graphs = []
    length = None
    terminals, edges, root = [], [], None

    def flush(lineno):
        nonlocal length, terminals, edges, root
        if length is None and not terminals and not edges:
            return
        if length is None:
            raise ParseError("graph block missing #L header", line=lineno)
        if root is None:
            raise ParseError("graph block missing ROOT line", line=lineno)
        if len(terminals) != length:
            raise StructuralError(
                f"header declares {length} tokens, found {len(terminals)} terminals"
            )
        nodes = {nid for nid, _, _ in terminals}
        nodes |= {e.parent for e in edges}
        nodes.add(root)
        g = UccaGraph(nodes=nodes, edges=edges, terminals=terminals, root=root)
        g.validate()
        graphs.append(g)
        length, terminals, edges, root = None, [], [], None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields:
            continue
        tag = fields[0]
        try:
            # most lines are edges, so their tag is tested first
            if tag == "E":
                if len(fields) not in (4, 5):
                    raise ParseError("edge needs parent, child, category", line=lineno)
                remote = len(fields) == 5
                if remote and fields[4] != "R":
                    raise ParseError(f"unknown edge flag {fields[4]!r}", line=lineno)
                edges.append(UccaEdge(fields[1], fields[2], fields[3], remote))
            elif tag == "T":
                if len(fields) < 4:
                    raise ParseError("terminal needs node, index, surface", line=lineno)
                terminals.append((fields[1], int(fields[2]), " ".join(fields[3:])))
            elif tag.startswith("//"):
                continue
            elif tag == "#L":
                if length is not None:
                    raise ParseError("duplicate #L header", line=lineno)
                length = int(fields[1])
            elif tag == "ROOT":
                root = fields[1]
                flush(lineno)
            else:
                raise ParseError(f"unknown record tag {tag!r}", line=lineno)
        except (ValueError, IndexError) as exc:
            raise ParseError(f"malformed record: {exc}", line=lineno) from exc
    if length is not None or terminals or edges:
        raise ParseError("unterminated graph block (missing ROOT)")
    return graphs


def extract_scenes(graph):
    """Split a validated graph into its scene cover.

    One scene per node carrying an outgoing P or S edge; two such edges on
    one node violate the one-main-relation rule. Scenes sort by first token
    covered, then by their main relation's tokens.
    """
    keyed = []
    for node in sorted(graph.out_edges):
        main_edges = [
            e for e in graph.out_edges[node]
            if e.category in MAIN_RELATION_CATEGORIES
        ]
        if not main_edges:
            continue
        if len(main_edges) > 1:
            raise StructuralError(
                f"node {node!r} has {len(main_edges)} main-relation edges"
            )
        tokens = graph.tokens_under(node)
        main = graph.tokens_under(main_edges[0].child)
        keyed.append(((min(tokens, default=-1), sorted(main)), tokens))
    keyed.sort(key=lambda k: k[0])
    return SceneCover(graph.length, [tokens for _, tokens in keyed])


def scene_distance(cover):
    """L x L matrix of token distances through the scene graph.

    0 when two tokens share a scene, otherwise the shortest scene-graph path
    (scenes adjacent when they share a token) between any scene of i and any
    scene of j; infinity when disconnected or when either token is
    unassigned.

    Array form: scene-to-scene hop counts come from a breadth-first walk of
    all scenes at once over the token-scene incidence matrix; each token
    row is then a running minimum over the scenes that hold the token.
    """
    L, S = cover.length, len(cover.scenes)
    dist = np.full((L, L), np.inf)
    member = np.zeros((S, L), dtype=bool)
    for k, scene in enumerate(cover.scenes):
        member[k, list(scene)] = True

    adjacent = member @ member.T  # a boolean product skips BLAS and its work buffer
    hops = np.where(np.eye(S, dtype=bool), 0.0, np.inf)
    reached = frontier = np.eye(S, dtype=bool)
    step = 0
    while frontier.any():
        step += 1
        frontier = (frontier @ adjacent) & ~reached
        reached = reached | frontier
        hops[frontier] = step

    # near[a, j]: fewest hops from scene a to any scene holding token j
    near = np.full((S, L), np.inf)
    for b in range(S):
        near[:, member[b]] = np.minimum(near[:, member[b]], hops[:, b, None])
    for a in range(S):
        dist[member[a]] = np.minimum(dist[member[a]], near[a])
    return dist


def sem_split(tokens, cover):
    """Split a sentence into one token list per scene (DSS-lite).

    Tokens keep their original order inside each piece; unassigned tokens are
    dropped. Covers with at most one scene return the sentence unchanged.
    """
    if len(tokens) != cover.length:
        raise DimensionError(
            f"{len(tokens)} tokens but cover describes {cover.length}"
        )
    if len(cover.scenes) <= 1:
        return [list(tokens)]
    return [
        [tokens[i] for i in sorted(scene)]
        for scene in cover.scenes
    ]


# -- scene-cover shortcut files ------------------------------------------------


def parse_cover_file(text):
    """Parse one or more `#L` blocks of scene lines into covers.

    Each `S` line is checked as it is read, in O(listed tokens): a kind other
    than P or S, a token outside 0..#L-1 or a `main=` outside `tokens=`
    raises ParseError naming the line.
    """
    covers = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields:
            continue
        if fields[0] == "#L":
            try:
                length = int(fields[1])
            except (ValueError, IndexError) as exc:
                raise ParseError("bad #L header", line=lineno) from exc
            if length < 0:
                raise ParseError(f"#L length must be non-negative, got {length}", line=lineno)
            covers.append(SceneCover(length, []))
        elif fields[0] == "S":
            if not covers:
                raise ParseError("scene line before #L header", line=lineno)
            length = covers[-1].length
            try:
                kind = fields[1]
                opts = dict(f.split("=", 1) for f in fields[2:])
                main_spec = opts["main"]
                if "-" in main_spec:
                    lo, hi = (int(x) for x in main_spec.split("-"))
                else:
                    lo = hi = int(main_spec)
                tokens = frozenset(int(x) for x in opts["tokens"].split(","))
            except (ValueError, KeyError, IndexError) as exc:
                raise ParseError(f"malformed scene line: {exc}", line=lineno) from exc
            if kind not in MAIN_RELATION_CATEGORIES:
                raise ParseError(f"scene kind must be P or S, got {kind!r}", line=lineno)
            if not 0 <= lo <= hi < length:
                raise ParseError(f"main={main_spec} is not an index or range within "
                                 f"0..{length - 1}", line=lineno)
            outside = [t for t in tokens if not 0 <= t < length]
            if outside:
                raise ParseError(f"scene token {min(outside)} outside 0..{length - 1}",
                                 line=lineno)
            # a range longer than the token list cannot lie inside it
            if hi - lo >= len(tokens) or any(t not in tokens for t in range(lo, hi + 1)):
                raise ParseError(f"main={main_spec} lies outside tokens={opts['tokens']}",
                                 line=lineno)
            covers[-1].scenes.append(tokens)
        else:
            raise ParseError(f"unknown record tag {fields[0]!r}", line=lineno)
    return covers


# -- dependency trees ----------------------------------------------------------


@dataclass
class UdGraph:
    length: int
    heads: list  # 0-based parent per token, ROOT_HEAD for the root

    def validate(self):
        roots = [i for i, h in enumerate(self.heads) if h == ROOT_HEAD]
        if len(roots) != 1:
            raise StructuralError(f"expected exactly one root, found {len(roots)}")
        # walking up from every token must reach the root without revisits
        for i in range(self.length):
            seen = set()
            node = i
            while node != ROOT_HEAD:
                if node in seen:
                    raise StructuralError("head links form a cycle")
                seen.add(node)
                node = self.heads[node]


def parse_conllu(text):
    """Parse CoNLL-U content into one UdGraph per sentence block."""
    graphs = []
    rows = []
    lineno_of = []

    def flush():
        nonlocal rows, lineno_of
        if not rows:
            return
        heads = []
        for head, ln in zip(rows, lineno_of):
            if head == 0:
                heads.append(ROOT_HEAD)
            elif 1 <= head <= len(rows):
                heads.append(head - 1)
            else:
                raise ParseError(f"head index {head} out of range", line=ln)
        g = UdGraph(len(rows), heads)
        g.validate()
        graphs.append(g)
        rows, lineno_of = [], []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            flush()
            continue
        if line.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) != 10:
            raise ParseError(f"expected 10 columns, found {len(cols)}", line=lineno)
        tid = cols[0]
        if not tid.isdigit():
            continue  # multiword ranges ("i-j") and empty nodes ("i.j")
        # a row's position is its id, as the heads below assume; ids and heads are ASCII
        # digits, since int() would also take '+1', '1_0' and other scripts' digits
        if not tid.isascii() or int(tid) != len(rows) + 1:
            raise ParseError(f"token id {tid} where id {len(rows) + 1} belongs", line=lineno)
        head = cols[6]
        if not (head.isascii() and head.isdigit()):
            raise ParseError(f"non-integer HEAD {head!r}", line=lineno)
        rows.append(int(head))
        lineno_of.append(lineno)
    flush()
    return graphs


def ud_tree_distances(graph):
    """All-pairs shortest-path lengths over the undirected dependency tree.

    Array form, one pass per tree level. With anc[j, i] true when i is j or
    an ancestor of j, a root's row holds the depths of its tree's tokens,
    and a token i under parent p has d(i, j) = d(p, j) + 1, less 2 when j
    lies in the subtree of i. Tokens in different trees of a forest stay
    infinitely far apart. Head links that form a cycle raise
    StructuralError.
    """
    L = graph.length
    heads = np.asarray(graph.heads, dtype=np.intp).reshape(L)
    anc = np.zeros((L, L), dtype=bool)
    depth = np.full(L, -1)
    rows = up = np.arange(L)
    while rows.size:  # the k-th pass marks every token's k-th ancestor
        if anc[rows, up].any():
            raise StructuralError("head links form a cycle")
        anc[rows, up] = True
        depth[rows] += 1
        up = heads[up]
        keep = up != ROOT_HEAD
        rows, up = rows[keep], up[keep]
    dist = np.full((L, L), np.inf)
    roots = np.flatnonzero(depth == 0)
    dist[roots] = np.where(anc[:, roots].T, depth, np.inf)
    for level in range(1, depth.max(initial=0) + 1):
        nodes = np.flatnonzero(depth == level)
        dist[nodes] = dist[heads[nodes]] + 1.0 - 2.0 * anc[:, nodes].T
    return dist
