"""Semantic graphs, scene extraction, and dependency trees.

Three line-oriented inputs are understood here:

* semantic graph files (``.ug``): ``#L <n>`` header, ``T <node> <tok> <surface>``
  terminal lines, ``E <parent> <child> <category> [R]`` edge lines (trailing
  ``R`` marks a remote edge), and a closing ``ROOT <node>`` line per graph;
* scene-cover shortcut files: ``#L <n>`` then one ``S <P|S> main=<i-j|i>
  tokens=<i,j,...>`` line per scene, so tests and the CLI can supply covers
  without a parser;
* CoNLL-U, of which only ID, FORM, HEAD and DEPREL are consumed.

A *scene* is any graph node with an outgoing P or S edge; its token set is
every terminal reachable from it, remote edges included (that is what lets a
token belong to several scenes). Tokens reachable only outside all scenes are
recorded as unassigned.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ParseError, StructuralError

ROOT_HEAD = -1  # head marker for the dependency root token

MAIN_RELATION_CATEGORIES = ("P", "S")


# -- semantic graphs ----------------------------------------------------------


@dataclass(frozen=True)
class UccaEdge:
    parent: str
    child: str
    category: str
    remote: bool = False


@dataclass
class UccaGraph:
    nodes: set
    edges: list
    terminals: list  # ordered (node_id, token_index, surface)
    root: str

    @property
    def length(self):
        return len(self.terminals)

    def children(self, node_id, remote=True):
        for e in self.edges:
            if e.parent == node_id and (remote or not e.remote):
                yield e

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
        for e in self.edges:
            if e.parent not in self.nodes or e.child not in self.nodes:
                raise StructuralError(
                    f"edge {e.parent}->{e.child} references an undeclared node"
                )
        if self.root not in self.nodes:
            raise StructuralError(f"root {self.root!r} is not a declared node")

        # acyclicity over non-remote edges
        color = {}  # 1 = on stack, 2 = finished

        def visit(n):
            stack = [(n, iter([e.child for e in self.children(n, remote=False)]))]
            color[n] = 1
            while stack:
                node, it = stack[-1]
                advanced = False
                for c in it:
                    if color.get(c) == 1:
                        raise StructuralError("cycle detected over non-remote edges")
                    if c not in color:
                        color[c] = 1
                        stack.append((c, iter([e.child for e in self.children(c, remote=False)])))
                        advanced = True
                        break
                if not advanced:
                    color[node] = 2
                    stack.pop()

        for n in sorted(self.nodes):
            if n not in color:
                visit(n)

        # every node reachable from the root (remote edges count)
        reached = self.reachable(self.root)
        missing = self.nodes - reached
        if missing:
            raise StructuralError(
                f"nodes unreachable from root: {sorted(missing)}"
            )

    def reachable(self, start):
        """All nodes reachable from `start`, following every edge."""
        out_edges = {}
        for e in self.edges:
            out_edges.setdefault(e.parent, []).append(e.child)
        seen = {start}
        queue = deque([start])
        while queue:
            n = queue.popleft()
            for c in out_edges.get(n, ()):
                if c not in seen:
                    seen.add(c)
                    queue.append(c)
        return seen

    def tokens_under(self, node_id):
        """Token indices of terminals reachable from `node_id`."""
        terminal_tok = {nid: tok for nid, tok, _ in self.terminals}
        return frozenset(
            terminal_tok[n] for n in self.reachable(node_id) if n in terminal_tok
        )


@dataclass(frozen=True)
class Scene:
    scene_id: int
    tokens: frozenset
    main_kind: str  # "P" or "S"
    main_tokens: frozenset
    participants: tuple = ()


@dataclass
class SceneCover:
    length: int
    scenes: list
    unassigned: frozenset = frozenset()

    def validate(self):
        covered = set(self.unassigned)
        for s in self.scenes:
            if s.main_kind not in MAIN_RELATION_CATEGORIES:
                raise StructuralError(f"unknown main-relation kind {s.main_kind!r}")
            if not s.main_tokens <= s.tokens:
                raise StructuralError("main relation leaks outside its scene")
            for p in s.participants:
                if not p <= s.tokens:
                    raise StructuralError("participant leaks outside its scene")
            covered |= s.tokens
        if covered != set(range(self.length)):
            raise StructuralError(
                "scene token sets plus unassigned must cover 0..L-1 exactly"
            )


@dataclass
class SceneGraph:
    """Scenes as nodes, an edge wherever two scenes share a token."""

    n_scenes: int
    adj: list  # adj[i] = set of neighbouring scene ids

    @classmethod
    def from_cover(cls, cover):
        n = len(cover.scenes)
        adj = [set() for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if cover.scenes[i].tokens & cover.scenes[j].tokens:
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


def parse_ucca(text):
    """Parse a single semantic graph from its file content."""
    graphs = parse_ucca_file(text)
    if len(graphs) != 1:
        raise ParseError(f"expected exactly one graph, found {len(graphs)}")
    return graphs[0]


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
        line = raw.strip()
        if not line or line.startswith("//"):
            continue
        fields = line.split()
        tag = fields[0]
        try:
            if tag == "#L":
                if length is not None:
                    raise ParseError("duplicate #L header", line=lineno)
                length = int(fields[1])
            elif tag == "T":
                if len(fields) < 4:
                    raise ParseError("terminal needs node, index, surface", line=lineno)
                terminals.append((fields[1], int(fields[2]), " ".join(fields[3:])))
            elif tag == "E":
                if len(fields) not in (4, 5):
                    raise ParseError("edge needs parent, child, category", line=lineno)
                remote = len(fields) == 5
                if remote and fields[4] != "R":
                    raise ParseError(f"unknown edge flag {fields[4]!r}", line=lineno)
                edges.append(UccaEdge(fields[1], fields[2], fields[3], remote))
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
    one node violate the one-main-relation rule.
    """
    scenes = []
    for node in sorted(graph.nodes):
        main_edges = [
            e for e in graph.children(node)
            if e.category in MAIN_RELATION_CATEGORIES
        ]
        if not main_edges:
            continue
        if len(main_edges) > 1:
            raise StructuralError(
                f"node {node!r} has {len(main_edges)} main-relation edges"
            )
        main = main_edges[0]
        tokens = graph.tokens_under(node)
        participants = tuple(
            graph.tokens_under(e.child)
            for e in graph.children(node)
            if e.category == "A"
        )
        scenes.append(
            (tokens, main.category, graph.tokens_under(main.child), participants)
        )

    # deterministic order: by first token covered, then by main relation
    scenes.sort(key=lambda s: (min(s[0], default=-1), sorted(s[2])))
    built = [
        Scene(i, tokens, kind, main_tokens, participants)
        for i, (tokens, kind, main_tokens, participants) in enumerate(scenes)
    ]
    assigned = set()
    for s in built:
        assigned |= s.tokens
    cover = SceneCover(
        length=graph.length,
        scenes=built,
        unassigned=frozenset(range(graph.length)) - assigned,
    )
    cover.validate()
    return cover


def scene_distance(cover):
    """L x L matrix of token distances through the scene graph.

    0 when two tokens share a scene, otherwise the shortest scene-graph path
    between any scene of i and any scene of j; infinity when disconnected or
    when either token is unassigned.
    """
    L = cover.length
    dist = np.full((L, L), np.inf)
    sg = SceneGraph.from_cover(cover)
    scene_dist = [sg.distances_from(i) for i in range(sg.n_scenes)]

    token_scenes = [[] for _ in range(L)]
    for idx, s in enumerate(cover.scenes):
        for t in s.tokens:
            token_scenes[t].append(idx)

    for i in range(L):
        for j in range(i, L):
            best = np.inf
            for si in token_scenes[i]:
                row = scene_dist[si]
                for sj in token_scenes[j]:
                    if row[sj] < best:
                        best = row[sj]
            dist[i, j] = dist[j, i] = best
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
        [tokens[i] for i in sorted(scene.tokens)]
        for scene in cover.scenes
    ]


# -- scene-cover shortcut files ------------------------------------------------


def parse_cover(text):
    covers = parse_cover_file(text)
    if len(covers) != 1:
        raise ParseError(f"expected exactly one cover, found {len(covers)}")
    return covers[0]


def parse_cover_file(text):
    """Parse one or more `#L` blocks of scene lines into covers."""
    covers = []
    length, raw_scenes = None, []

    def flush():
        nonlocal length, raw_scenes
        if length is None:
            return
        scenes = [
            Scene(i, tokens, kind, main, ())
            for i, (kind, main, tokens) in enumerate(raw_scenes)
        ]
        assigned = set()
        for s in scenes:
            assigned |= s.tokens
        cover = SceneCover(length, scenes, frozenset(range(length)) - assigned)
        cover.validate()
        covers.append(cover)
        length, raw_scenes = None, []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "#L":
            flush()
            try:
                length = int(fields[1])
            except (ValueError, IndexError) as exc:
                raise ParseError("bad #L header", line=lineno) from exc
        elif fields[0] == "S":
            if length is None:
                raise ParseError("scene line before #L header", line=lineno)
            try:
                kind = fields[1]
                opts = dict(f.split("=", 1) for f in fields[2:])
                main_spec = opts["main"]
                if "-" in main_spec:
                    lo, hi = (int(x) for x in main_spec.split("-"))
                    main = frozenset(range(lo, hi + 1))
                else:
                    main = frozenset({int(main_spec)})
                tokens = frozenset(int(x) for x in opts["tokens"].split(","))
            except (ValueError, KeyError, IndexError) as exc:
                raise ParseError(f"malformed scene line: {exc}", line=lineno) from exc
            if kind not in MAIN_RELATION_CATEGORIES:
                raise ParseError(f"scene kind must be P or S, got {kind!r}", line=lineno)
            if max(tokens, default=-1) >= length or min(tokens, default=0) < 0:
                raise StructuralError(f"scene token outside 0..{length - 1}")
            raw_scenes.append((kind, main, tokens))
        else:
            raise ParseError(f"unknown record tag {fields[0]!r}", line=lineno)
    flush()
    return covers


# -- dependency trees ----------------------------------------------------------


@dataclass
class UdGraph:
    length: int
    heads: list  # 0-based parent per token, ROOT_HEAD for the root
    deprels: list
    forms: list = field(default_factory=list)

    def validate(self):
        roots = [i for i, h in enumerate(self.heads) if h == ROOT_HEAD]
        if len(roots) != 1:
            raise StructuralError(f"expected exactly one root, found {len(roots)}")
        for i, h in enumerate(self.heads):
            if h != ROOT_HEAD and not (0 <= h < self.length):
                raise ParseError(f"head index {h} out of range for token {i}")
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
        heads, deprels, forms = [], [], []
        for (tid, form, head, deprel), ln in zip(rows, lineno_of):
            if head == 0:
                heads.append(ROOT_HEAD)
            elif 1 <= head <= len(rows):
                heads.append(head - 1)
            else:
                raise ParseError(f"head index {head} out of range", line=ln)
            deprels.append(deprel)
            forms.append(form)
        g = UdGraph(len(rows), heads, deprels, forms)
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
        try:
            head = int(cols[6])
        except ValueError as exc:
            raise ParseError(f"non-integer HEAD {cols[6]!r}", line=lineno) from exc
        rows.append((int(tid), cols[1], head, cols[7]))
        lineno_of.append(lineno)
    flush()
    return graphs


def serialize_conllu(graphs):
    """Inverse of parse_conllu for the consumed columns."""
    blocks = []
    for g in graphs:
        lines = []
        for i in range(g.length):
            form = g.forms[i] if g.forms else "_"
            head = 0 if g.heads[i] == ROOT_HEAD else g.heads[i] + 1
            lines.append(
                "\t".join(
                    [str(i + 1), form, "_", "_", "_", "_", str(head), g.deprels[i], "_", "_"]
                )
            )
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def ud_tree_distances(graph):
    """All-pairs shortest-path lengths over the undirected dependency tree."""
    L = graph.length
    adj = [[] for _ in range(L)]
    for i, h in enumerate(graph.heads):
        if h != ROOT_HEAD:
            adj[i].append(h)
            adj[h].append(i)
    dist = np.full((L, L), np.inf)
    for s in range(L):
        dist[s, s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if dist[s, v] == np.inf:
                    dist[s, v] = dist[s, u] + 1
                    queue.append(v)
    return dist
