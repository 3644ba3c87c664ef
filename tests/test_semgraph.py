"""Graph ingestion, scene extraction, distances, and splitting."""

import contextlib
import io
import re
import shutil
from collections import deque

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from scenemt import cli, semgraph
from scenemt.masks import MaskSpec, write_mask
from scenemt.errors import DimensionError, ParseError, StructuralError
from scenemt.semgraph import (
    ROOT_HEAD,
    SceneCover,
    extract_scenes,
    parse_conllu,
    parse_cover_file,
    parse_ucca_file,
    scene_distance,
    sem_split,
    ud_tree_distances,
)

from conftest import (
    BARKED, DOG, DOT, I, SAW, THAT, THE,
    SHARED_FIRST_TOKEN_GRAPH,
    TWO_SCENE_TOKENS,
    SceneGraph,
    bfs_scene_distance,
    floyd_warshall,
    random_cover,
    random_tree_heads,
    random_ud_graph,
    scan_children,
    scan_extract_scenes,
    scan_tokens_under,
)


# -- semantic graph parsing ----------------------------------------------------


class TestParseUcca:
    def test_two_scene_fixture(self, two_scene_graph):
        g = two_scene_graph
        assert g.length == 7
        p_edges = {(e.parent, e.child) for e in g.edges if e.category == "P"}
        assert p_edges == {("s1", "tsaw"), ("s2", "tbarked")}
        a_children = {e.child for e in g.edges if e.category == "A"}
        assert a_children == {"tI", "udog", "tdog"}
        remotes = [(e.parent, e.child) for e in g.edges if e.remote]
        assert remotes == [("s2", "tdog")]

    def test_single_token_graph(self):
        (g,) = parse_ucca_file("#L 1\nT t0 0 hi\nE root t0 P\nROOT root\n")
        assert g.length == 1
        assert g.terminals[0][2] == "hi"

    def test_undeclared_node_rejected(self):
        text = "#L 1\nT t0 0 hi\nE root ghost A\nE root t0 P\nROOT root\n"
        with pytest.raises(StructuralError, match="undeclared"):
            parse_ucca_file(text)

    def test_duplicate_token_index_rejected(self):
        text = "#L 2\nT a 0 x\nT b 0 y\nE root a P\nE root b A\nROOT root\n"
        with pytest.raises(StructuralError):
            parse_ucca_file(text)

    def test_cycle_rejected(self):
        text = (
            "#L 1\nT t0 0 x\n"
            "E n1 n2 C\nE n2 n1 C\nE n1 t0 P\nE root n1 H\nROOT root\n"
        )
        with pytest.raises(StructuralError, match="cycle"):
            parse_ucca_file(text)

    def test_remote_edge_escapes_cycle_check(self):
        # remote back-edges are legal; only the primary structure must be a DAG
        text = (
            "#L 2\nT t0 0 x\nT t1 1 y\n"
            "E root n1 H\nE n1 t0 P\nE n1 n2 A\nE n2 t1 S\nE n2 n1 A R\n"
            "ROOT root\n"
        )
        (g,) = parse_ucca_file(text)
        assert any(e.remote for e in g.edges)

    def test_malformed_line_reports_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_ucca_file("#L 1\nT t0 zero hi\nROOT root\n")

    def test_missing_root_rejected(self):
        with pytest.raises(ParseError):
            parse_ucca_file("#L 1\nT t0 0 hi\n")


# -- scene extraction ----------------------------------------------------------


class TestExtractScenes:
    def test_two_scene_fixture(self, two_scene_cover):
        cover = two_scene_cover
        assert len(cover.scenes) == 2
        assert cover.scenes == [frozenset({I, SAW, THE, DOG}), frozenset({DOG, BARKED})]
        assert cover.unassigned == {THAT, DOT}

    def test_shared_token_is_in_both(self, two_scene_cover):
        shared = two_scene_cover.scenes[0] & two_scene_cover.scenes[1]
        assert shared == {DOG}

    def test_coordination_scenes_share_the_subject(self):
        # "He said goodbye and left the party ." -- two scenes sharing "He";
        # the linker "and" and the period stay outside both
        text = (
            "#L 8\n"
            "T tHe 0 He\nT tsaid 1 said\nT tgoodbye 2 goodbye\nT tand 3 and\n"
            "T tleft 4 left\nT tthe 5 the\nT tparty 6 party\nT tdot 7 .\n"
            "E root s1 H\nE root tand L\nE root s2 H\nE root tdot U\n"
            "E s1 tsaid P\nE s1 tHe A\nE s1 tgoodbye A\n"
            "E s2 tleft P\nE s2 tHe A R\nE s2 uparty A\n"
            "E uparty tthe F\nE uparty tparty C\n"
            "ROOT root\n"
        )
        (g,) = parse_ucca_file(text)
        cover = extract_scenes(g)
        # both scenes start at "He": the main relations, "said" (1) before
        # "left" (4), decide the order
        assert [sorted(s) for s in cover.scenes] == [
            [0, 1, 2], [0, 4, 5, 6],
        ]
        assert cover.unassigned == {3, 7}

        m = MaskSpec("binary").build(cover=cover).values
        he, said, left = 0, 1, 4
        assert m[he, said] == 1.0 and m[he, left] == 1.0
        assert m[said, left] == 0.0
        assert scene_distance(cover)[said, left] == 1

    def test_scenes_sharing_a_first_token_sort_by_main_relation(self):
        (g,) = parse_ucca_file(SHARED_FIRST_TOKEN_GRAPH)
        assert extract_scenes(g).scenes == [frozenset({0, 1, 2}), frozenset({0, 3, 4})]
        # swapping the main relations swaps the order
        swapped = SHARED_FIRST_TOKEN_GRAPH.replace("E sa t3 P\nE sa t0 A", "E sa t3 A\nE sa t0 P")
        (g,) = parse_ucca_file(swapped)
        assert extract_scenes(g).scenes == [frozenset({0, 3, 4}), frozenset({0, 1, 2})]

    def test_single_state_scene_covers_everything(self):
        text = (
            "#L 3\nT t0 0 a\nT t1 1 is\nT t2 2 b\n"
            "E root s H\nE s t1 S\nE s t0 A\nE s t2 A\nROOT root\n"
        )
        (g,) = parse_ucca_file(text)
        cover = extract_scenes(g)
        # an S edge makes a scene as a P edge does
        assert cover.scenes == [frozenset({0, 1, 2})]
        assert cover.unassigned == frozenset()
        (unit,) = parse_ucca_file(text.replace("E s t1 S", "E s t1 A"))
        assert extract_scenes(unit).scenes == []

    def test_double_main_relation_rejected(self):
        text = (
            "#L 2\nT t0 0 a\nT t1 1 b\n"
            "E root s H\nE s t0 P\nE s t1 S\nROOT root\n"
        )
        with pytest.raises(StructuralError, match="main-relation"):
            extract_scenes(*parse_ucca_file(text))

    def test_three_scene_chain_against_reachability_oracle(self):
        # chain: s1 {0,1}, s2 {1,2,3}, s3 {3,4}; oracle = explicit DFS from
        # each scene head over the raw edge list
        text = (
            "#L 5\n"
            "T t0 0 a\nT t1 1 b\nT t2 2 c\nT t3 3 d\nT t4 4 e\n"
            "E root s1 H\nE root s2 H\nE root s3 H\n"
            "E s1 t0 P\nE s1 t1 A\n"
            "E s2 t2 P\nE s2 t1 A R\nE s2 t3 A\n"
            "E s3 t4 P\nE s3 t3 A R\n"
            "ROOT root\n"
        )
        (g,) = parse_ucca_file(text)
        cover = extract_scenes(g)

        children = {}
        for e in g.edges:
            children.setdefault(e.parent, []).append(e.child)
        tok = {nid: t for nid, t, _ in g.terminals}

        def dfs_tokens(start):
            seen, stack, toks = set(), [start], set()
            while stack:
                n = stack.pop()
                if n in seen:
                    continue
                seen.add(n)
                if n in tok:
                    toks.add(tok[n])
                stack.extend(children.get(n, ()))
            return frozenset(toks)

        expected = sorted(
            (
                dfs_tokens(n)
                for n in g.nodes
                if any(e.category in ("P", "S") for e in g.out_edges.get(n, ()))
            ),
            key=sorted,
        )
        assert sorted(cover.scenes, key=sorted) == expected
        assert cover.scenes[0] & cover.scenes[1] == {1}
        assert cover.scenes[1] & cover.scenes[2] == {3}

    def test_cover_reunion_is_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            cover = random_cover(rng)
            union = set(cover.unassigned)
            for s in cover.scenes:
                union |= s
            assert union == set(range(cover.length))


def random_ucca_text(rng, n_tokens, local_cycle=False):
    """A random `.ug` graph block over `n_tokens` shuffled terminals.

    Units form a tree under the root, each with at least one terminal; some
    units get a P or S main relation (now and then two); remote edges point
    anywhere, often back up to an ancestor, which makes cycles through
    remote edges. `local_cycle` adds one non-remote edge back up the tree.
    """
    units = ["root"] + [f"u{k}" for k in range(int(rng.integers(0, max(1, n_tokens // 2))))]
    edges = [(units[int(rng.integers(k))], u, str(rng.choice(list("HAEC"))), "")
             for k, u in enumerate(units) if k]
    for i in range(n_tokens):
        parent = units[i] if i < len(units) else units[int(rng.integers(len(units)))]
        edges.append((parent, f"t{i}", str(rng.choice(list("ACEFDU"))), ""))
    for u in units:
        own = [k for k, e in enumerate(edges) if e[0] == u]
        n_main = int(rng.choice([0, 1, 2], p=[0.35, 0.6, 0.05]))
        for k in rng.choice(own, size=min(n_main, len(own)), replace=False):
            edges[k] = edges[k][:2] + (str(rng.choice(["P", "S"])), "")
    nodes = units + [f"t{i}" for i in range(n_tokens)]
    for _ in range(int(rng.integers(0, 2 * len(units) + 1))):
        edges.append((units[int(rng.integers(len(units)))], nodes[int(rng.integers(len(nodes)))],
                      str(rng.choice(["A", "A", "C", "P"])), " R"))
    if local_cycle and len(units) > 1:
        edges.append((units[-1], units[int(rng.integers(len(units)))], "A", ""))
    order = rng.permutation(n_tokens)
    lines = [f"#L {n_tokens}"] + [f"T t{i} {int(order[i])} w{i}" for i in range(n_tokens)]
    lines += [f"E {p} {c} {cat}{flag}" for p, c, cat, flag in
              (edges[int(k)] for k in rng.permutation(len(edges)))]
    return "\n".join(lines + ["ROOT root"]) + "\n"


def has_remote_cycle(graph):
    """Whether some remote edge leads back to a node that reaches its parent."""
    reach = {n: graph.reachable(n) for n in graph.nodes}
    return any(e.remote and e.parent in reach[e.child] for e in graph.edges)


def local_edges_acyclic(text):
    """Kahn's algorithm over the non-remote edges of a `.ug` block."""
    local = [ln.split()[1:3] for ln in text.splitlines()
             if ln.startswith("E ") and len(ln.split()) == 4]
    indegree = {n: 0 for edge in local for n in edge}
    for _, c in local:
        indegree[c] += 1
    ready = [n for n, d in indegree.items() if d == 0]
    while ready:
        n = ready.pop()
        for p, c in local:
            if p == n:
                indegree[c] -= 1
                if indegree[c] == 0:
                    ready.append(c)
    return all(d == 0 for d in indegree.values())


class TestEdgeIndex:
    """The out-edge index against scans of the raw edge list."""

    def test_children_and_tokens_under_match_edge_scans(self):
        rng = np.random.default_rng(30)
        for _ in range(60):
            (g,) = parse_ucca_file(random_ucca_text(rng, int(rng.integers(1, 48))))
            for n in sorted(g.nodes):
                assert g.out_edges.get(n, []) == scan_children(g, n)
                assert g.tokens_under(n) == scan_tokens_under(g, n)

    def test_extract_scenes_matches_edge_scans(self):
        rng = np.random.default_rng(31)
        cycles = scenes = 0
        for _ in range(200):
            (g,) = parse_ucca_file(random_ucca_text(rng, int(rng.integers(1, 64))))
            cycles += has_remote_cycle(g)
            try:
                expected = scan_extract_scenes(g)
            except StructuralError as exc:
                with pytest.raises(StructuralError, match=re.escape(str(exc))):
                    extract_scenes(g)
                continue
            assert extract_scenes(g) == expected
            scenes += len(expected.scenes)
        assert cycles >= 50 and scenes >= 200  # the generator reaches the cases it is for

    def test_cycle_check_matches_kahn(self):
        rng = np.random.default_rng(32)
        outcomes = set()
        for _ in range(150):
            text = random_ucca_text(rng, int(rng.integers(2, 40)), local_cycle=rng.random() < 0.5)
            acyclic = local_edges_acyclic(text)
            outcomes.add(acyclic)
            if acyclic:
                parse_ucca_file(text)
            else:
                with pytest.raises(StructuralError, match="cycle"):
                    parse_ucca_file(text)
        assert outcomes == {True, False}


def mutate_ug_lines(lines, edits):
    """Apply (kind, i, j) edits to `.ug` lines; i and j pick lines modulo their count."""
    lines = list(lines)
    for kind, i, j in edits:
        if not lines:
            break
        i, j = i % len(lines), j % len(lines)
        fields = lines[i].split()
        if kind == "drop":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(j, lines[i])
        elif kind == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        elif not fields:  # an earlier edit emptied the line: no field to edit
            continue
        elif kind == "non-integer":  # in a header or terminal index, else in any field
            at = {"#L": 1, "T": 2}.get(fields[0], j % len(fields))
            fields[at % len(fields)] = ("1.5", "x", "", "0x1")[j % 4]
            lines[i] = " ".join(fields)
        elif kind == "bad-flag" and fields[0] == "E":
            lines[i] = " ".join(fields[:4] + [("r", "RR", "remote", "0")[j % 4]])
        elif kind == "back-edge" and fields[0] == "E":  # child -> parent, not remote
            lines.insert(i + 1, f"E {fields[2]} {fields[1]} A")
    return lines


def ug_lines_well_formed(text):
    """Whether every line of `.ug` text is a well-formed record, judged line by line."""
    def integer(field):
        try:
            int(field)
        except ValueError:
            return False
        return True

    for line in text.splitlines():
        f = line.split()
        if f and not f[0].startswith("//") and not {
            "E": len(f) == 4 or len(f) == 5 and f[-1] == "R",
            "T": len(f) >= 4 and integer(f[2]),
            "#L": len(f) >= 2 and integer(f[1]),
            "ROOT": len(f) >= 2,
        }.get(f[0], False):
            return False
    return True


UG_EDITS = st.lists(st.tuples(
    st.sampled_from(["drop", "duplicate", "swap", "non-integer", "bad-flag", "back-edge"]),
    st.integers(0, 10**6), st.integers(0, 10**6)), max_size=4)


class TestUgFuzz:
    """Mutated `.ug` files through `scenemt masks`: a clean exit, and the reference covers."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**32 - 1), sizes=st.lists(st.integers(1, 12), min_size=1,
                                                           max_size=3), edits=UG_EDITS)
    # a line the first two edits empty, then edited again
    @example(seed=0, sizes=[2], edits=[("non-integer", 0, 1406), ("non-integer", 0, 1406),
                                       ("non-integer", 0, 0)])
    def test_mutated_graphs_exit_cleanly(self, tmp_path, seed, sizes, edits):
        rng = np.random.default_rng(seed)
        text = "".join(random_ucca_text(rng, n) for n in sizes)
        text = "\n".join(mutate_ug_lines(text.splitlines(), edits)) + "\n"
        ug, out = tmp_path / "fuzz.ug", tmp_path / "out"
        ug.write_text(text, encoding="utf-8")
        shutil.rmtree(out, ignore_errors=True)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["masks", "--family", "binary", "--ucca", str(ug),
                             "--out", str(out)])
        assert code in (0, 2, 3, 4) and "Traceback" not in err.getvalue()
        if not ug_lines_well_formed(text):
            assert code == 3
        try:
            covers = [scan_extract_scenes(g) for g in parse_ucca_file(text)]
        except (ParseError, StructuralError) as exc:
            assert code == 3 and str(exc) in err.getvalue()
            return
        assert code == 0
        for i, (g, cover) in enumerate(zip(parse_ucca_file(text), covers)):
            assert extract_scenes(g) == cover
            written = (out / f"mask_{i:04d}.mask").read_text(encoding="utf-8")
            assert written == write_mask(MaskSpec("binary").build(cover=cover))
        assert len(list(out.glob("*.mask"))) == len(covers)


# -- scene distances -----------------------------------------------------------


class TestSceneDistance:
    def test_fixture_distances(self, two_scene_cover):
        d = scene_distance(two_scene_cover)
        assert d[SAW, BARKED] == 1
        assert d[I, DOG] == 0
        assert np.isinf(d[THAT, SAW])

    def test_single_scene_all_zero(self):
        cover = SceneCover(3, [frozenset({0, 1, 2})])
        assert (scene_distance(cover) == 0).all()

    def test_three_scene_chain_matches_bfs_oracle(self):
        scenes = [frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3})]
        cover = SceneCover(4, scenes)
        d = scene_distance(cover)
        assert d[0, 3] == 2  # scene1 -> scene2 -> scene3

        sg = SceneGraph.from_cover(cover)
        seen = {0: 0}
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for v in sg.adj[u]:
                if v not in seen:
                    seen[v] = seen[u] + 1
                    queue.append(v)
        assert seen == {0: 0, 1: 1, 2: 2}

    def test_random_covers_match_bfs_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            cover = random_cover(rng)
            d = scene_distance(cover)
            sg = SceneGraph.from_cover(cover)
            n = sg.n_scenes
            scene_d = floyd_warshall(
                n, [(i, j) for i in range(n) for j in sg.adj[i] if i < j]
            )
            for i in range(cover.length):
                for j in range(cover.length):
                    owners_i = [k for k, s in enumerate(cover.scenes) if i in s]
                    owners_j = [k for k, s in enumerate(cover.scenes) if j in s]
                    if not owners_i or not owners_j:
                        assert np.isinf(d[i, j])
                    else:
                        best = min(scene_d[a, b] for a in owners_i for b in owners_j)
                        assert d[i, j] == best

    def test_symmetry_diagonal_triangle(self):
        # The exact triangle inequality cannot hold together with
        # "0 iff shared scene": chaining through a token shared by two
        # scenes costs one scene-graph hop. The tight bound has +1 slack;
        # the underlying scene-graph metric itself is exact.
        rng = np.random.default_rng(2)
        for _ in range(30):
            cover = random_cover(rng)
            d = scene_distance(cover)
            np.testing.assert_array_equal(d, d.T)
            assigned = set(range(cover.length)) - set(cover.unassigned)
            for t in assigned:
                assert d[t, t] == 0
            finite = np.isfinite(d)
            L = cover.length
            for i in range(L):
                for j in range(L):
                    for k in range(L):
                        if finite[i, k] and finite[k, j]:
                            assert d[i, j] <= d[i, k] + d[k, j] + 1

            sg = SceneGraph.from_cover(cover)
            n = sg.n_scenes
            sd = floyd_warshall(
                n, [(i, j) for i in range(n) for j in sg.adj[i] if i < j]
            )
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        if np.isfinite(sd[i, k]) and np.isfinite(sd[k, j]):
                            assert sd[i, j] <= sd[i, k] + sd[k, j]

    def test_scene_ids_need_not_match_list_positions(self):
        # a scene is known only by its place in the list, and the order of
        # the list does not change any distance
        scenes = [frozenset({0, 1}), frozenset({1, 2}), frozenset({3})]
        d = scene_distance(SceneCover(4, scenes))
        assert d[0, 1] == 0
        assert d[0, 2] == 1
        assert np.isinf(d[0, 3])
        np.testing.assert_array_equal(scene_distance(SceneCover(4, scenes[::-1])), d)

    def test_zero_iff_shared_scene(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            cover = random_cover(rng)
            d = scene_distance(cover)
            for i in range(cover.length):
                for j in range(cover.length):
                    shared = any(
                        i in s and j in s for s in cover.scenes
                    )
                    assert (d[i, j] == 0) == shared

    @pytest.mark.parametrize("seed", range(4))
    def test_large_covers_match_bfs_reference(self, seed):
        # up to 12 scenes over up to 128 tokens: windows that mostly chain
        # into long scene paths, scattered scenes, and no scene at all
        rng = np.random.default_rng(40 + seed)
        longest = 0
        for case in range(12):
            L = int(rng.integers(1, 129))
            n_scenes = 0 if case % 6 == 0 else int(rng.integers(1, 13))
            scenes, start = [], int(rng.integers(L))
            for _ in range(n_scenes):
                if case % 2:
                    width = int(rng.integers(1, 12))
                    tokens = frozenset(range(start, start + width)) & frozenset(range(L))
                    chained = rng.random() < 0.8
                    start = (start + width - 1 if chained else int(rng.integers(L))) % L
                else:
                    size = int(rng.integers(1, min(L, 16) + 1))
                    tokens = frozenset(int(t) for t in rng.choice(L, size=size, replace=False))
                scenes.append(tokens)
            cover = SceneCover(L, scenes)
            d = scene_distance(cover)
            np.testing.assert_array_equal(d, bfs_scene_distance(cover))
            if n_scenes == 0:
                assert np.isinf(d).all()
            longest = max(longest, d[np.isfinite(d)].max(initial=0))
        assert longest >= 3


# -- sentence splitting ----------------------------------------------------------


class TestSemSplit:
    def test_fixture_split(self, two_scene_cover):
        pieces = sem_split(TWO_SCENE_TOKENS, two_scene_cover)
        assert pieces == [["I", "saw", "the", "dog"], ["dog", "barked"]]

    def test_single_scene_identity(self):
        cover = SceneCover(3, [frozenset({0, 1, 2})])
        assert sem_split(["a", "b", "c"], cover) == [["a", "b", "c"]]

    def test_empty_cover_returns_input(self):
        cover = SceneCover(2, [])
        assert cover.unassigned == {0, 1}
        assert sem_split(["x", "y"], cover) == [["x", "y"]]

    def test_output_count_and_token_union(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            cover = random_cover(rng)
            tokens = [f"w{i}" for i in range(cover.length)]
            pieces = sem_split(tokens, cover)
            if len(cover.scenes) <= 1:
                assert pieces == [tokens]
                continue
            assert len(pieces) == len(cover.scenes)
            got = set().union(*(set(p) for p in pieces))
            expected = {
                f"w{i}" for s in cover.scenes for i in s
            }
            assert got == expected

    def test_length_mismatch_rejected(self, two_scene_cover):
        with pytest.raises(DimensionError):
            sem_split(["just", "three", "words"], two_scene_cover)


# -- cover shortcut files ----------------------------------------------------------


class TestCoverFiles:
    def test_parse_fixture_equivalent(self, two_scene_cover):
        text = (
            "#L 7\n"
            "S P main=1 tokens=0,1,2,3\n"
            "S P main=5 tokens=3,5\n"
        )
        (cover,) = parse_cover_file(text)
        assert cover == two_scene_cover
        assert cover.unassigned == two_scene_cover.unassigned

    def test_main_span_syntax(self):
        (cover,) = parse_cover_file("#L 4\nS S main=1-2 tokens=0,1,2,3\n")
        assert cover.scenes == [frozenset({0, 1, 2, 3})]
        (cover,) = parse_cover_file("#L 4\nS S main=1-2 tokens=3,2,1\n")
        assert cover.scenes == [frozenset({1, 2, 3})]
        with pytest.raises(ParseError, match="line 2: main=1-2 lies outside tokens=0,1,3"):
            parse_cover_file("#L 4\nS S main=1-2 tokens=0,1,3\n")

    def test_main_outside_tokens_rejected(self):
        with pytest.raises(ParseError, match="line 2: main=2 lies outside tokens=0,1"):
            parse_cover_file("#L 3\nS P main=2 tokens=0,1\n")

    def test_token_out_of_range_rejected(self):
        with pytest.raises(ParseError, match=r"line 2: scene token 5 outside 0\.\.1"):
            parse_cover_file("#L 2\nS P main=0 tokens=0,5\n")
        with pytest.raises(ParseError, match=r"line 3: scene token -1 outside 0\.\.1"):
            parse_cover_file("#L 2\n\nS P main=0 tokens=0,-1\n")


# -- dependency trees -----------------------------------------------------------


CONLLU_TWO_TOKENS = """\
# sent_id = 1
1\tHi\t_\t_\t_\t_\t0\troot\t_\t_
2\tthere\t_\t_\t_\t_\t1\tdiscourse\t_\t_
"""


class TestConllu:
    def test_minimal_tree(self):
        graphs = parse_conllu(CONLLU_TWO_TOKENS)
        assert len(graphs) == 1
        g = graphs[0]
        assert g.length == 2
        assert g.heads == [ROOT_HEAD, 0]

    def test_block_count(self):
        text = CONLLU_TWO_TOKENS + "\n" + CONLLU_TWO_TOKENS + "\n"
        assert len(parse_conllu(text)) == 2

    def test_multiword_ranges_skipped(self):
        text = (
            "1-2\tdel\t_\t_\t_\t_\t_\t_\t_\t_\n"
            "1\tde\t_\t_\t_\t_\t2\tcase\t_\t_\n"
            "2\tel\t_\t_\t_\t_\t0\troot\t_\t_\n"
        )
        g = parse_conllu(text)[0]
        assert g.length == 2 and g.heads == [1, ROOT_HEAD]

    def test_head_out_of_range_rejected(self):
        text = "1\tonly\t_\t_\t_\t_\t9\tdep\t_\t_\n"
        with pytest.raises(ParseError):
            parse_conllu(text)

    @pytest.mark.parametrize("ids,line,message", [
        ("1 1", 2, "token id 1 where id 2 belongs"),
        ("2 1", 1, "token id 2 where id 1 belongs"),
        ("1 3", 2, "token id 3 where id 2 belongs"),
        ("1 ²", 2, "token id ² where id 2 belongs"),
    ], ids=["repeated", "swapped", "gap", "superscript"])
    def test_ids_out_of_sequence_rejected_naming_line_and_id(self, ids, line, message):
        text = "".join(f"{i}\tw\t_\t_\t_\t_\t{h}\tdep\t_\t_\n" for i, h in zip(ids.split(), "01"))
        with pytest.raises(ParseError, match=f"line {line}: {message}"):
            parse_conllu(text)

    def test_multiple_roots_rejected(self):
        text = (
            "1\ta\t_\t_\t_\t_\t0\troot\t_\t_\n"
            "2\tb\t_\t_\t_\t_\t0\troot\t_\t_\n"
        )
        with pytest.raises(StructuralError):
            parse_conllu(text)

    def test_five_token_distances_match_floyd_warshall(self):
        text = (
            "1\tA\t_\t_\t_\t_\t2\tdep\t_\t_\n"
            "2\tB\t_\t_\t_\t_\t0\troot\t_\t_\n"
            "3\tC\t_\t_\t_\t_\t2\tdep\t_\t_\n"
            "4\tD\t_\t_\t_\t_\t3\tdep\t_\t_\n"
            "5\tE\t_\t_\t_\t_\t3\tdep\t_\t_\n"
        )
        g = parse_conllu(text)[0]
        edges = [(i, h) for i, h in enumerate(g.heads) if h != ROOT_HEAD]
        np.testing.assert_array_equal(
            ud_tree_distances(g), floyd_warshall(g.length, edges)
        )


def forest_heads(sizes, rng):
    """Heads of several random trees side by side, tokens shuffled together."""
    heads, offset = [], 0
    for n in sizes:
        heads += [h if h == ROOT_HEAD else h + offset for h in random_tree_heads(n, rng)]
        offset += n
    order = [int(i) for i in rng.permutation(offset)]
    new = {old: k for k, old in enumerate(order)}
    return [ROOT_HEAD if heads[old] == ROOT_HEAD else new[heads[old]] for old in order]


def tree_edges(heads):
    return [(i, h) for i, h in enumerate(heads) if h != ROOT_HEAD]


class TestTreeDistances:
    @pytest.mark.parametrize("n", [1, 2, 3, 9, 30, 64, 128])
    def test_random_trees_match_floyd_warshall(self, n):
        g = random_ud_graph(n, np.random.default_rng(n))
        g.validate()
        np.testing.assert_array_equal(ud_tree_distances(g), floyd_warshall(n, tree_edges(g.heads)))

    def test_deep_trees_match_floyd_warshall(self):
        rng = np.random.default_rng(50)
        for n in (2, 17, 48):
            # each token hangs off one of the two placed just before it
            heads = [ROOT_HEAD] + [max(0, i - 1 - int(rng.integers(2))) for i in range(1, n)]
            g = semgraph.UdGraph(n, heads)
            g.validate()
            expected = floyd_warshall(n, tree_edges(heads))
            np.testing.assert_array_equal(ud_tree_distances(g), expected)

    def test_unvalidated_forests_match_floyd_warshall(self):
        rng = np.random.default_rng(51)
        for _ in range(12):
            sizes = [int(k) for k in rng.integers(1, 12, size=int(rng.integers(2, 6)))]
            heads = forest_heads(sizes, rng)
            n = len(heads)
            d = ud_tree_distances(semgraph.UdGraph(n, heads))
            np.testing.assert_array_equal(d, floyd_warshall(n, tree_edges(heads)))
            assert np.isinf(d).sum() == n * n - sum(k * k for k in sizes)

    @pytest.mark.parametrize("heads", [[0], [1, 0], [ROOT_HEAD, 2, 3, 1]])
    def test_head_cycle_raises(self, heads):
        with pytest.raises(StructuralError, match="cycle"):
            ud_tree_distances(semgraph.UdGraph(len(heads), heads))
