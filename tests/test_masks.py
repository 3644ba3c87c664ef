"""Mask families against brute-force and Floyd-Warshall oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from scenemt import masks
from scenemt.errors import ConfigError, DimensionError, ParseError
from scenemt.masks import (
    FAMILIES, Mask, MaskSpec, SIGMA_PEAK_ONE, expand_to_subwords, f_norm, write_mask,
)
from scenemt.semgraph import ROOT_HEAD, SceneCover, UdGraph, ud_tree_distances

from conftest import (
    BARKED, DOG, I, SAW,
    floyd_warshall,
    random_cover,
    random_ud_graph,
    read_mask,
    unique_write_mask,
)


def brute_force_binary(cover):
    """O(L^2 * scenes) double loop over shared-scene membership."""
    m = np.zeros((cover.length, cover.length))
    for i in range(cover.length):
        for j in range(cover.length):
            if i == j or any(
                i in s and j in s for s in cover.scenes
            ):
                m[i, j] = 1.0
    for t in cover.unassigned:
        m[t, :] = 1.0
        m[:, t] = 1.0
    return m


class TestFNorm:
    def test_peak_sigma_gives_one(self):
        assert abs(f_norm(0.0, SIGMA_PEAK_ONE) - 1.0) < 1e-12

    def test_standard_density_values(self):
        assert f_norm(0.0, 1.0) == pytest.approx(0.398942, abs=1e-6)
        assert f_norm(1.0, 1.0) == pytest.approx(0.241971, abs=1e-6)

    def test_matches_formula_on_grid(self):
        xs = np.linspace(-3, 3, 25)
        for sigma in (0.5, 1.0, 2.0):
            expected = np.exp(-(xs ** 2) / (2 * sigma ** 2)) / math.sqrt(
                2 * math.pi * sigma ** 2
            )
            np.testing.assert_allclose(f_norm(xs, sigma), expected, rtol=1e-12)


class TestBinaryMask:
    def test_fixture_entries(self, two_scene_cover):
        m = MaskSpec("binary").build(cover=two_scene_cover).values
        assert m[SAW, DOG] == 1.0
        assert m[DOG, BARKED] == 1.0
        assert m[SAW, BARKED] == 0.0
        assert m[I, BARKED] == 0.0

    def test_single_scene_is_all_ones(self):
        # `scenemt split` masks each scene piece with np.ones, for every scene family
        cover = SceneCover(4, [frozenset(range(4))])
        ones = np.ones((4, 4)).tobytes()
        assert MaskSpec("binary").build(cover=cover).values.tobytes() == ones
        for c in (1e-6, 0.1, 0.5, 0.999):
            assert MaskSpec("scaled", c).build(cover=cover).values.tobytes() == ones
        for c in (1e-6, 0.5, 1.0, 7.0, 1e300):
            assert MaskSpec("normal", c).build(cover=cover).values.tobytes() == ones

    def test_three_scene_chain_matches_brute_force(self):
        scenes = [frozenset({0, 1}), frozenset({1, 2, 3}), frozenset({3, 4})]
        cover = SceneCover(5, scenes)
        np.testing.assert_array_equal(
            MaskSpec("binary").build(cover=cover).values, brute_force_binary(cover)
        )

    def test_random_covers_match_brute_force(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            cover = random_cover(rng)
            np.testing.assert_array_equal(
                MaskSpec("binary").build(cover=cover).values, brute_force_binary(cover)
            )

    def test_symmetric_binary_unit_diagonal(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = MaskSpec("binary").build(cover=random_cover(rng)).values
            np.testing.assert_array_equal(m, m.T)
            assert set(np.unique(m)) <= {0.0, 1.0}
            np.testing.assert_array_equal(np.diag(m), 1.0)


class TestScaledMask:
    def test_fixture_entries(self, two_scene_cover):
        m = MaskSpec("scaled", 0.1).build(cover=two_scene_cover).values
        assert m[SAW, BARKED] == pytest.approx(0.1)
        assert m[DOG, BARKED] == 1.0

    def test_value_set_is_c_and_one(self, two_scene_cover):
        for c in (0.05, 0.1, 0.15, 0.2, 0.3, 0.5):
            m = MaskSpec("scaled", c).build(cover=two_scene_cover).values
            assert set(np.unique(m)) == {c, 1.0}

    def test_unassigned_rows_stay_one(self, two_scene_cover):
        m = MaskSpec("scaled", 0.3).build(cover=two_scene_cover).values
        for t in two_scene_cover.unassigned:
            np.testing.assert_array_equal(m[t, :], 1.0)
            np.testing.assert_array_equal(m[:, t], 1.0)

    @pytest.mark.parametrize("c", [0.0, 1.0, -0.2, 1.5])
    def test_rejects_out_of_range_c(self, c):
        with pytest.raises(ConfigError, match=r"scaled mask needs C in \(0,1\)"):
            MaskSpec("scaled", c)

    def test_symmetric_on_random_covers(self):
        rng = np.random.default_rng(21)
        for _ in range(15):
            m = MaskSpec("scaled", 0.2).build(cover=random_cover(rng)).values
            np.testing.assert_array_equal(m, m.T)


class TestNormalMask:
    def test_shared_scene_gives_one(self, two_scene_cover):
        m = MaskSpec("normal", 0.5).build(cover=two_scene_cover).values
        assert m[I, DOG] == 1.0

    def test_distance_one_value(self, two_scene_cover):
        m = MaskSpec("normal", 0.5).build(cover=two_scene_cover).values
        assert m[SAW, BARKED] == pytest.approx(0.455938, abs=1e-6)

    def test_sqrt_half_value(self, two_scene_cover):
        m = MaskSpec("normal", math.sqrt(0.5)).build(cover=two_scene_cover).values
        assert m[SAW, BARKED] == pytest.approx(0.207880, abs=1e-6)

    def test_disconnected_scenes_give_exact_zero(self):
        scenes = [frozenset({0, 1}), frozenset({2, 3})]
        m = MaskSpec("normal", 0.5).build(cover=SceneCover(4, scenes)).values
        assert m[0, 2] == 0.0 and m[1, 3] == 0.0

    def test_monotone_in_distance_and_c(self):
        cs = [0.1, 0.2, 0.5, math.sqrt(0.5)]
        for c in cs:
            vals = [
                math.exp(-math.pi * (c * d) ** 2) for d in range(5)
            ]
            assert all(a >= b for a, b in zip(vals, vals[1:]))
        for d in (1, 2, 3):
            vals = [math.exp(-math.pi * (c * d) ** 2) for c in cs]
            assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_binary_equivalence_when_distances_are_zero_or_inf(self):
        # two disconnected scene clusters: distances are only 0 or inf
        cover = SceneCover(5, [frozenset({0, 1}), frozenset({2, 3})])
        assert cover.unassigned == {4}
        nm = MaskSpec("normal", 0.7).build(cover=cover).values
        bm = MaskSpec("binary").build(cover=cover).values
        np.testing.assert_array_equal(nm, bm)

    def test_symmetric_on_random_covers(self):
        rng = np.random.default_rng(22)
        for _ in range(15):
            m = MaskSpec("normal", 0.5).build(cover=random_cover(rng)).values
            np.testing.assert_array_equal(m, m.T)


class TestPascalMask:
    def test_single_subword_parent_column_values(self):
        # token 1's parent is token 3; parent occupies subword 3 exactly
        ud = UdGraph(5, [3, 3, 3, ROOT_HEAD, 3])
        m = MaskSpec("pascal").build(ud=ud).values
        assert m[1, 3] == pytest.approx(0.398942, abs=1e-6)
        assert m[1, 4] == pytest.approx(0.241971, abs=1e-6)

    def test_one_token_sentence(self):
        ud = UdGraph(1, [ROOT_HEAD])
        m = MaskSpec("pascal").build(ud=ud).values
        assert m.shape == (1, 1)
        assert m[0, 0] == pytest.approx(0.398942, abs=1e-6)

    def test_fractional_midpoint_peak(self):
        # word 1 spans subwords 2..3 and is everyone's parent
        ud = UdGraph(2, [1, ROOT_HEAD])
        m = MaskSpec("pascal").build(ud=ud, counts=(2, 2)).values
        # rows of word 0 center on p=2.5
        assert m[0, 2] == pytest.approx(0.352065, abs=1e-6)
        assert m[0, 3] == pytest.approx(0.352065, abs=1e-6)
        assert m[0, 2] == m[0, 3] > m[0, 1] > m[0, 0]

    def test_argmax_is_nearest_integer_to_parent_midpoint(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            ud = random_ud_graph(n, rng)
            counts = [int(rng.integers(1, 3)) for _ in range(n)]
            m = MaskSpec("pascal").build(ud=ud, counts=counts).values
            spans = word_spans(counts)
            n_subwords = sum(counts)
            for w, (start, end) in enumerate(spans):
                parent = ud.heads[w] if ud.heads[w] != ROOT_HEAD else w
                p = sum(spans[parent]) / 2.0
                nearest = {
                    j for j in range(n_subwords)
                    if abs(j - p) == min(abs(jj - p) for jj in range(n_subwords))
                }
                for t in range(start, end + 1):
                    assert set(np.flatnonzero(m[t] == m[t].max())) == nearest

    def test_row_mass_bounded(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            ud = random_ud_graph(int(rng.integers(2, 10)), rng)
            m = MaskSpec("pascal").build(ud=ud).values
            assert (m.sum(axis=1) <= 1.0 + f_norm(0.0, 1.0)).all()

    def test_word_count_mismatch_rejected(self):
        ud = UdGraph(3, [ROOT_HEAD, 0, 0])
        with pytest.raises(DimensionError, match="alignment covers 2 words, tree has 3"):
            MaskSpec("pascal").build(ud=ud, counts=(1, 1))

    def test_is_bitwise_the_per_word_loop(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            ud = random_ud_graph(int(rng.integers(1, 40)), rng)
            counts = (None if rng.random() < 0.25 else
                      tuple(rng.integers(1, 5, size=ud.length).tolist()))
            got = MaskSpec("pascal").build(ud=ud, counts=counts).values
            expected = per_word_pascal_values(ud, counts or (1,) * ud.length)
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()


def word_spans(counts):
    """Each word's inclusive subword span (start, end), found by a plain running total."""
    spans, start = [], 0
    for count in counts:
        spans.append((start, start + count - 1))
        start += count
    return spans


def per_word_pascal_values(ud, counts):
    """Reference for the pascal family: one `f_norm` call per word, centered on the
    midpoint (start + end) / 2 of its parent's span, copied to its subwords."""
    spans = word_spans(counts)
    n = sum(counts)
    positions = np.arange(n, dtype=np.float64)
    values = np.empty((n, n))
    for w, (start, end) in enumerate(spans):
        parent = ud.heads[w] if ud.heads[w] >= 0 else w
        row = f_norm(positions - sum(spans[parent]) / 2.0, 1.0)
        values[start:end + 1, :] = row
    return values


class TestUdiscalMask:
    def test_self_and_neighbour_values(self):
        ud = UdGraph(2, [ROOT_HEAD, 0])
        m = MaskSpec("udiscal").build(ud=ud).values
        assert m[0, 0] == pytest.approx(0.398942, abs=1e-6)
        assert m[0, 1] == pytest.approx(0.241971, abs=1e-6)

    def test_random_trees_match_floyd_warshall(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            ud = random_ud_graph(8, rng)
            edges = [(i, h) for i, h in enumerate(ud.heads) if h != ROOT_HEAD]
            oracle = floyd_warshall(8, edges)
            np.testing.assert_array_equal(ud_tree_distances(ud), oracle)
            np.testing.assert_allclose(
                MaskSpec("udiscal").build(ud=ud).values, f_norm(oracle, 1.0), rtol=1e-12
            )

    def test_symmetry(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            ud = random_ud_graph(int(rng.integers(2, 10)), rng)
            m = MaskSpec("udiscal").build(ud=ud).values
            np.testing.assert_array_equal(m, m.T)


class TestExpandToSubwords:
    def test_identity_alignment_is_noop(self):
        rng = np.random.default_rng(16)
        wm = Mask(rng.random((4, 4)), "udiscal")
        out = expand_to_subwords(wm, (1, 1, 1, 1))
        np.testing.assert_array_equal(out.values, wm.values)

    def test_block_expansion(self):
        wm = Mask(np.array([[1.0, 0.0], [0.0, 1.0]]), "binary")
        out = expand_to_subwords(wm, (2, 1)).values
        expected = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1.0]])
        np.testing.assert_array_equal(out, expected)

    def test_random_expansion_matches_double_loop(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = 4
            wm = Mask(rng.random((n, n)), "udiscal")
            counts = [int(rng.integers(1, 4)) for _ in range(n)]
            out = expand_to_subwords(wm, counts).values
            owner = [w for w, count in enumerate(counts) for _ in range(count)]
            assert out.shape == (len(owner), len(owner))
            for a in range(len(owner)):
                for b in range(len(owner)):
                    assert out[a, b] == wm.values[owner[a], owner[b]]

    def test_preserves_symmetry_and_value_set(self):
        rng = np.random.default_rng(18)
        wm = rng.random((3, 3))
        wm = Mask((wm + wm.T) / 2, "udiscal")
        out = expand_to_subwords(wm, (2, 3, 1)).values
        np.testing.assert_array_equal(out, out.T)
        assert set(np.unique(out)) == set(np.unique(wm.values))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            expand_to_subwords(Mask(np.ones((2, 3)), "binary"), (1, 1))

    def test_counts_give_contiguous_word_spans(self):
        # words of 1, 3 and 2 subwords own subwords 0, 1..3 and 4..5
        out = expand_to_subwords(Mask(np.diag([1.0, 2.0, 3.0]), "udiscal"), (1, 3, 2)).values
        assert out.shape == (6, 6)
        assert np.diag(out).tolist() == [1.0, 2.0, 2.0, 2.0, 3.0, 3.0]
        assert word_spans((1, 3, 2)) == [(0, 0), (1, 3), (4, 5)]


class TestMaskSpec:
    def test_families_dispatch(self, two_scene_cover):
        assert MaskSpec("binary").build(cover=two_scene_cover).family == "binary"
        assert MaskSpec("scaled", 0.1).build(cover=two_scene_cover).family == "scaled"
        ud = UdGraph(2, [ROOT_HEAD, 0])
        assert MaskSpec("pascal").build(ud=ud).family == "pascal"

    def test_c_validation(self):
        with pytest.raises(ConfigError):
            MaskSpec("scaled", 1.5)
        with pytest.raises(ConfigError):
            MaskSpec("scaled")
        with pytest.raises(ConfigError):
            MaskSpec("binary", 0.5)
        with pytest.raises(ConfigError):
            MaskSpec("no-such-family")
        for c in (0.0, -1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigError, match="normal mask needs a finite C > 0"):
                MaskSpec("normal", c)
        with pytest.raises(ConfigError):
            MaskSpec("scaled", math.nan)

    @pytest.mark.parametrize("spec", [MaskSpec("binary"), MaskSpec("scaled", 0.1),
                                      MaskSpec("normal", 0.5), MaskSpec("pascal"),
                                      MaskSpec("udiscal")], ids=FAMILIES)
    def test_refuses_a_mask_too_large_to_allocate_by_its_side(self, spec):
        # 8 * side**2 bytes past the index range, with no array allocated
        one_word = dict(cover=SceneCover(1, [frozenset({0})]), ud=UdGraph(1, [ROOT_HEAD]))
        for side in (2 ** 30, 2 ** 61, 10 ** 20):
            with pytest.raises(DimensionError, match=f"too large to allocate: {side} x {side}$"):
                spec.build(counts=(side,), **one_word)
        if spec.needs_cover:
            with pytest.raises(DimensionError, match="too large to allocate"):
                spec.build(cover=SceneCover(10 ** 20, []), counts=(1,))


class TestMaskFiles:
    def test_roundtrip_within_tolerance(self, two_scene_cover):
        rng = np.random.default_rng(19)
        cases = [
            MaskSpec("binary").build(cover=two_scene_cover),
            MaskSpec("scaled", 0.15).build(cover=two_scene_cover),
            MaskSpec("normal", 0.5).build(cover=two_scene_cover),
            Mask(rng.random((5, 5)), "udiscal"),
        ]
        for mask in cases:
            again = read_mask(write_mask(mask))
            assert again.family == mask.family
            np.testing.assert_allclose(again.values, mask.values, atol=1e-8)

    def test_header_shape(self, two_scene_cover):
        text = write_mask(MaskSpec("binary").build(cover=two_scene_cover))
        assert text.splitlines()[0] == "M 7 7 binary"

    def test_values_in_unit_interval_all_families(self, two_scene_cover):
        rng = np.random.default_rng(20)
        ud = random_ud_graph(6, rng)
        for mask in (
            MaskSpec("binary").build(cover=two_scene_cover),
            MaskSpec("scaled", 0.05).build(cover=two_scene_cover),
            MaskSpec("normal", math.sqrt(0.5)).build(cover=two_scene_cover),
            MaskSpec("pascal").build(ud=ud),
            MaskSpec("udiscal").build(ud=ud),
        ):
            assert mask.values.min() >= 0.0
            assert mask.values.max() <= 1.0

    @pytest.mark.parametrize("text, line, what", [
        ("M x 3 binary\n", 1, "non-negative integers"),
        ("M -1 2 binary\n", 1, "non-negative integers"),
        ("M 2 2.5 binary\n1 1\n1 1\n", 1, "non-negative integers"),
        ("M 1 2 binary\nfoo 1\n", 2, "non-numeric"),
        ("\nM 2 2 binary\n1 1\n\n1 foo\n", 5, "non-numeric"),
        ("M 1 2 binary\n1 1 1\n", 2, "expected 2 columns"),
    ], ids=["word-rows", "negative-rows", "fractional-cols", "word-entry",
            "entry-after-blank-lines", "extra-column"])
    def test_bad_text_raises_parse_error_naming_line(self, text, line, what):
        with pytest.raises(ParseError, match=what) as info:
            read_mask(text)
        assert info.value.line == line


def per_value_write_mask(mask):
    """Reference: the mask-file text with every value formatted on its own."""
    rows, cols = mask.values.shape
    lines = [f"M {rows} {cols} {mask.family}"]
    for row in mask.values:
        lines.append(" ".join(f"{v:.9g}" for v in row))
    return "\n".join(lines) + "\n"


class TestWriteMaskText:
    def test_every_family_matches_per_value_format(self, two_scene_cover):
        rng = np.random.default_rng(21)
        ud = random_ud_graph(9, rng)
        for mask in (
            MaskSpec("binary").build(cover=two_scene_cover),
            MaskSpec("scaled", 0.1).build(cover=two_scene_cover),
            MaskSpec("normal", 0.5).build(cover=two_scene_cover),
            MaskSpec("pascal").build(ud=ud),
            MaskSpec("udiscal").build(ud=ud),
            expand_to_subwords(MaskSpec("udiscal").build(ud=ud), (1, 2) * 4 + (3,)),
        ):
            assert write_mask(mask) == per_value_write_mask(mask), mask.family

    @settings(max_examples=60, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(0, 6), st.integers(0, 6)),
                  elements=st.floats(allow_nan=True, allow_infinity=True)))
    def test_any_float_matrix_matches_per_value_format(self, values):
        # signed zeros, NaN and infinities included
        mask = Mask(values, "scaled")
        assert write_mask(mask) == per_value_write_mask(mask)


ZERO_ROW = [0.0, 0.0, 1.0]
SIGNED_ZERO_ROW = [-0.0, 0.0, 1.0]  # equal to ZERO_ROW as floats, not as bytes


class TestWriteMaskAgainstUnique:
    """`write_mask` gives the text of the `np.unique` formatter it replaced, byte for byte."""

    @pytest.mark.parametrize("values", [
        [ZERO_ROW, SIGNED_ZERO_ROW, ZERO_ROW, SIGNED_ZERO_ROW],
        [[-0.0, -0.0], [0.0, 0.0], [-0.0, 0.0], [-0.0, -0.0]],
        [[np.inf, 0.5, -np.inf], [np.inf, 0.5, -np.inf], [0.5, np.inf, 0.0]],
        [[np.nan, -np.nan, np.inf], [np.nan, -np.nan, np.inf]],
        np.repeat([[0.1, 0.2, 0.30000000000000004], [1e-300, 5e-324, -1e300]], 3, axis=0),
        np.zeros((0, 0)),
        np.zeros((3, 0)),
        np.zeros((0, 4)),
        [[0.25, -0.0, 7.0, 0.25, 1.0]],
        np.arange(15.0).reshape(3, 5) / 7.0,
        np.tile([[1.0], [0.0], [-0.0], [1.0], [np.inf]], (1, 3)),
    ], ids=["signed-zero-rows", "signed-zeros", "inf", "nan", "repeated-rows", "0x0", "3x0",
            "0x4", "1x5", "3x5", "5x3"])
    def test_crafted_masks(self, values):
        mask = Mask(np.asarray(values, dtype=np.float64), "normal")
        assert write_mask(mask) == unique_write_mask(mask)

    def test_rows_that_differ_only_in_a_zero_sign_keep_their_own_text(self):
        text = write_mask(Mask(np.array([ZERO_ROW, SIGNED_ZERO_ROW, ZERO_ROW]), "binary"))
        assert text.splitlines()[1:] == ["0 0 1", "-0 0 1", "0 0 1"]

    def test_every_family_at_subword_resolution(self, two_scene_cover):
        rng = np.random.default_rng(22)
        ud = random_ud_graph(7, rng)
        counts = (1, 3, 1, 2, 1, 1, 2)
        for spec in (MaskSpec("binary"), MaskSpec("scaled", 0.1), MaskSpec("normal", 0.5),
                     MaskSpec("pascal"), MaskSpec("udiscal")):
            mask = spec.build(cover=two_scene_cover, ud=ud, counts=counts)
            assert write_mask(mask) == unique_write_mask(mask), spec.family

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 8), st.integers(0, 6), st.data())
    def test_masks_with_repeated_rows_and_values(self, n_rows, n_cols, data):
        pool = [0.0, -0.0, 1.0, 0.1, np.inf, -np.inf, np.nan, 5e-324]
        distinct = data.draw(arrays(np.float64, (3, n_cols), elements=st.sampled_from(pool)))
        picks = data.draw(st.lists(st.integers(0, 2), min_size=n_rows, max_size=n_rows))
        mask = Mask(distinct[picks], "scaled")
        assert write_mask(mask) == unique_write_mask(mask)
