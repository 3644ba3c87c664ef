"""The copy-task fixture generator in tests/toydata.py."""

from pathlib import Path

from scenemt.semgraph import parse_cover_file

from toydata import copy_task, split_cover, write_copy_task


def test_vocab_is_twelve():
    _, vocab, _ = copy_task(pairs=5)
    assert len(vocab) == 12


def test_pairs_and_covers_line_up():
    sentences, _, covers = copy_task(pairs=30, seed=2)
    assert len(sentences) == len(covers) == 30
    for s, c in zip(sentences, covers):
        assert c.length == len(s)
        assert frozenset().union(*c.scenes) == frozenset(range(len(s)))
        assert c.unassigned == frozenset()


def test_generation_is_deterministic():
    a = copy_task(pairs=10, seed=4)[0]
    b = copy_task(pairs=10, seed=4)[0]
    assert a == b


def test_split_cover_shares_middle_token():
    cover = split_cover(7)
    assert len(cover.scenes) == 2
    assert cover.scenes[0] & cover.scenes[1] == {3}


def test_written_files_parse_back(tmp_path):
    src, trg, cov = tmp_path / "c.src", tmp_path / "c.trg", tmp_path / "c.cover"
    sentences, _, covers = write_copy_task(src, trg, cov, pairs=8, seed=6)
    assert src.read_text() == trg.read_text()
    assert len(src.read_text().splitlines()) == 8
    parsed = parse_cover_file(cov.read_text())
    assert len(parsed) == 8
    for orig, back in zip(covers, parsed):
        assert orig == back


def test_writer_reproduces_the_stored_model_inputs(tmp_path):
    # tests/data/model-df90e2b/README.md records the call that wrote them
    stored = Path(__file__).parent / "data" / "model-df90e2b"
    src, cov = tmp_path / "c.src", tmp_path / "c.cover"
    write_copy_task(src, tmp_path / "c.trg", cov, pairs=12, seed=3)
    assert src.read_bytes() == (stored / "c.src").read_bytes()
    assert cov.read_bytes() == (stored / "c.cover").read_bytes()
