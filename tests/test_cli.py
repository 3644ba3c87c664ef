"""End-to-end command-line behaviour, exit codes, and manifest reruns."""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from scenemt import cli

from conftest import SHARED_FIRST_TOKEN_GRAPH, TWO_SCENE_GRAPH, read_mask
from toydata import write_copy_task


COVER_TEXT = """\
#L 7
S P main=1 tokens=0,1,2,3
S P main=5 tokens=3,5
"""

CONLLU_TEXT = (
    "1\tthe\t_\t_\t_\t_\t2\tdet\t_\t_\n"
    "2\tdog\t_\t_\t_\t_\t3\tnsubj\t_\t_\n"
    "3\tbarked\t_\t_\t_\t_\t0\troot\t_\t_\n"
)

TREE_ONE_WORD = "1\thi\t_\t_\t_\t_\t0\troot\t_\t_\n\n"

# integers that Python's int() takes and every scenemt reader refuses, by name
NON_INTEGERS = {"signed": "+1", "underscored": "1_0", "arabic-indic": "\u0663"}


def run(argv):
    return cli.main([str(a) for a in argv])


def subcommand_parsers():
    """The parser's {subcommand name: subparser}."""
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


class TestMasksCommand:
    def test_binary_from_graph_file(self, tmp_path):
        graph = tmp_path / "fig.ug"
        graph.write_text(TWO_SCENE_GRAPH)
        out = tmp_path / "out"
        assert run(["masks", "--family", "binary", "--ucca", graph, "--out", out]) == 0
        mask = read_mask((out / "mask_0000.mask").read_text())
        assert mask.family == "binary"
        assert mask.values[1, 3] == 1.0   # saw-dog
        assert mask.values[3, 5] == 1.0   # dog-barked
        assert mask.values[1, 5] == 0.0   # saw-barked
        assert (out / "manifest.txt").exists()

    def test_binary_from_cover_file_matches_graph(self, tmp_path):
        graph = tmp_path / "fig.ug"
        graph.write_text(TWO_SCENE_GRAPH)
        cov = tmp_path / "fig.cover"
        cov.write_text(COVER_TEXT)
        out_g = tmp_path / "by-graph"
        out_c = tmp_path / "by-cover"
        run(["masks", "--family", "binary", "--ucca", graph, "--out", out_g])
        run(["masks", "--family", "binary", "--cover", cov, "--out", out_c])
        assert (
            (out_g / "mask_0000.mask").read_text()
            == (out_c / "mask_0000.mask").read_text()
        )

    def test_scaled_c_out_of_range_exits_2(self, tmp_path, capsys):
        cov = tmp_path / "c.cover"
        cov.write_text(COVER_TEXT)
        code = run(["masks", "--family", "scaled", "--C", "1.5",
                    "--cover", cov, "--out", tmp_path / "o"])
        assert code == 2
        assert "C" in capsys.readouterr().err

    def test_udiscal_from_conllu_matches_library(self, tmp_path):
        from scenemt.masks import MaskSpec
        from scenemt.semgraph import parse_conllu

        conllu = tmp_path / "toy.conllu"
        conllu.write_text(CONLLU_TEXT)
        out = tmp_path / "out"
        assert run(["masks", "--family", "udiscal", "--conllu", conllu, "--out", out]) == 0
        got = read_mask((out / "mask_0000.mask").read_text())
        expected = MaskSpec("udiscal").build(ud=parse_conllu(CONLLU_TEXT)[0])
        np.testing.assert_allclose(got.values, expected.values, atol=1e-8)

    def test_parse_error_exits_3_naming_file_and_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.ug"
        bad.write_text("#L 1\nT t0 zero x\nROOT root\n")
        code = run(["masks", "--family", "binary", "--ucca", bad, "--out", tmp_path / "o"])
        assert code == 3
        err = capsys.readouterr().err
        assert "line 2" in err
        assert "bad.ug" in err

    @pytest.mark.parametrize("name", NON_INTEGERS)
    @pytest.mark.parametrize("graph,line", [("#L {}\nT t0 0 a\nROOT t0\n", 1),
                                            ("#L 1\nT t0 {} a\nROOT t0\n", 2)],
                             ids=["#L", "terminal-index"])
    def test_non_integer_in_a_graph_exits_3_naming_file_and_line(self, tmp_path, capsys,
                                                                 graph, line, name):
        bad = tmp_path / "bad.ug"
        bad.write_text(graph.format(NON_INTEGERS[name]), encoding="utf-8")
        assert run(["masks", "--family", "binary", "--ucca", bad, "--out", tmp_path / "o"]) == 3
        err = capsys.readouterr().err
        assert (f"bad.ug: line {line}: malformed record: {NON_INTEGERS[name]!r} is not a "
                "non-negative integer") in err
        assert "Traceback" not in err

    def test_negative_cover_length_exits_3_naming_file_and_line(self, tmp_path, capsys):
        cov = tmp_path / "neg.cover"
        cov.write_text("#L 3\nS P main=0 tokens=0,1,2\n#L -2\n")
        code = run(["masks", "--family", "binary", "--cover", cov, "--out", tmp_path / "o"])
        assert code == 3
        err = capsys.readouterr().err
        assert "neg.cover: line 3: bad #L header: '-2' is not a non-negative integer" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("main", ["0-300000000", "4", "2-1"],
                             ids=["huge-range", "index-past-length", "reversed-range"])
    def test_main_outside_the_cover_exits_3_naming_file_and_line(self, tmp_path, capsys, main):
        cov = tmp_path / "main.cover"
        cov.write_text(f"#L 4\nS P main=0 tokens=0,1\nS P main={main} tokens=0,1,2,3\n")
        code = run(["masks", "--family", "binary", "--cover", cov, "--out", tmp_path / "o"])
        assert code == 3
        err = capsys.readouterr().err
        assert f"main.cover: line 3: main={main} is not an index or range within 0..3" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("line,message", [
        ("S P main=2 tokens=2,9", "scene token 9 outside 0..3"),
        ("S P main=3 tokens=0,1,2", "main=3 lies outside tokens=0,1,2"),
        ("S P main=1-3 tokens=0,1,3", "main=1-3 lies outside tokens=0,1,3"),
        ("S A main=0 tokens=0", "scene kind must be P or S, got 'A'"),
        *[(line.format(n), f"{what}: {n!r} is not a non-negative integer")
          for n in NON_INTEGERS.values()
          for line, what in (("#L {}", "bad #L header"),
                             ("S P main={} tokens=0,1", "malformed scene line"),
                             ("S P main=0 tokens=0,{}", "malformed scene line"))],
    ], ids=["token-past-length", "main-outside-tokens", "main-range-outside-tokens", "kind",
            *[f"{name}-{field}" for name in NON_INTEGERS for field in ("#L", "main", "tokens")]])
    def test_bad_scene_line_exits_3_naming_file_and_line(self, tmp_path, capsys, line, message):
        cov = tmp_path / "bad.cover"
        cov.write_text(f"#L 4\nS P main=0 tokens=0,1\n{line}\n", encoding="utf-8")
        code = run(["masks", "--family", "binary", "--cover", cov, "--out", tmp_path / "o"])
        assert code == 3
        err = capsys.readouterr().err
        assert f"bad.cover: line 3: {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("second_id", ["1", "3", "\u0662", "x", "+2", "01", "02", "-1",
                                           "2-", "x.y", "1-2-3"],
                             ids=["repeated", "out-of-order", "arabic-indic-digit", "letter",
                                  "signed", "leading-zero", "leading-zero-same-value",
                                  "negative", "open-range", "letter-empty-node", "double-range"])
    def test_bad_conllu_id_exits_3_naming_file_line_and_id(self, tmp_path, capsys, second_id):
        conllu = tmp_path / "bad.conllu"
        conllu.write_text(CONLLU_TEXT.replace("2\tdog", f"{second_id}\tdog"))
        code = run(["masks", "--family", "udiscal", "--conllu", conllu, "--out", tmp_path / "o"])
        assert code == 3
        err = capsys.readouterr().err
        assert f"bad.conllu: line 2: token id {second_id} where id 2 belongs" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("rows,message", [
        ({2: "7"}, "bad.conllu: line 2: head index 7 out of range"),
        ({2: "x"}, "bad.conllu: line 2: non-integer HEAD 'x'"),
        ({1: "0", 3: "2"}, "bad.conllu: head links form a cycle"),
        ({2: "+3"}, "bad.conllu: line 2: non-integer HEAD '+3'"),
        ({2: "\u0663"}, "bad.conllu: line 2: non-integer HEAD '\u0663'"),
        ({2: "1_0"}, "bad.conllu: line 2: non-integer HEAD '1_0'"),
    ], ids=["head-out-of-range", "non-integer-head", "head-cycle", "signed-head",
            "arabic-indic-head", "underscored-head"])
    def test_bad_conllu_head_exits_3(self, tmp_path, capsys, rows, message):
        lines = [line.split("\t") for line in CONLLU_TEXT.splitlines()]
        for lineno, head in rows.items():
            lines[lineno - 1][6] = head
        conllu = tmp_path / "bad.conllu"
        conllu.write_text("".join("\t".join(cols) + "\n" for cols in lines))
        code = run(["masks", "--family", "udiscal", "--conllu", conllu, "--out", tmp_path / "o"])
        assert code == 3
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    # each mask's byte count passes numpy's index range, so it is refused by its size
    # before anything is allocated
    @pytest.mark.parametrize("family,texts,flags", [
        ("binary", dict(huge_cover="#L 4294967296\nS P main=0 tokens=0,5\n"),
         ["--cover", "huge_cover"]),
        ("scaled", dict(huge_cover="#L 4294967296\nS P main=0 tokens=0,5\n"),
         ["--C", "0.1", "--cover", "huge_cover"]),
        ("normal", dict(huge_cover="#L 4294967296\nS P main=0 tokens=0,5\n"),
         ["--C", "0.5", "--cover", "huge_cover"]),
        ("binary", dict(one_cover="#L 1\nS P main=0 tokens=0\n", huge_align=f"{2 ** 61}\n"),
         ["--cover", "one_cover", "--alignment", "huge_align"]),
        ("pascal", dict(one_conllu=TREE_ONE_WORD, huge_align=f"{2 ** 61}\n"),
         ["--conllu", "one_conllu", "--alignment", "huge_align"]),
        ("udiscal", dict(one_conllu=TREE_ONE_WORD, huge_align=f"{2 ** 61}\n"),
         ["--conllu", "one_conllu", "--alignment", "huge_align"]),
        ("binary", dict(huge_cover=f"#L {10 ** 20}\nS P main=0 tokens=0,5\n"),
         ["--cover", "huge_cover"]),
        ("binary", dict(one_cover="#L 1\nS P main=0 tokens=0\n", huge_align=f"{10 ** 20}\n"),
         ["--cover", "one_cover", "--alignment", "huge_align"]),
        ("pascal", dict(one_conllu=TREE_ONE_WORD, huge_align=f"{10 ** 20}\n"),
         ["--conllu", "one_conllu", "--alignment", "huge_align"]),
        ("udiscal", dict(one_conllu=TREE_ONE_WORD, huge_align=f"{10 ** 20}\n"),
         ["--conllu", "one_conllu", "--alignment", "huge_align"]),
    ], ids=["binary", "scaled", "normal", "binary-alignment", "pascal-alignment",
            "udiscal-alignment", "binary-past-int64", "binary-alignment-past-int64",
            "pascal-alignment-past-int64", "udiscal-alignment-past-int64"])
    def test_mask_too_large_to_allocate_exits_3_naming_files_and_sentence(
            self, tmp_path, capsys, family, texts, flags):
        paths = _input_files(tmp_path, **texts)
        argv = ["masks", "--family", family, *[paths.get(f, f) for f in flags],
                "--out", tmp_path / "o"]
        assert run(argv) == 3
        err = capsys.readouterr().err
        files = ", ".join(str(p) for p in paths.values())
        assert f"{files}: sentence 1: mask too large to allocate" in err
        assert "Traceback" not in err

    def test_missing_input_is_config_error(self, tmp_path):
        code = run(["masks", "--family", "binary", "--out", tmp_path / "o"])
        assert code == 2

    def test_dependency_family_with_only_a_cover_exits_2(self, tmp_path, capsys):
        cov = tmp_path / "c.cover"
        cov.write_text(COVER_TEXT)
        assert run(["masks", "--family", "pascal", "--cover", cov, "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert "dependency-mask families need --conllu input" in err
        assert "Traceback" not in err

    def test_both_graph_and_cover_rejected(self, tmp_path):
        graph = tmp_path / "g.ug"
        graph.write_text(TWO_SCENE_GRAPH)
        cov = tmp_path / "c.cover"
        cov.write_text(COVER_TEXT)
        code = run(["masks", "--family", "binary", "--ucca", graph,
                    "--cover", cov, "--out", tmp_path / "o"])
        assert code == 2


GOLDEN_MASKS = Path(__file__).parent / "data" / "masks-0e9afa1"
GOLDEN_UG, GOLDEN_CONLLU = GOLDEN_MASKS / "graphs.ug", GOLDEN_MASKS / "trees.conllu"


class TestGoldenMasks:
    """`scenemt masks` writes the stored mask files byte for byte (see their README)."""

    @pytest.mark.parametrize("family, flags", [
        ("binary", ["--ucca", GOLDEN_UG]),
        ("scaled", ["--C", "0.1", "--ucca", GOLDEN_UG]),
        ("normal", ["--C", "0.5", "--ucca", GOLDEN_UG]),
        ("pascal", ["--conllu", GOLDEN_CONLLU]),
        ("udiscal", ["--conllu", GOLDEN_CONLLU]),
    ])
    def test_mask_files_are_unchanged(self, tmp_path, family, flags):
        out = tmp_path / family
        assert run(["masks", "--family", family, *flags,
                    "--alignment", GOLDEN_MASKS / "counts.txt", "--out", out]) == 0
        expected = sorted(p.name for p in (GOLDEN_MASKS / family).glob("mask_*.mask"))
        assert expected == sorted(p.name for p in out.glob("mask_*.mask"))
        assert len(expected) == 5
        for name in expected:
            assert (out / name).read_bytes() == (GOLDEN_MASKS / family / name).read_bytes(), name


class TestOneParserPerProcess:
    ARGVS = [
        ["masks", "--family", "binary", "--ucca", "fig.ug", "--out", "out"],
        ["masks", "--family", "binary", "--bogus"],
        ["--version"],
    ]

    def test_the_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_a_replaced_command_function_runs(self, tmp_path, monkeypatch):
        # the cached parser must not hold the function it was built with
        cli.build_parser()
        monkeypatch.chdir(tmp_path)
        calls = []
        monkeypatch.setattr(cli, "cmd_masks",
                            lambda args, out: calls.append((args.ucca, out)) or [("count", 7)])
        assert cli.main(self.ARGVS[0]) == 0
        assert calls == [("fig.ug", Path("out"))]
        manifest = (tmp_path / "out" / "manifest.txt").read_text().splitlines()
        assert manifest[1:3] == ["command=masks", f"argv={' '.join(self.ARGVS[0])}"]
        assert manifest[-1] == "result.count=7"

    def test_the_command_functions_are_the_subcommands(self):
        # main replays rerun's manifest itself, so rerun has no command function
        functions = {name for name in vars(cli) if name.startswith("cmd_")}
        assert functions == {f"cmd_{name}" for name in subcommand_parsers() if name != "rerun"}

    def test_calls_in_one_process_match_separate_processes(self, tmp_path, monkeypatch, capsys):
        # each side runs in its own directory, so relative paths print alike
        one, apart = tmp_path / "one", tmp_path / "apart"
        for d in (one, apart):
            d.mkdir()
            (d / "fig.ug").write_text(TWO_SCENE_GRAPH)
        monkeypatch.chdir(one)
        in_process = []
        for argv in self.ARGVS:
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            in_process.append((code, captured.out, captured.err))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        separate = []
        for argv in self.ARGVS:
            proc = subprocess.run([sys.executable, "-m", "scenemt", *argv], cwd=apart, env=env,
                                  capture_output=True, text=True)
            separate.append((proc.returncode, proc.stdout, proc.stderr))
        assert in_process == separate
        assert [code for code, _, _ in in_process] == [0, 2, 0]
        assert ((one / "out" / "mask_0000.mask").read_bytes()
                == (apart / "out" / "mask_0000.mask").read_bytes())


class TestHeadSpecFlag:
    def test_paper_style_layer_syntax(self):
        from scenemt.cli import _collect_specs

        ns = argparse.Namespace(sasa=None, sacra="layers=2&3;heads=1", pascal=None, udiscal=None)
        (spec,) = _collect_specs(ns)
        assert spec.layers == {2, 3} and spec.heads == {1}

    def test_train_takes_no_bare_c(self, tmp_path, capsys):
        # train has no bare --C; each head spec's C= sets its scale
        with pytest.raises(SystemExit) as info:
            run(["train", "--src", "s", "--trg", "t", "--sasa", "family=scaled", "--C", "0.1",
                 "--steps", "1", "--out", tmp_path / "o"])
        assert info.value.code == 2
        assert "unrecognized arguments: --C 0.1" in capsys.readouterr().err
        assert "--C" not in subcommand_parsers()["train"].format_help()
        assert "--C" in subcommand_parsers()["masks"].format_help()


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory):
    """One tiny trained model shared by translate/split/rerun tests."""
    root = tmp_path_factory.mktemp("cli-train")
    src, trg, cov = root / "c.src", root / "c.trg", root / "c.cover"
    write_copy_task(src, trg, cov, pairs=24, seed=41)
    out = root / "run1"
    code = run([
        "train", "--src", src, "--trg", trg, "--cover", cov,
        "--sasa", "", "--steps", "30", "--batch-size", "4", "--seed", "5",
        "--d-model", "16", "--layers", "4", "--heads", "2", "--d-ff", "32",
        "--max-len", "16", "--warmup", "100", "--out", out,
    ])
    assert code == 0
    return root, out


class TestTrainCommand:
    def test_outputs_exist(self, trained_dir):
        _, out = trained_dir
        for name in ("checkpoint.ckpt", "model.cfg", "loss.txt",
                     "manifest.txt", "src.vocab", "trg.vocab"):
            assert (out / name).exists(), name

    def test_manifest_records_accuracy(self, trained_dir):
        _, out = trained_dir
        text = (out / "manifest.txt").read_text()
        assert "result.final_accuracy=" in text
        assert "command=train" in text

    def test_missing_cover_for_scene_head_exits_2(self, tmp_path):
        src, trg, cov = tmp_path / "c.src", tmp_path / "c.trg", tmp_path / "c.cover"
        write_copy_task(src, trg, cov, pairs=6, seed=1)
        code = run([
            "train", "--src", src, "--trg", trg, "--sasa", "",
            "--steps", "2", "--batch-size", "2", "--d-model", "8",
            "--layers", "4", "--heads", "2", "--out", tmp_path / "o",
        ])
        assert code == 2

    def test_numeric_failure_exits_4(self, tmp_path, capsys, monkeypatch):
        from scenemt.errors import NumericError

        def diverge(*args):
            raise NumericError("loss went non-finite", step=3)

        monkeypatch.setattr(cli.model_mod, "train", diverge)
        src, trg, cov = tmp_path / "c.src", tmp_path / "c.trg", tmp_path / "c.cover"
        write_copy_task(src, trg, cov, pairs=4, seed=1)
        assert run(train_argv(src, trg, cov, tmp_path / "o")) == 4
        err = capsys.readouterr().err
        assert "scenemt: numeric failure: step 3: loss went non-finite" in err
        assert "Traceback" not in err

    def test_rerun_is_byte_identical(self, trained_dir):
        root, out = trained_dir
        out2 = root / "run2"
        assert run(["rerun", out / "manifest.txt", "--out", out2]) == 0
        assert (out / "checkpoint.ckpt").read_bytes() == (out2 / "checkpoint.ckpt").read_bytes()
        assert (out / "loss.txt").read_text() == (out2 / "loss.txt").read_text()


STORED = Path(__file__).parent / "data" / "model-df90e2b"


class TestStoredModel:
    """A model directory written by an earlier version still loads and decodes alike."""

    @pytest.mark.parametrize("command,flags,expected", [
        ("translate", ["--beam", "4"], "beam4.hyps"),
        ("translate", ["--greedy"], "greedy.hyps"),
        ("split", ["--beam", "4"], "split4.hyps"),
    ], ids=["beam4", "greedy", "split-beam4"])
    def test_hypotheses_are_unchanged(self, tmp_path, command, flags, expected):
        assert run([command, "--model", STORED, "--src", STORED / "c.src",
                    "--cover", STORED / "c.cover", "--max-len", "12", *flags,
                    "--out", tmp_path]) == 0
        assert (tmp_path / "hyps.txt").read_bytes() == (STORED / expected).read_bytes()

    def test_split_orders_scenes_sharing_a_first_token_by_main_relation(self, tmp_path):
        # the pieces "a b c" and "a d e" decode to "d c b f f a" and "d d f"
        graph, src = tmp_path / "shared.ug", tmp_path / "shared.src"
        graph.write_text(SHARED_FIRST_TOKEN_GRAPH)
        src.write_text("a b c d e\n")
        assert run(["split", "--model", STORED, "--src", src, "--ucca", graph,
                    "--max-len", "12", "--beam", "4", "--out", tmp_path / "o"]) == 0
        assert (tmp_path / "o" / "hyps.txt").read_text() == "d c b f f a . d d f\n"

    @pytest.mark.parametrize("command", ["translate", "split"])
    @pytest.mark.parametrize("flags,message", [
        (["--beam", "0"], "beam width must be at least 1"),
        (["--alpha", "nan"], "alpha=nan must be finite"),
        (["--alpha", "inf"], "alpha=inf must be finite"),
        (["--alpha=-inf"], "alpha=-inf must be finite"),
        (["--max-len", "0"], "max_len=0 must be at least 1"),
        (["--max-len", "-3"], "max_len=-3 must be at least 1"),
    ], ids=["beam=0", "alpha=nan", "alpha=inf", "alpha=-inf", "max-len=0", "max-len=-3"])
    def test_bad_decode_flag_exits_2_naming_it(self, tmp_path, capsys, command, flags, message):
        assert run([command, "--model", STORED, "--src", STORED / "c.src",
                    "--cover", STORED / "c.cover", *flags, "--out", tmp_path]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    def test_resaved_model_cfg_is_unchanged(self, tmp_path):
        model, src_vocab, trg_vocab = cli._load_model_dir(STORED)
        cli._save_model_dir(tmp_path, model, src_vocab, trg_vocab)
        assert (tmp_path / "model.cfg").read_bytes() == (STORED / "model.cfg").read_bytes()


GOLDEN_TRAIN = Path(__file__).parent / "data" / "train-67ae48a"


class TestGoldenTraining:
    """A seeded SASA + SACrA training run gives the stored losses and weights, byte for byte."""

    def test_losses_config_and_checkpoint_are_unchanged(self, tmp_path):
        src, trg, cov = tmp_path / "c.src", tmp_path / "c.trg", tmp_path / "c.cover"
        write_copy_task(src, trg, cov, pairs=12, seed=3)
        out = tmp_path / "model"
        assert run([
            "train", "--src", src, "--trg", trg, "--cover", cov,
            "--sasa", "layers=2;heads=1", "--sacra", "layers=1&2;heads=1",
            "--steps", "60", "--eval-every", "20", "--batch-size", "6", "--seed", "2",
            "--d-model", "8", "--layers", "2", "--heads", "2", "--d-ff", "16",
            "--max-len", "16", "--warmup", "100", "--out", out,
        ]) == 0
        for name in ("loss.txt", "model.cfg", "checkpoint.ckpt"):
            assert (out / name).read_bytes() == (GOLDEN_TRAIN / name).read_bytes(), name


def _input_files(tmp_path, **texts):
    paths = {}
    for name, text in texts.items():
        paths[name] = tmp_path / name.replace("_", ".")
        paths[name].write_text(text)
    return paths


class TestMaskInputMismatches:
    """Mask inputs that disagree exit 3 naming their files, and the sentence where there is one."""

    @pytest.mark.parametrize("command,texts,flags,message", [
        ("translate", dict(two_src="a b\nc d\n", one_cover="#L 2\nS P main=0 tokens=0,1\n"),
         ["--src", "two_src", "--cover", "one_cover"],
         "{one_cover} holds 1 covers for the 2 sentences of {two_src}"),
        ("split", dict(two_src="a b\nc d\n", one_cover="#L 2\nS P main=0 tokens=0,1\n"),
         ["--src", "two_src", "--cover", "one_cover"],
         "{one_cover} holds 1 covers for the 2 sentences of {two_src}"),
        ("translate", dict(one_src="a b\n", three_cover="#L 3\nS P main=0 tokens=0,1,2\n"),
         ["--src", "one_src", "--cover", "three_cover"],
         "{three_cover}, {one_src}: sentence 1: cover describes 3 tokens, sentence has 2"),
        ("split", dict(one_src="a b\n", three_cover="#L 3\nS P main=0 tokens=0,1,2\n"),
         ["--src", "one_src", "--cover", "three_cover"],
         "{three_cover}, {one_src}: sentence 1: cover describes 3 tokens, sentence has 2"),
        ("translate", dict(one_src="a b\n", one_cover="#L 2\nS P main=0 tokens=0,1\n",
                           two_align="1 1\n1 1\n"),
         ["--src", "one_src", "--cover", "one_cover", "--alignment", "two_align"],
         "{two_align} holds 2 alignment lines for the 1 sentences of {one_src}"),
        ("masks", dict(one_conllu=TREE_ONE_WORD, one_align="1 1\n"),
         ["--family", "pascal", "--conllu", "one_conllu", "--alignment", "one_align"],
         "{one_conllu}, {one_align}: sentence 1: alignment covers 2 words, tree has 1"),
        ("masks", dict(three_cover="#L 3\nS P main=0 tokens=0,1,2\n", one_align="1 1\n"),
         ["--family", "binary", "--cover", "three_cover", "--alignment", "one_align"],
         "{three_cover}, {one_align}: sentence 1: mask covers 3 words, alignment has 2"),
        ("masks", dict(one_cover="#L 2\nS P main=0 tokens=0,1\n", zero_align="1 0\n"),
         ["--family", "binary", "--cover", "one_cover", "--alignment", "zero_align"],
         "{zero_align}: line 1: every word needs at least one subword"),
        ("masks", dict(one_cover="#L 1\nS P main=0 tokens=0\n", underscored_align="1_0\n"),
         ["--family", "binary", "--cover", "one_cover", "--alignment", "underscored_align"],
         "{underscored_align}: line 1: alignment counts must be integers"),
        ("masks", dict(one_cover="#L 1\nS P main=0 tokens=0\n", arabic_align="\u0663\n"),
         ["--family", "binary", "--cover", "one_cover", "--alignment", "arabic_align"],
         "{arabic_align}: line 1: alignment counts must be integers"),
        ("masks", dict(one_cover="#L 1\nS P main=0 tokens=0\n", signed_align="+1\n"),
         ["--family", "binary", "--cover", "one_cover", "--alignment", "signed_align"],
         "{signed_align}: line 1: alignment counts must be integers"),
        ("translate", dict(three_src="a b c\n", one_cover="#L 2\nS P main=0 tokens=0,1\n",
                           two_subwords="1 1\n"),
         ["--src", "three_src", "--cover", "one_cover", "--alignment", "two_subwords"],
         "{two_subwords}, {three_src}: sentence 1: alignment describes 2 subwords, "
         "sentence has 3"),
    ], ids=["covers-for-sentences", "split-covers-for-sentences", "cover-length",
            "split-cover-length", "alignment-lines-for-sentences", "alignment-against-tree",
            "mask-against-alignment", "zero-subword-count", "underscored-count",
            "arabic-indic-count", "signed-count", "subwords-against-source"])
    def test_exits_3_naming_the_files(self, tmp_path, capsys, command, texts, flags, message):
        paths = _input_files(tmp_path, **texts)
        model = ["--model", STORED] if command != "masks" else []
        argv = [command, *model, *[paths.get(f, f) for f in flags], "--out", tmp_path / "o"]
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert message.format(**paths) in err
        assert "Traceback" not in err

    def test_a_subword_source_with_its_alignment_translates(self, tmp_path):
        # two words, the second cut into two subwords: the source has three tokens
        paths = _input_files(tmp_path, three_src="a b c\n",
                             one_cover="#L 2\nS P main=0 tokens=0,1\n", one_align="1 2\n")
        out = tmp_path / "o"
        assert run(["translate", "--model", STORED, "--src", paths["three_src"],
                    "--cover", paths["one_cover"], "--alignment", paths["one_align"],
                    "--max-len", "8", "--out", out]) == 0
        assert len((out / "hyps.txt").read_text().splitlines()) == 1

    @pytest.mark.parametrize("flag", ["--conllu", "--alignment"])
    def test_split_takes_no_tree_or_alignment(self, tmp_path, capsys, flag):
        with pytest.raises(SystemExit) as info:
            run(["split", "--model", STORED, "--src", STORED / "c.src", "--cover",
                 STORED / "c.cover", flag, "x", "--out", tmp_path / "o"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {flag} x" in err
        assert "Traceback" not in err

    def test_a_missing_input_is_named_once(self, tmp_path, capsys):
        missing = tmp_path / "nonexist.cover"
        assert run(["masks", "--family", "binary", "--cover", missing,
                    "--out", tmp_path / "o"]) == 3
        err = capsys.readouterr().err
        assert f"cannot read {missing}: " in err
        assert err.count(str(missing)) == 1
        assert "Traceback" not in err


class TestTranslateCommand:
    def test_beam_one_equals_greedy(self, trained_dir, tmp_path):
        root, model_dir = trained_dir
        src = root / "c.src"
        cov = root / "c.cover"
        out_beam = tmp_path / "beam"
        out_greedy = tmp_path / "greedy"
        common = ["translate", "--model", model_dir, "--src", src, "--cover", cov,
                  "--max-len", "12"]
        assert run(common + ["--beam", "1", "--out", out_beam]) == 0
        assert run(common + ["--beam", "1", "--greedy", "--out", out_greedy]) == 0
        assert (out_beam / "hyps.txt").read_text() == (out_greedy / "hyps.txt").read_text()

    def test_empty_source_line_translates_to_empty_line(self, trained_dir, tmp_path):
        root, model_dir = trained_dir
        src = tmp_path / "s.src"
        src.write_text("a b c\n\nd e f\n")
        cov = tmp_path / "s.cover"
        cov.write_text(
            "#L 3\nS P main=0 tokens=0,1,2\n"
            "#L 0\n"
            "#L 3\nS P main=0 tokens=0,1,2\n"
        )
        out = tmp_path / "o"
        assert run(["translate", "--model", model_dir, "--src", src,
                    "--cover", cov, "--greedy", "--max-len", "8",
                    "--out", out]) == 0
        lines = (out / "hyps.txt").read_text().split("\n")
        assert lines[1] == ""

    @pytest.mark.parametrize("command", ["translate", "split"])
    def test_over_long_source_exits_3_naming_file_and_line(self, tmp_path, capsys, command):
        src, cov = tmp_path / "long.src", tmp_path / "long.cover"
        src.write_text("a b c\n" + " ".join(["a"] * 300) + "\n")
        cov.write_text("#L 3\nS P main=0 tokens=0,1,2\n"
                       "#L 300\nS P main=0 tokens=" + ",".join(map(str, range(300))) + "\n")
        assert run([command, "--model", STORED, "--src", src, "--cover", cov,
                    "--out", tmp_path / "o"]) == 3
        err = capsys.readouterr().err
        assert "long.src: line 2: 300 tokens need 300 positions, over the model's max_len 16" in err
        assert "Traceback" not in err

    def test_non_utf8_source_exits_3_naming_file(self, tmp_path, capsys):
        src = tmp_path / "bad.src"
        src.write_bytes(b"a b \xff\n")
        assert run(["translate", "--model", STORED, "--src", src,
                    "--cover", STORED / "c.cover", "--out", tmp_path / "o"]) == 3
        err = capsys.readouterr().err
        assert f"cannot read {src}" in err
        assert "Traceback" not in err

    def test_translation_rerun_is_byte_identical(self, trained_dir, tmp_path):
        root, model_dir = trained_dir
        out1 = tmp_path / "t1"
        assert run(["translate", "--model", model_dir, "--src", root / "c.src",
                    "--cover", root / "c.cover", "--beam", "2",
                    "--max-len", "12", "--out", out1]) == 0
        out2 = tmp_path / "t2"
        assert run(["rerun", out1 / "manifest.txt", "--out", out2]) == 0
        assert (out1 / "hyps.txt").read_bytes() == (out2 / "hyps.txt").read_bytes()


class TestSplitCommand:
    def test_split_joins_pieces_with_period(self, trained_dir, tmp_path):
        root, model_dir = trained_dir
        src = tmp_path / "s.src"
        src.write_text("a b c d e\n")
        cov = tmp_path / "s.cover"
        cov.write_text("#L 5\nS P main=0 tokens=0,1,2\nS P main=4 tokens=2,3,4\n")
        out = tmp_path / "out"
        assert run(["split", "--model", model_dir, "--src", src, "--cover", cov,
                    "--greedy", "--max-len", "10", "--out", out]) == 0
        line = (out / "hyps.txt").read_text().strip()
        assert line.split().count(".") == 1  # two scenes, one delimiter

    def test_a_line_over_max_len_whose_scenes_fit_is_split(self, tmp_path):
        # 20 tokens, over the stored model's max_len 16, in two scenes of 10
        src, cov = tmp_path / "long.src", tmp_path / "long.cover"
        src.write_text(" ".join(["a", "b"] * 10) + "\n")
        cov.write_text("#L 20\nS P main=0 tokens=" + ",".join(map(str, range(10))) + "\n"
                       "S P main=10 tokens=" + ",".join(map(str, range(10, 20))) + "\n")
        out = tmp_path / "o"
        assert run(["split", "--model", STORED, "--src", src, "--cover", cov,
                    "--max-len", "6", "--out", out]) == 0
        assert (out / "hyps.txt").read_text().count(" . ") == 1

    def test_a_model_with_a_dependency_head_exits_2(self, tmp_path, capsys):
        model_dir = copy_model_dir(STORED, tmp_path / "m")
        with (model_dir / "model.cfg").open("a") as cfg:
            cfg.write("headspec=site=encoder;layers=1;heads=1;family=pascal;C=;label=pascal\n")
        assert run(["split", "--model", model_dir, "--src", STORED / "c.src",
                    "--cover", STORED / "c.cover", "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert "split pipeline supports scene-mask heads only" in err
        assert "Traceback" not in err

    def test_single_scene_has_no_delimiter(self, trained_dir, tmp_path):
        root, model_dir = trained_dir
        src = tmp_path / "s.src"
        src.write_text("a b c\n")
        cov = tmp_path / "s.cover"
        cov.write_text("#L 3\nS P main=0 tokens=0,1,2\n")
        out = tmp_path / "out"
        assert run(["split", "--model", model_dir, "--src", src, "--cover", cov,
                    "--greedy", "--max-len", "10", "--out", out]) == 0
        assert "." not in (out / "hyps.txt").read_text()


class TestEvaluateAndCompare:
    def test_evaluate_writes_scores(self, tmp_path):
        hyp = tmp_path / "h.txt"
        ref = tmp_path / "r.txt"
        hyp.write_text("the cat sat down now\n")
        ref.write_text("the cat sat down\n")
        out = tmp_path / "out"
        assert run(["evaluate", "--hyp", hyp, "--ref", ref, "--out", out]) == 0
        text = (out / "scores.txt").read_text()
        assert "metric=bleu score=66.87 n=1" in text
        assert "metric=chrf" in text

    def test_per_sentence_scores_go_to_a_tsv(self, tmp_path):
        hyp, ref = tmp_path / "h.txt", tmp_path / "r.txt"
        hyp.write_text("the cat sat down now\nb c\n")
        ref.write_text("the cat sat down\nb c\n")
        out = tmp_path / "out"
        assert run(["evaluate", "--hyp", hyp, "--ref", ref, "--per-sentence", "--out", out]) == 0
        rows = (out / "scores.tsv").read_text().splitlines()
        assert rows[:2] == ["sentence\tbleu\tchrf", "0\t66.87\t97.22"]
        assert len(rows) == 3

    def test_identity_scores_100(self, tmp_path):
        hyp = tmp_path / "h.txt"
        hyp.write_text("same line\n")
        out = tmp_path / "out"
        assert run(["evaluate", "--hyp", hyp, "--ref", hyp, "--out", out]) == 0
        text = (out / "scores.txt").read_text()
        assert "metric=bleu score=100.00" in text
        assert "metric=chrf score=100.00" in text

    def test_compare_sign_test(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("".join(f"metric=bleu score={10 + i}.00 n=5\n" for i in range(10)))
        scores_b = [f"{11 + i}.00" if i < 8 else f"{5 + i}.00" for i in range(10)]
        b.write_text("".join(f"metric=bleu score={s} n=5\n" for s in scores_b))
        assert run(["compare", "--a", a, "--b", b]) == 0
        assert "p=0.054688" in capsys.readouterr().out

    def test_compare_all_ties_exits_3(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        a.write_text("metric=bleu score=10.00 n=5\nmetric=bleu score=11.00 n=5\n")
        assert run(["compare", "--a", a, "--b", a]) == 3
        assert "tied" in capsys.readouterr().err

    def test_compare_score_line_mismatch_exits_3_naming_both_files(self, tmp_path, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        a.write_text("metric=bleu score=10.00 n=5\n")
        b.write_text("metric=bleu score=11.00 n=5\nmetric=bleu score=13.00 n=5\n")
        assert run(["compare", "--a", a, "--b", b]) == 3
        err = capsys.readouterr().err
        assert f"{a} holds 1 score lines, {b} holds 2" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("line,message", [
        ("metric=bleu score=x n=5", "could not convert string to float: 'x'"),
        ("metric=bleu score=nan n=5", "score 'nan' is not finite"),
        ("metric=bleu score=-inf n=5", "score '-inf' is not finite"),
        *[(f"metric=bleu score=1.00 n={n}", f"{n!r} is not a non-negative integer")
          for n in NON_INTEGERS.values()],
    ], ids=["score=x", "score=nan", "score=-inf", *[f"{name}-n" for name in NON_INTEGERS]])
    def test_compare_bad_score_line_exits_3_naming_file_and_line(self, tmp_path, capsys,
                                                                 line, message):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        a.write_text("metric=bleu score=10.00 n=5\nmetric=bleu score=12.00 n=5\n")
        b.write_text(f"metric=bleu score=11.00 n=5\n{line}\n", encoding="utf-8")
        assert run(["compare", "--a", a, "--b", b]) == 3
        err = capsys.readouterr().err
        assert f"{b}: line 2: bad score line: {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("beta", ["nan", "inf", "-inf"])
    def test_evaluate_non_finite_beta_exits_2_naming_it(self, tmp_path, capsys, beta):
        hyp = tmp_path / "h.txt"
        hyp.write_text("same line\n")
        assert run(["evaluate", "--hyp", hyp, "--ref", hyp, f"--beta={beta}",
                    "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert f"--beta must be finite, got {float(beta)}" in err
        assert "Traceback" not in err

    def test_an_out_that_names_a_file_exits_2_naming_it(self, tmp_path, capsys):
        hyp = tmp_path / "h.txt"
        hyp.write_text("same line\n")
        assert run(["evaluate", "--hyp", hyp, "--ref", hyp, "--out", hyp]) == 2
        err = capsys.readouterr().err
        assert f"cannot make --out {hyp}: " in err
        assert "Traceback" not in err
        assert hyp.read_text() == "same line\n"

    def test_compare_out_writes_file_and_manifest(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("metric=bleu score=10.00 n=5\nmetric=bleu score=12.00 n=5\n")
        b.write_text("metric=bleu score=11.00 n=5\nmetric=bleu score=13.00 n=5\n")
        out = tmp_path / "cmp"
        assert run(["compare", "--a", a, "--b", b, "--out", out]) == 0
        assert "p=0.250000" in (out / "compare.txt").read_text()
        assert (out / "manifest.txt").exists()


class TestEvaluateRerun:
    def test_score_report_rerun_byte_identical(self, tmp_path):
        hyp = tmp_path / "h.txt"
        ref = tmp_path / "r.txt"
        hyp.write_text("the cat sat down now\nb c\n")
        ref.write_text("the cat sat down\nb c\n")
        out1 = tmp_path / "e1"
        assert run(["evaluate", "--hyp", hyp, "--ref", ref, "--per-sentence",
                    "--out", out1]) == 0
        out2 = tmp_path / "e2"
        assert run(["rerun", out1 / "manifest.txt", "--out", out2]) == 0
        for name in ("scores.txt", "scores.tsv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_a_manifest_without_argv_exits_3(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("tool=scenemt 0.1.0\ncommand=evaluate\n")
        assert run(["rerun", manifest, "--out", tmp_path / "o"]) == 3
        err = capsys.readouterr().err
        assert f"{manifest} lacks command/argv records" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv,message", [
        ('evaluate --hyp "h.txt --ref h.txt', "bad argv record: No closing quotation"),
        ("rerun {manifest}", "argv replays another manifest"),
    ], ids=["unclosed-quote", "rerun-of-itself"])
    def test_a_bad_argv_record_exits_3_naming_the_manifest(self, tmp_path, capsys, argv,
                                                           message):
        manifest = tmp_path / "manifest.txt"
        argv = argv.format(manifest=manifest)
        manifest.write_text(f"tool=scenemt 0.1.0\ncommand={argv.split()[0]}\nargv={argv}\n")
        assert run(["rerun", manifest, "--out", tmp_path / "o"]) == 3
        err = capsys.readouterr().err
        assert f"{manifest}: {message}" in err
        assert "Traceback" not in err


def train_argv(src, trg, cov, out, *extra):
    return ["train", "--src", src, "--trg", trg, "--cover", cov, "--steps", "2",
            "--batch-size", "2", "--d-model", "8", "--layers", "4", "--heads", "2",
            "--d-ff", "16", "--max-len", "16", "--out", out, *extra]


class TestHeadSpecErrors:
    """Bad head-spec fragments, mask scales, model sizes and training settings given to
    train exit 2 naming them."""

    @pytest.mark.parametrize("flags,message", [
        (["--sasa", "layers=x"], "'layers=x'"),
        (["--sasa", "family=scaled;C=abc"], "'C=abc'"),
        (["--sasa", "heads=1,"], "'heads=1,'"),
        (["--sasa", "layers"], "'layers'"),
        (["--sasa", "family=normal;C=nan"], "normal mask needs a finite C > 0"),
        (["--sasa", "family=normal;C=inf"], "normal mask needs a finite C > 0"),
        (["--sasa", "bogus=1"], "unknown head-spec key 'bogus'"),
        (["--heads", "0"], "d_model=8 and heads=0 must be positive"),
        (["--d-model", "0"], "d_model=0 and heads=2 must be positive"),
        (["--d-ff", "0"], "d_ff=0 must be positive"),
        (["--heads", "-2"], "d_model=8 and heads=-2 must be positive"),
        (["--layers", "-1"], "enc_layers=-1 and dec_layers=-1 must not be negative"),
        (["--d-ff", "-4"], "d_ff=-4 must be positive"),
        (["--seed", "-1"], "seed=-1 and eval_every=0 must not be negative"),
        (["--eval-every", "-1"], "seed=0 and eval_every=-1 must not be negative"),
        (["--adam-eps", "-1"], "adam_eps=-1.0 must be finite and positive"),
        (["--adam-eps", "nan"], "adam_eps=nan must be finite and positive"),
        (["--adam-eps", "0"], "adam_eps=0.0 must be finite and positive"),
        (["--adam-eps", "inf"], "adam_eps=inf must be finite and positive"),
        (["--target-accuracy", "nan"], "target_accuracy=nan must lie in (0, 1]"),
        (["--target-accuracy", "0"], "target_accuracy=0.0 must lie in (0, 1]"),
        (["--target-accuracy", "1.5"], "target_accuracy=1.5 must lie in (0, 1]"),
        (["--sasa", "layers=+1"], "'layers=+1'"),
        (["--sasa", "heads=1_0"], "'heads=1_0'"),
        (["--sasa", "layers=+1_0"], "'layers=+1_0'"),
        (["--sacra", "heads=\u0663"], "'heads=\u0663'"),
        (["--sasa", "layers=2, 3"], "'layers=2, 3'"),
    ], ids=["layers=x-layers=x", "family=scaled;C=abc-C=abc", "heads=1,-heads=1,",
            "layers-layers", "normal-C=nan", "normal-C=inf", "bogus=1", "heads=0", "d-model=0",
            "d-ff=0", "heads=-2", "layers=-1", "d-ff=-4", "seed=-1", "eval-every=-1",
            "adam-eps=-1", "adam-eps=nan", "adam-eps=0", "adam-eps=inf", "target-accuracy=nan",
            "target-accuracy=0", "target-accuracy=1.5", "layers=+1", "heads=1_0", "layers=+1_0",
            "sacra-heads=arabic-indic", "layers=2,-space-3"])
    def test_bad_fragment_exits_2_naming_it(self, tmp_path, capsys, flags, message):
        src, trg, cov = tmp_path / "c.src", tmp_path / "c.trg", tmp_path / "c.cover"
        write_copy_task(src, trg, cov, pairs=4, seed=1)
        assert run(train_argv(src, trg, cov, tmp_path / "o", *flags)) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    def test_zero_layers_still_train(self, tmp_path):
        src, trg, cov = tmp_path / "c.src", tmp_path / "c.trg", tmp_path / "c.cover"
        write_copy_task(src, trg, cov, pairs=4, seed=1)
        assert run(train_argv(src, trg, cov, tmp_path / "o", "--layers", "0")) == 0


class TestCorpusValidation:
    def test_empty_source_line_exits_3_naming_file_and_line(self, tmp_path, capsys):
        src, trg, cov = tmp_path / "c.src", tmp_path / "c.trg", tmp_path / "c.cover"
        write_copy_task(src, trg, cov, pairs=4, seed=2)
        lines = src.read_text().splitlines()
        lines[1] = ""
        src.write_text("\n".join(lines) + "\n")
        assert run(train_argv(src, trg, cov, tmp_path / "o")) == 3
        err = capsys.readouterr().err
        assert "c.src: line 2: empty sentence" in err

    def test_sentence_count_mismatch_exits_3_naming_both_files(self, tmp_path, capsys):
        src, trg = tmp_path / "c.src", tmp_path / "c.trg"
        src.write_text("a b\nc d\n")
        trg.write_text("a b\n")
        argv = ["train", "--src", src, "--trg", trg, "--steps", "1", "--d-model", "8",
                "--heads", "2", "--out", tmp_path / "o"]
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert f"{src} holds 2 sentences, {trg} holds 1" in err
        assert "Traceback" not in err

    def test_target_needing_more_positions_than_max_len_exits_3(self, tmp_path, capsys):
        src, trg = tmp_path / "c.src", tmp_path / "c.trg"
        src.write_text("a b\n" + " ".join("c" * 15) + "\n")
        trg.write_text("a b\n" + " ".join("c" * 16) + "\n")
        argv = ["train", "--src", src, "--trg", trg, "--steps", "1", "--d-model", "8",
                "--heads", "2", "--max-len", "16", "--out", tmp_path / "o"]
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert "c.trg: line 2: 16 tokens need 17 positions, over --max-len 16" in err


def copy_model_dir(model_dir, dest):
    import shutil

    shutil.copytree(model_dir, dest)
    return dest


class TestModelDir:
    def translate(self, model_dir, root, out):
        return run(["translate", "--model", model_dir, "--src", root / "c.src",
                    "--cover", root / "c.cover", "--greedy", "--max-len", "4",
                    "--out", out])

    @pytest.mark.parametrize("edit,line", [
        (lambda lines: lines.insert(2, "bogus"), 3),
        (lambda lines: lines.insert(0, "dropout=1"), 1),
        (lambda lines: lines.insert(1, "d_model=8"), 4),  # the repeat
        (lambda lines: lines.__setitem__(3, "enc_layers=abc"), 4),
        (lambda lines: lines.__setitem__(5, "heads=\u0662"), 6),
        (lambda lines: lines.__setitem__(-1, lines[-1].replace(";label=sasa", "")), 9),
        (lambda lines: lines.__setitem__(-1, lines[-1].replace("layers=4", "layers=x")), 9),
        (lambda lines: lines.__setitem__(-1, lines[-1].replace("family=binary;C=",
                                                               "family=normal;C=nan")), 9),
        # sizes no model can have, which no single line holds
        (lambda lines: lines.__setitem__(5, "heads=0"), "d_model=16 and heads=0 must be positive"),
        (lambda lines: lines.__setitem__(6, "d_ff=0"), "d_ff=0 must be positive"),
        (lambda lines: lines.__setitem__(5, "heads=3"), "d_model=16 not divisible by heads=3"),
        (lambda lines: lines.__setitem__(7, "max_len=1"), "max_len=1 must be at least 2"),
        # integers that int() takes
        (lambda lines: lines.__setitem__(-1, lines[-1].replace("layers=4;heads=1",
                                                               "layers=\u0662;heads=+1")), 9),
        (lambda lines: lines.__setitem__(-1, lines[-1].replace("heads=1", "heads=1_0")), 9),
        (lambda lines: lines.__setitem__(7, "max_len=+16"), 8),
        (lambda lines: lines.__setitem__(6, "d_ff=3_2"), 7),
    ])
    def test_bad_model_cfg_line_exits_3_naming_it(self, trained_dir, tmp_path, capsys,
                                                  edit, line):
        root, model_dir = trained_dir
        bad = copy_model_dir(model_dir, tmp_path / "m")
        lines = (bad / "model.cfg").read_text().splitlines()
        assert lines[-1].startswith("headspec=") and len(lines) == 9
        edit(lines)
        (bad / "model.cfg").write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert self.translate(bad, root, tmp_path / "o") == 3
        err = capsys.readouterr().err
        where = f"line {line}: " if isinstance(line, int) else line
        assert f"model.cfg: {where}" in err
        assert "Traceback" not in err

    def test_missing_field_exits_3(self, trained_dir, tmp_path, capsys):
        root, model_dir = trained_dir
        bad = copy_model_dir(model_dir, tmp_path / "m")
        text = (bad / "model.cfg").read_text().replace("d_ff=32\n", "")
        (bad / "model.cfg").write_text(text)
        assert self.translate(bad, root, tmp_path / "o") == 3
        assert "missing fields d_ff" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["checkpoint.ckpt", "src.vocab"])
    def test_missing_model_file_exits_3_naming_it(self, tmp_path, capsys, name):
        model_dir = copy_model_dir(STORED, tmp_path / "m")
        (model_dir / name).unlink()
        assert self.translate(model_dir, STORED, tmp_path / "o") == 3
        err = capsys.readouterr().err
        assert f"cannot read {model_dir / name}" in err
        assert "Traceback" not in err

    def test_corrupt_checkpoint_exits_3_naming_it(self, tmp_path, capsys):
        model_dir = copy_model_dir(STORED, tmp_path / "m")
        for header, message in [
                (b"not a checkpoint\n", "not a checkpoint file"),
                (b"SCKPT +70\n", "checkpoint tensor count is not a non-negative integer: '+70'")]:
            (model_dir / "checkpoint.ckpt").write_bytes(header)
            assert self.translate(model_dir, STORED, tmp_path / "o") == 3
            err = capsys.readouterr().err
            assert f"{model_dir / 'checkpoint.ckpt'}: {message}" in err
            assert "Traceback" not in err

    def test_per_head_checkpoint_is_refused(self, trained_dir, tmp_path, capsys):
        from scenemt import autodiff

        root, model_dir = trained_dir
        old = copy_model_dir(model_dir, tmp_path / "m")
        arrays = autodiff.load_checkpoint(old / "checkpoint.ckpt")
        per_head = {}
        for name, a in arrays.items():
            if a.ndim == 3:  # a stacked attention tensor, split as "<sublayer>.<h>.<w>"
                prefix, w = name.rsplit(".", 1)
                per_head.update((f"{prefix}.{h}.{w}", m) for h, m in enumerate(a))
            else:
                per_head[name] = a
        autodiff.save_checkpoint(old / "checkpoint.ckpt", per_head)
        assert self.translate(old, root, tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert "checkpoint is missing tensor 'enc.0.attn.wq'" in err
        assert "Traceback" not in err

    def test_head_specs_round_trip_through_model_cfg(self, tmp_path):
        from scenemt import model as M
        from scenemt.masks import MaskSpec
        from scenemt.textpipe import Vocab

        specs = [
            M.HeadSpec("encoder", {1, 2}, {2}, MaskSpec("scaled", 0.1), "s"),
            M.HeadSpec("encoder", {1}, {1}, MaskSpec("pascal"), "p"),
            M.HeadSpec("cross", {2}, {1, 2}, MaskSpec("normal", 0.5), "n"),
            M.HeadSpec("cross", {1}, {2}, MaskSpec("binary"), "b"),
        ]
        cfg = M.ModelConfig(src_vocab=7, trg_vocab=7, d_model=8, enc_layers=2,
                            dec_layers=2, heads=2, d_ff=12, max_len=16)
        model = M.Model(cfg, specs, seed=3)
        vocab = Vocab.from_corpus([["a", "b", "c"]])
        cli._save_model_dir(tmp_path, model, vocab, vocab)
        loaded, _, _ = cli._load_model_dir(tmp_path)
        assert loaded.cfg == cfg
        assert loaded.head_specs == model.head_specs
        for name, t in model.params.items():
            assert (loaded.params[name].data == t.data).all(), name
