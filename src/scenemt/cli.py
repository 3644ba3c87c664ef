"""Command-line pipeline: masks, train, translate, evaluate, split, compare.

`main` runs subcommand NAME as `cmd_NAME(args, out)`. It makes the `--out`
directory `out` first, and then writes there the run's manifest: key=value
lines holding the command, the exact argv, every argument and the (key,
value) results the command returns. `scenemt rerun <manifest>` replays a
run's argv, optionally into a different output directory, and must
reproduce the outputs byte for byte.

Exit codes: 0 success, 2 usage/config error, 3 input or parse error,
4 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import shlex
import sys
from pathlib import Path

import numpy as np

from . import __version__, autodiff, masks as masks_mod, metrics, semgraph, model as model_mod
from .errors import (
    ConfigError,
    DimensionError,
    NumericError,
    ParseError,
    SceneMtError,
    StructuralError,
    non_negative_int,
)
from .masks import MaskSpec
from .model import DecodeConfig, HeadSpec, ModelConfig, TrainConfig
from .semgraph import extract_scenes, parse_cover_file, parse_ucca_file, sem_split
from .textpipe import Vocab

# -- small file helpers -------------------------------------------------------


def _utf8(path):
    return Path(path).read_text(encoding="utf-8")


def _read_file(path, reader=_utf8):
    """`reader(path)`, by default the file's text, with the path named once in any error.

    An unreadable or non-UTF-8 file raises ParseError; a parse or structural
    error in its content keeps its type.
    """
    try:
        return reader(path)
    except (OSError, UnicodeDecodeError) as exc:
        # an OSError's own text repeats the path, so only its strerror is kept
        raise ParseError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from exc
    except (ParseError, StructuralError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _read_sentences(path):
    return [line.split() for line in _read_file(path).splitlines()]


def _read_alignments(path):
    """Per non-blank line, the tuple of its words' subword counts, as Python ints."""
    def parse(p):
        aligns = []
        for lineno, line in enumerate(_utf8(p).splitlines(), start=1):
            if not line.strip():
                continue
            try:
                counts = tuple(map(non_negative_int, line.split()))
            except ValueError:
                raise ParseError("alignment counts must be integers", line=lineno) from None
            if min(counts) < 1:
                raise ParseError("every word needs at least one subword", line=lineno)
            aligns.append(counts)
        return aligns

    return _read_file(path, parse)


def _load_covers(args):
    if args.cover and args.ucca:
        raise ConfigError("--cover and --ucca are mutually exclusive")
    if args.cover:
        return _read_file(args.cover, lambda p: parse_cover_file(_utf8(p)))
    if args.ucca:
        return _read_file(args.ucca,
                          lambda p: [extract_scenes(g) for g in parse_ucca_file(_utf8(p))])
    raise ConfigError("scene-mask families need --cover or --ucca input")


def _load_trees(args):
    if not args.conllu:
        raise ConfigError("dependency-mask families need --conllu input")
    return _read_file(args.conllu, lambda p: semgraph.parse_conllu(_utf8(p)))


def _write_manifest(out, argv, args, results):
    lines = [f"tool=scenemt {__version__}", f"command={args.command}",
             f"argv={shlex.join(argv)}"]
    lines += [f"arg.{key}={value}" for key, value in sorted(vars(args).items())]
    lines += [f"result.{key}={value}" for key, value in results]
    (out / "manifest.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


# -- head-spec flags ------------------------------------------------------------


PLACEMENT_KEYS = ("layers", "heads", "family", "C", "label")


def _spec_fields(text, keys):
    """Fields of head-spec text 'layers=2&3;heads=1;family=scaled;C=0.1'.

    Index lists take ',' or '&'; an empty C is None. Bad fragments raise ConfigError.
    """
    fields = {}
    for part in filter(None, text.split(";")):
        key, eq, value = part.partition("=")
        if not eq:
            raise ConfigError(f"bad head-spec fragment {part!r}")
        if key not in keys:
            raise ConfigError(f"unknown head-spec key {key!r}")
        try:
            if key in ("layers", "heads"):
                value = {non_negative_int(x) for x in value.replace("&", ",").split(",")}
            elif key == "C":
                value = float(value) if value else None
        except ValueError:
            raise ConfigError(f"bad head-spec fragment {part!r}") from None
        fields[key] = value
    return fields


def _parse_placement(spec_str, default):
    """Override a default placement from head-spec text (see _spec_fields)."""
    fields = _spec_fields(spec_str or "", PLACEMENT_KEYS)
    mask = MaskSpec(fields.get("family", default.mask.family), fields.get("C", default.mask.c))
    return HeadSpec(default.site, fields.get("layers", default.layers),
                    fields.get("heads", default.heads), mask, fields.get("label", default.label))


def _collect_specs(args):
    flags = ((args.sasa, model_mod.sasa_default), (args.sacra, model_mod.sacra_default),
             (args.pascal, model_mod.pascal_default), (args.udiscal, model_mod.udiscal_default))
    return [_parse_placement(text, default()) for text, default in flags if text is not None]


def _mask_records(mask_specs, args, sentences=None):
    """One (cover, tree, subword counts) record per input sentence, from the mask-input flags,
    and the names of the files read.

    Only the inputs some MaskSpec needs are read, and a record holds None for
    the others. Every input read must hold one record per sentence: of
    `sentences`, read from --src, if given, else of the first input. Each
    sentence must match its alignment's subword count if there is one, else
    its scene cover's length; the masks check covers and trees against the
    alignment.
    """
    covers = _load_covers(args) if any(m.needs_cover for m in mask_specs) else None
    trees = _load_trees(args) if not all(m.needs_cover for m in mask_specs) else None
    aligns = _read_alignments(args.alignment) if args.alignment else None
    inputs = [(path, items, what) for path, items, what in (
        (args.cover or args.ucca, covers, "covers"),
        (args.conllu, trees, "parses"),
        (args.alignment, aligns, "alignment lines")) if items is not None]
    if sentences is not None:
        source, n = args.src, len(sentences)
    else:
        source, n = inputs[0][0], len(inputs[0][1])
    for path, items, what in inputs:
        if len(items) != n:
            raise DimensionError(f"{path} holds {len(items)} {what} for the {n} sentences "
                                 f"of {source}")
    if aligns is not None:  # a subword source
        path, what = args.alignment, "alignment describes {} subwords"
        sizes = [sum(counts) for counts in aligns]
    else:
        path, what = args.cover or args.ucca, "cover describes {} tokens"
        sizes = [c.length for c in covers or ()]
    for i, (size, tokens) in enumerate(zip(sizes, sentences or ()), start=1):
        if size != len(tokens):
            raise DimensionError(f"{path}, {args.src}: sentence {i}: {what.format(size)}, "
                                 f"sentence has {len(tokens)}")
    files = ", ".join(path for path, _, _ in inputs)
    return list(zip(covers or [None] * n, trees or [None] * n, aligns or [None] * n)), files


def _build_mask(spec, record, where):
    """`spec.build(*record)`, naming `where` (the input files and sentence) in a mismatch
    or when the mask is too large to allocate."""
    try:
        return spec.build(*record)
    except DimensionError as exc:
        raise DimensionError(f"{where}: {exc}") from None
    except MemoryError as exc:
        raise DimensionError(f"{where}: mask too large to allocate: {exc}") from None


def _spec_masks(specs, sentences, args):
    """Each sentence's {label: mask matrix}, built once up front."""
    records, files = _mask_records([s.mask for s in specs], args, sentences)
    return [{s.label: _build_mask(s.mask, r, f"{files}: sentence {i}").values for s in specs}
            for i, r in enumerate(records, start=1)]


def _check_corpus(path, sentences, max_len, reserved=0, limit="--max-len", allow_empty=False):
    """Refuse sentences that, plus `reserved` positions, pass max_len (called `limit` in
    the message), and empty ones unless `allow_empty`."""
    for lineno, tokens in enumerate(sentences, start=1):
        n = len(tokens)
        if n > max_len - reserved or not (n or allow_empty):
            what = f"{n} tokens need {n + reserved} positions, over {limit} {max_len}"
            raise ParseError(f"{path}: line {lineno}: {what if n else 'empty sentence'}")


# -- model directory ------------------------------------------------------------


def _save_model_dir(out, model, src_vocab, trg_vocab):
    autodiff.save_checkpoint(out / "checkpoint.ckpt", model.state_arrays())
    # one line per ModelConfig field, as _load_model_dir expects
    lines = [f"{f.name}={getattr(model.cfg, f.name)}" for f in dataclasses.fields(ModelConfig)]
    for spec in model.head_specs:
        layers = ",".join(str(x) for x in sorted(spec.layers))
        heads = ",".join(str(x) for x in sorted(spec.heads))
        c = "" if spec.mask.c is None else repr(spec.mask.c)
        lines.append(
            f"headspec=site={spec.site};layers={layers};heads={heads};"
            f"family={spec.mask.family};C={c};label={spec.label}"
        )
    (out / "model.cfg").write_text("\n".join(lines) + "\n", encoding="utf-8")
    src_vocab.save(out / "src.vocab")
    trg_vocab.save(out / "trg.vocab")


def _stored_spec(text):
    """A model.cfg head spec: the flag grammar plus site=, with every key given."""
    fields = _spec_fields(text, ("site",) + PLACEMENT_KEYS)
    missing = [k for k in ("site",) + PLACEMENT_KEYS if k not in fields]
    if missing:
        raise ConfigError(f"head spec lacks {', '.join(missing)}")
    return HeadSpec(fields["site"], fields["layers"], fields["heads"],
                    MaskSpec(fields["family"], fields["C"]), fields["label"])


def _load_model_dir(path):
    path = Path(path)
    cfg_path = path / "model.cfg"
    known = {f.name for f in dataclasses.fields(ModelConfig)}
    fields, specs = {}, []
    for lineno, line in enumerate(_read_file(cfg_path).splitlines(), start=1):
        key, _, value = line.partition("=")
        try:
            if key == "headspec":
                specs.append(_stored_spec(value))
            elif key in known and key not in fields:
                fields[key] = non_negative_int(value)
            elif line.strip():
                raise ConfigError(f"{line!r} is neither headspec= nor a new field=<integer>")
        except (ConfigError, ValueError) as exc:
            raise ParseError(f"{cfg_path}: line {lineno}: {exc}") from None
    missing = sorted(known - set(fields))
    if missing:
        raise ParseError(f"{cfg_path}: missing fields {', '.join(missing)}")
    try:
        cfg = ModelConfig(**fields)
    except ConfigError as exc:
        raise ParseError(f"{cfg_path}: {exc}") from None
    model = model_mod.Model(cfg, specs, seed=0)
    model.load_state(_read_file(path / "checkpoint.ckpt", autodiff.load_checkpoint))
    src_vocab = _read_file(path / "src.vocab", Vocab.load)
    trg_vocab = _read_file(path / "trg.vocab", Vocab.load)
    return model, src_vocab, trg_vocab


# -- commands --------------------------------------------------------------------
# each writes its outputs to `out` and returns its manifest's results (see main)


def cmd_masks(args, out):
    spec = MaskSpec(args.family, args.C)
    records, files = _mask_records([spec], args)
    for i, record in enumerate(records):
        text = masks_mod.write_mask(_build_mask(spec, record, f"{files}: sentence {i + 1}"))
        (out / f"mask_{i:04d}.mask").write_text(text, encoding="utf-8")
    print(f"wrote {len(records)} mask files to {out}")
    return [("count", len(records))]


def cmd_train(args, out):
    src_sents = _read_sentences(args.src)
    trg_sents = _read_sentences(args.trg)
    if len(src_sents) != len(trg_sents):
        raise DimensionError(f"{args.src} holds {len(src_sents)} sentences, "
                             f"{args.trg} holds {len(trg_sents)}")
    _check_corpus(args.src, src_sents, args.max_len)
    # the decoder reads BOS before the target's first token
    _check_corpus(args.trg, trg_sents, args.max_len, reserved=1)
    specs = _collect_specs(args)
    sentence_masks = _spec_masks(specs, src_sents, args)

    src_vocab = Vocab.from_corpus(src_sents)
    trg_vocab = Vocab.from_corpus(trg_sents)
    pairs = [
        (src_vocab.encode(s), trg_vocab.encode(t))
        for s, t in zip(src_sents, trg_sents)
    ]
    model_cfg = ModelConfig(len(src_vocab), len(trg_vocab), d_model=args.d_model,
                            enc_layers=args.layers, dec_layers=args.layers, heads=args.heads,
                            d_ff=args.d_ff, max_len=args.max_len)
    # every TrainConfig field is the dest of the train flag of that name
    train_cfg = TrainConfig(**{f.name: getattr(args, f.name)
                               for f in dataclasses.fields(TrainConfig)})
    result = model_mod.train(pairs, model_cfg, train_cfg, specs, sentence_masks.__getitem__)

    _save_model_dir(out, result.model, src_vocab, trg_vocab)
    (out / "loss.txt").write_text(
        "".join(f"{v:.17g}\n" for v in result.losses), encoding="utf-8"
    )
    print(
        f"trained {result.steps_run} steps, final accuracy {result.accuracy:.4f}"
    )
    return [("steps_run", result.steps_run),
            ("loss_step0", f"{result.losses[0]:.17g}"),
            ("final_loss", f"{result.losses[-1]:.17g}"),
            ("final_accuracy", f"{result.accuracy:.6f}")]


def _decode_cfg(args):
    cfg = DecodeConfig(beam=args.beam, alpha=args.alpha, max_len=args.max_len)
    # argmax decoding is beam search at width 1 with no length penalty
    return dataclasses.replace(cfg, beam=1, alpha=0.0) if args.greedy else cfg


def _decode(args, out, line_pieces):
    """Decode each --src line with the --model directory into hyps.txt.

    `line_pieces(head_specs, sentences)` gives each line's pieces as
    (tokens, {label: mask}) pairs. Every piece must fit the model's max_len,
    else the error names --src and the line. Each piece is decoded on its
    own, an empty one to an empty hypothesis, and a line's hypotheses are
    joined with " . ".
    """
    model, src_vocab, trg_vocab = _load_model_dir(args.model)
    lines = line_pieces(model.head_specs, _read_sentences(args.src))
    _check_corpus(args.src, [max((t for t, _ in pieces), key=len) for pieces in lines],
                  model.cfg.max_len, limit="the model's max_len", allow_empty=True)
    cfg = _decode_cfg(args)

    def hypothesis(tokens, masks):
        if not tokens:
            return ""
        result = model_mod.translate(model, src_vocab.encode(tokens), masks, cfg)
        return " ".join(trg_vocab.decode(result.tokens))

    hyps = [" . ".join(hypothesis(*piece) for piece in pieces) for pieces in lines]
    (out / "hyps.txt").write_text("".join(h + "\n" for h in hyps), encoding="utf-8")
    verb = "translated" if args.command == "translate" else "split-translated"
    print(f"{verb} {len(hyps)} sentences to {out / 'hyps.txt'}")
    return [("count", len(hyps))]


def cmd_translate(args, out):
    def line_pieces(specs, sentences):
        return [[piece] for piece in zip(sentences, _spec_masks(specs, sentences, args))]

    return _decode(args, out, line_pieces)


def cmd_split(args, out):
    """Scene-split pipeline: translate each scene, join with a period."""
    def line_pieces(specs, sentences):
        if not all(s.mask.needs_cover for s in specs):
            raise ConfigError("split pipeline supports scene-mask heads only; dependency "
                              "masks would need parses of each fragment")
        # any scene family reads the covers and checks them against the sentences
        records, _ = _mask_records([MaskSpec("binary")], args, sentences)
        # a piece is one scene, over which every scene family's mask is all ones
        return [[(piece, {s.label: np.ones((len(piece), len(piece))) for s in specs})
                 for piece in sem_split(tokens, cover)]
                for tokens, (cover, _, _) in zip(sentences, records)]

    return _decode(args, out, line_pieces)


def cmd_evaluate(args, out):
    if not np.isfinite(args.beta):
        raise ConfigError(f"--beta must be finite, got {args.beta}")
    hyps = _read_file(args.hyp).splitlines()
    refs = _read_file(args.ref).splitlines()
    reports = []
    if args.metric in ("bleu", "both"):
        reports.append(metrics.bleu(hyps, refs, per_sentence=args.per_sentence))
    if args.metric in ("chrf", "both"):
        reports.append(
            metrics.chrf(hyps, refs, beta=args.beta, per_sentence=args.per_sentence)
        )
    (out / "scores.txt").write_text(metrics.write_reports(reports), encoding="utf-8")
    if args.per_sentence:
        (out / "scores.tsv").write_text(
            metrics.write_per_sentence_tsv(reports), encoding="utf-8"
        )
    for r in reports:
        print(r.line())
    return [(r.metric, f"{r.score:.2f}") for r in reports]


def cmd_compare(args, out):
    """The sign test between two score files; `out` is None without --out."""
    reports_a, reports_b = (_read_file(path, lambda p: metrics.parse_reports(_utf8(p)))
                            for path in (args.a, args.b))
    if len(reports_a) != len(reports_b):
        raise DimensionError(f"{args.a} holds {len(reports_a)} score lines, "
                             f"{args.b} holds {len(reports_b)}")
    p = metrics.sign_test([r.score for r in reports_a], [r.score for r in reports_b])
    line = f"sign_test n={len(reports_a)} p={p:.6f}"
    print(line)
    if out is not None:
        (out / "compare.txt").write_text(line + "\n", encoding="utf-8")
    return [("p", f"{p:.6f}")]


def _rerun_argv(args):
    """The argv that `rerun`'s manifest records, into `rerun --out` if one is given."""
    records = dict(line.partition("=")[::2] for line in _read_file(args.manifest).splitlines())
    if "command" not in records or "argv" not in records:
        raise ParseError(f"{args.manifest} lacks command/argv records")
    try:
        argv = shlex.split(records["argv"])
    except ValueError as exc:
        raise ParseError(f"{args.manifest}: bad argv record: {exc}") from None
    if argv[:1] == ["rerun"]:  # scenemt writes no manifest for a rerun
        raise ParseError(f"{args.manifest}: argv replays another manifest")
    return argv + ["--out", args.out] if args.out else argv


# -- argument parsing ---------------------------------------------------------------


def _add_mask_inputs(p, scenes_only=False):
    p.add_argument("--ucca", help="semantic graph file (one or more graphs)")
    p.add_argument("--cover", help="scene-cover shortcut file")
    if scenes_only:
        p.set_defaults(conllu=None, alignment=None)
        return
    p.add_argument("--conllu", help="CoNLL-U dependency parses")
    p.add_argument("--alignment", help="subword counts per word, one line per sentence")


def _add_decode_flags(p):
    p.add_argument("--beam", type=int, default=4)
    p.add_argument("--alpha", type=float, default=0.6, help="length normalization power")
    p.add_argument("--max-len", type=int, default=64, dest="max_len")
    p.add_argument("--greedy", action="store_true", help="argmax decoding")


@functools.cache
def build_parser():
    """The command-line parser, built once per process; `rerun` re-enters main and shares it.

    Subcommand NAME runs `cmd_NAME`, looked up by `main` at each call, so a
    replaced module attribute (a test's patch, a profiler's wrapper) runs.
    """
    parser = argparse.ArgumentParser(
        prog="scenemt",
        description="Scene-aware attention masks and a small NMT pipeline.",
    )
    parser.add_argument("--version", action="version", version=f"scenemt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("masks", help="build attention-mask files")
    p.add_argument("--family", required=True, choices=masks_mod.FAMILIES)
    p.add_argument("--C", type=float, default=None)
    _add_mask_inputs(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train a model on a parallel corpus")
    p.add_argument("--src", required=True)
    p.add_argument("--trg", required=True)
    p.add_argument("--out", required=True)
    _add_mask_inputs(p)
    for flag, help_text in (
        ("--sasa", "scene-aware self-attention head(s)"),
        ("--sacra", "scene-aware cross-attention head(s)"),
        ("--pascal", "parent-Gaussian head(s)"),
        ("--udiscal", "tree-distance head(s)"),
    ):
        p.add_argument(
            flag, nargs="?", const="", default=None, metavar="SPEC",
            help=f"{help_text}; SPEC like 'layers=2,3;heads=1;family=scaled'",
        )
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--batch-size", type=int, default=128, dest="batch_size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--warmup", type=int, default=4000)
    p.add_argument("--label-smoothing", type=float, default=0.1, dest="label_smoothing")
    p.add_argument("--adam-eps", type=float, default=1e-9, dest="adam_eps")
    p.add_argument("--d-model", type=int, default=256, dest="d_model")
    p.add_argument("--layers", type=int, default=4, help="encoder and decoder depth")
    p.add_argument("--heads", type=int, default=8, help="attention heads per layer")
    p.add_argument("--d-ff", type=int, default=None, dest="d_ff")
    p.add_argument("--max-len", type=int, default=64, dest="max_len")
    p.add_argument("--eval-every", type=int, default=0, dest="eval_every")
    p.add_argument("--target-accuracy", type=float, default=None, dest="target_accuracy")

    p = sub.add_parser("translate", help="decode a source file with a trained model")
    p.add_argument("--model", required=True, help="directory written by train")
    p.add_argument("--src", required=True)
    p.add_argument("--out", required=True)
    _add_mask_inputs(p)
    _add_decode_flags(p)

    p = sub.add_parser("split", help="translate each scene separately, join with periods")
    p.add_argument("--model", required=True)
    p.add_argument("--src", required=True)
    p.add_argument("--out", required=True)
    # each piece is masked as one scene of whole words, so only covers are read
    _add_mask_inputs(p, scenes_only=True)
    _add_decode_flags(p)

    p = sub.add_parser("evaluate", help="score hypotheses against references")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--metric", choices=("bleu", "chrf", "both"), default="both")
    p.add_argument("--beta", type=float, default=3.0, help="chrF recall weight")
    p.add_argument("--per-sentence", action="store_true", dest="per_sentence",
                   help="also write per-sentence scores as TSV")
    p.add_argument("--out", required=True)

    p = sub.add_parser("compare", help="sign test between two score files")
    p.add_argument("--a", required=True, help="baseline score file")
    p.add_argument("--b", required=True, help="candidate score file")
    p.add_argument("--out", default=None)

    p = sub.add_parser("rerun", help="replay a command from its manifest")
    p.add_argument("manifest")
    p.add_argument("--out", default=None, help="override the output directory")

    return parser


def main(argv=None):
    """Run one command line and return its exit code.

    `rerun` replays its manifest's argv through `main`. Any other command runs
    as `cmd_NAME(args, out)`, with `out` its `--out` directory, made first (None
    for `compare` without one), and its returned (key, value) results go into
    the manifest written there.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    try:
        if args.command == "rerun":
            return main(_rerun_argv(args))
        out = None if args.out is None else Path(args.out)
        if out is not None:
            try:
                out.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ConfigError(f"cannot make --out {out}: {exc.strerror or exc}") from None
        results = globals()[f"cmd_{args.command}"](args, out)
        if out is not None:
            _write_manifest(out, argv, args, results)
        return 0
    except ConfigError as exc:
        print(f"scenemt: config error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"scenemt: numeric failure: {exc}", file=sys.stderr)
        return 4
    except SceneMtError as exc:
        print(f"scenemt: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
