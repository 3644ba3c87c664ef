"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs a tiny case of each workload, plain and traced, and checks the result
line against the metric lists in BENCHMARK.json. Then feeds every output
check a corrupted output and requires it to be refused. Exits 0 when all
pass.
"""

import math

import run  # pins BLAS threads before numpy is imported

run.import_program()

import json  # noqa: E402

import checks  # noqa: E402
from workloads import WORKLOADS, DecodeBeam4, MasksUcca  # noqa: E402


def check_schema(line, declared):
    assert set(line) == {"correct", "attempted", "failed", "metrics"}, line
    assert line["correct"] is True, line
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1, line
    assert line["failed"] == 0, line
    got = {k: v["unit"] for k, v in line["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    assert got == want, sorted(set(got.items()) ^ set(want.items()))
    for name, v in line["metrics"].items():
        assert isinstance(v["value"], float) and math.isfinite(v["value"]), (name, v)


def refused(fn, *args):
    try:
        fn(*args)
    except checks.CheckError:
        return
    raise AssertionError(f"{fn.__name__} accepted a corrupted output")


def corrupted_outputs():
    losses = [math.log(12) + 0.05] + [2.0] * 9
    refused(checks.check_losses, losses, 12, 5, 0.01)
    refused(checks.check_losses, [math.log(12)] + [math.nan] * 9, 12, 5, 0.01)
    refused(checks.check_losses, [math.log(12)] * 10, 12, 5, 0.01)

    dec = DecodeBeam4(1, run.HERE / "work" / "selftest-decode", small=True)
    dec.setup()
    dec.run_round()
    dec.check()
    src, mask, cap, r = next(res for res in dec.results if res[3].tokens)
    args = (dec._forward, src, mask, cap, dec.vocab, dec.ALPHA)
    refused(checks.check_hypothesis, *args, r.tokens, r.score + 1e-6, r.finished)
    swapped = [(r.tokens[0] + 1 - 4) % dec.SYMBOLS + 4] + r.tokens[1:]
    refused(checks.check_hypothesis, *args, swapped, r.score, r.finished)
    refused(checks.check_hypothesis, *args, [dec.vocab] + r.tokens[1:], r.score, r.finished)
    refused(checks.check_hypothesis, *args, r.tokens + [5] * cap, r.score, r.finished)

    ucca = MasksUcca(1, run.HERE / "work" / "selftest-masks", small=True)
    try:
        ucca.setup()
        ucca.run_round()
        ucca.check()
        expected = checks.expected_masks(ucca.sentences[1], ucca.C_SCALED, ucca.C_NORMAL)
        for family in ucca.FAMILIES:
            text = (ucca.work_dir / family / "mask_0001.mask").read_text(encoding="utf-8")
            checks.check_mask_file(text, family, expected[family])
            lines = text.split("\n")
            row = lines[2].split(" ")
            row[1] = repr(float(row[1]) * 0.5 + 0.01)
            lines[2] = " ".join(row)
            refused(checks.check_mask_file, "\n".join(lines), family, expected[family])
    finally:
        ucca.cleanup()


def main():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for name in sorted(WORKLOADS):
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            line, _ = run.run(name, seed=1, seconds=0.5, trace=trace, small=True)
            check_schema(line, declared)
            print(f"ok  {name} trace={trace}: {line['attempted']} operations")
    corrupted_outputs()
    print("ok  every check refused its corrupted output")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
