"""One-off headline figure: wall time for the copy task to reach 99% accuracy.

    python3 perfbench/time_to_accuracy.py [--seed 1]

Trains the train-copy workload's model and data (the acceptance
criterion-07 config with SASA and SACrA heads) with evaluation every 50
steps, stopping at 99% teacher-forced token accuracy or 2000 steps. It
takes minutes, which is why it is not a workload.
"""

import argparse
import time

import run  # pins BLAS threads before numpy is imported

run.import_program()

from scenemt import model as M  # noqa: E402
from workloads import TrainCopy  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    wl = TrainCopy(args.seed, run.HERE / "work")
    wl.setup()
    cfg = M.TrainConfig(steps=2000, batch_size=wl.BATCH, seed=wl.TRAIN_SEED, warmup=400,
                        eval_every=50, target_accuracy=0.99)
    start = time.perf_counter()
    result = M.train(wl.pairs, wl.cfg, cfg, wl.specs, wl.provider)
    elapsed = time.perf_counter() - start
    print(f"steps={result.steps_run} accuracy={result.accuracy:.4f} "
          f"reached={result.stopped_early} seconds={elapsed:.1f}")
    return 0 if result.stopped_early else 1


if __name__ == "__main__":
    raise SystemExit(main())
