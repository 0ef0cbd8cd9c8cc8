"""Record the reference outputs that benchmark runs are checked against.

    python3 perfbench/record_refs.py [--workload NAME ...] [--seeds 0-19]

Run from the root of a checkout of the commit whose outputs are the
reference.  For each input set it runs the workload's setup and each
distinct operation once, and copies the outputs to
``perfbench/refs/<workload>/seedNN/``.
"""

from __future__ import annotations

import argparse
import shutil
import sys

import run


def _seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    run.pin_environment()
    sys.path.insert(0, str(run.ROOT / "src"))
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", action="append",
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seeds", type=_seed_range,
                   default=range(workloads.N_INPUT_SETS))
    args = p.parse_args(argv)
    for name in args.workload or list(workloads.WORKLOADS):
        for seed in args.seeds:
            wl = workloads.WORKLOADS[name]()
            work = run.WORK / f"record-{name}-seed{seed}"
            run._clear(work)
            work.mkdir(parents=True)
            dest = workloads.ref_dir(name, seed)
            run._clear(dest)
            dest.mkdir(parents=True)
            wl.setup(work, seed)
            for k in range(wl.distinct_ops()):
                wl.run(k)
                for ref_name, path in wl.reference_files(k).items():
                    shutil.copyfile(path, dest / ref_name)
                quality = wl.check(k, dest)
                print(f"{name} seed {seed} op {k}: {quality}", flush=True)
            run._clear(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
