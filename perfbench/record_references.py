"""Record the reference reports the verify workloads are checked against.

    python3 perfbench/record_references.py [--scale 20] [--seeds 0,1,...,7]

For each seed s it runs the default plan at 1/scale of its Monte Carlo
size for base seed DEFAULT_BASE_SEED + s, once serially and once with two
workers, refuses to record unless both reports have identical bytes, and
writes perfbench/references/scale<scale>-<base seed>.json.  A reference
pins the behaviour of the commit that recorded it; record again only
with a change that declares a new plan.
"""

import argparse
import shutil
import sys
import time

import run


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scale", type=int, default=run.SCALE)
    ap.add_argument("--seeds", default=",".join(str(s) for s in range(run.ROTATION)))
    args = ap.parse_args()
    run.REFERENCES.mkdir(exist_ok=True)
    workdir = run.OUT / "record"
    for s in (int(v) for v in args.seeds.split(",")):
        base_seed = run.DEFAULT_BASE_SEED + s
        texts = []
        for workers in (1, 2):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            argv = run.verify_argv(workers, base_seed, args.scale, workdir)
            p = run.spawn(argv, workdir, time.perf_counter() + 3600.0)
            if p.code != 0:
                sys.exit(f"base seed {base_seed}, workers {workers}: exit {p.code}\n{p.stderr}")
            texts.append((workdir / "report.json").read_text())
        shutil.rmtree(workdir, ignore_errors=True)
        if texts[0] != texts[1]:
            sys.exit(f"base seed {base_seed}: serial and 2-worker reports differ")
        ref = run.summarize_report(texts[0])
        path = run.reference_path(args.scale, base_seed)
        run.write_reference(path, ref)
        print(f"{path.name}: verdict {ref['verdict']}, {len(ref['records'])} records, "
              f"sha256 {ref['sha256'][:16]}")


if __name__ == "__main__":
    main()
