"""Benchmark entry point.

    python3 bench/run.py --workload {train,translate-long,tune} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout: the package is imported from its
src/ directory, never from an installed copy. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1 (whose spans are also written to .bench_out/). The exit
code is 0 on success, 1 when an output check fails, 2 when the package
cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train", "translate-long", "tune"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "phraseforge", "__init__.py")):
        print(f"error: no phraseforge package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import phraseforge

    if os.path.dirname(os.path.dirname(os.path.abspath(phraseforge.__file__))) != SRC:
        print(f"error: phraseforge imported from {phraseforge.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    os.environ.pop("PHRASEFORGE_THREADS", None)

    import workloads

    work = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(work)
    run = workloads.Run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    try:
        result = workloads.execute(run)
    except workloads.CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": run.attempted,
                          "failed": run.failed, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if run.trace:
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        run.probe.write(path)
        run.notes.append(f"spans={len(run.probe.spans)} written to {os.path.relpath(path, ROOT)}")
    print(f"{args.workload} seed={args.seed} digest={run.digest} " + " ".join(run.notes))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
