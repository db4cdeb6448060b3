"""Store the reference output of every task any seed can run.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Run from the root of a source checkout of the commit whose output is the
reference.  Writes perfbench/reference/<workload>.tsv: one line per output
row, "<task key><TAB><rendered CSV row>", or "!crash:<type>" / "!error:<type>"
for a task that raised.
"""

import sys
import time

import run
import workloads

REFERENCE_LIMIT_S = 3600.0


def main(argv) -> int:
    names = argv or list(workloads.WORKLOADS)
    run.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names:
        start = time.monotonic()
        out = run.run_worker(workloads.reference_tasks(name), False,
                             start + REFERENCE_LIMIT_S)
        path = run.REFERENCE_DIR / f"{name}.tsv"
        with open(path, "w", encoding="utf-8") as fh:
            for result in out["results"]:
                for line in result["lines"]:
                    fh.write(f"{result['key']}\t{line}\n")
        print(f"{name}: {len(out['results'])} tasks in "
              f"{time.monotonic() - start:.1f} s -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
