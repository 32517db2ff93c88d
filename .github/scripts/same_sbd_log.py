"""Exit 0 if two ``sbd_log.json`` files are equal apart from their timings.

    python .github/scripts/same_sbd_log.py A/sbd_log.json B/sbd_log.json [--min-batch N]

With ``--min-batch N`` some iteration must also add at least N scenarios to
the master. The active scenarios of each iteration of the first log are
printed.
"""

import argparse
import json
import sys

TIMINGS = {"wall_time_s", "verify_s", "build_s", "solve_s"}


def without_timings(path: str) -> list[dict]:
    with open(path) as fh:
        return [{k: v for k, v in rec.items() if k not in TIMINGS}
                for rec in json.load(fh)["iterations"]]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("logs", nargs=2)
    parser.add_argument("--min-batch", type=int, default=0)
    args = parser.parse_args()
    first, second = (without_timings(path) for path in args.logs)
    active = [rec["active_scenarios"] for rec in first]
    batches = [len(b) - len(a) for a, b in zip(active, active[1:])]
    print("active scenarios per iteration:", active)
    return 0 if first == second and max(batches, default=0) >= args.min_batch else 1


if __name__ == "__main__":
    sys.exit(main())
