"""Natural stratum counts and costs, from which the pools' quotas are set.

    python3 bench/reference.py --workload separate --draws 4000 --seed 0

Draws candidates exactly as the workload does, with no quota, and counts
them by stratum, the excluded tiers included. With ``--solve`` it also
solves each candidate once and reports its cost per stratum. Prints a table
to standard error and, as the last line, the counts as one JSON object: the
``*_REFERENCE`` tables in workloads.py. Run from the repository root.
"""

import argparse
import json
import random
import statistics
import sys
import time
from collections import Counter, defaultdict

import run
import workloads


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("separate", "factorize"), required=True)
    parser.add_argument("--draws", type=int, default=4000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--solve", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    ps = run.load_prodsep()
    workload = workloads.WORKLOADS[args.workload]
    rng = random.Random(f"prodsep-bench/reference/{args.workload}/{args.seed}")
    oracle = workloads._Oracle(ps)
    counts, cost = Counter(), defaultdict(list)
    for _ in range(args.draws):
        got = workload.draw(rng, ps, oracle)
        if got is None:
            continue
        counts[got[0]] += 1
        if args.solve:
            t0 = time.perf_counter()
            workload.solve(ps, got[1])
            cost[got[0]].append((time.perf_counter() - t0) * 1e3)
    total = sum(counts.values())
    print(f"{args.workload}: {total} candidates from {args.draws} draws, seed {args.seed}",
          file=sys.stderr)
    for key in sorted(counts):
        row = f"  {key:24s} {counts[key]:6d} {counts[key] / total:7.2%}"
        if args.solve:
            ms = cost[key]
            row += (f"  mean {statistics.mean(ms):8.1f} ms  max {max(ms):8.1f} ms"
                    f"  cv {statistics.pstdev(ms) / statistics.mean(ms):5.2f}"
                    f"  time share {sum(ms) / sum(map(sum, cost.values())):6.1%}")
        print(row, file=sys.stderr)
    print(json.dumps(dict(sorted(counts.items()))))


if __name__ == "__main__":
    main()
