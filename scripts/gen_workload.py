#!/usr/bin/env python3
r"""Emit a random operation script on stdout, replayable by the fest CLI.

A script holds MAP lines unless --no-map is given, so its replay needs an
involution file; any pairs will do.  Example:
    printf '65 84\n67 71\n' > /tmp/dna.inv
    python3 scripts/gen_workload.py --seed 3 --ops 5000 > /tmp/w.fest
    fest --shadow-oracle --involution /tmp/dna.inv /tmp/w.fest
"""

import argparse
import sys

from fest.oracle import WorkloadConfig, WorkloadWeights, random_workload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--ops", type=int, default=1000)
    parser.add_argument("--max-length", type=int, default=10_000)
    parser.add_argument("--alphabet", type=int, default=256)
    parser.add_argument("--no-map", action="store_true",
                        help="omit MAP commands (no involution needed)")
    args = parser.parse_args(argv)
    weights = WorkloadWeights()
    if args.no_map:
        weights.map = 0.0
    config = WorkloadConfig(alphabet=args.alphabet,
                            max_length=args.max_length)
    for line in random_workload(args.seed, args.ops, weights, config):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
