"""Benchmark entry point; run from the root of a checkout.

    python3 bench/run.py --workload sweep --seed 0 --seconds 20 --trace 0

Imports the package from ``src/`` of the same checkout and refuses to
run without it, so an installed copy is never measured by mistake.
See ``bench/README.md`` for the workloads, metrics and checks.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main() -> int:
    if not os.path.isfile(os.path.join(SRC, "magnodal", "__init__.py")):
        print(f"magnodal sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import harness

    return harness.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
