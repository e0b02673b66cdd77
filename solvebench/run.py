"""Entry point of the augdual solve benchmark.

Run from the repository root:

    python3 solvebench/run.py --workload l1_bregman --seed 0 --seconds 30 --trace 0
    python3 solvebench/run.py --workload all --seed 0 --seconds 30

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` adds a traced
run and prints the per-layer metrics instead. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
``--workload all`` runs every workload in its own process, one after the
other, so each peak-memory figure belongs to one workload.
"""

import os
import sys
from pathlib import Path

# BLAS reads its thread count once, when numpy loads it: pin it first. One
# thread keeps the closed loop single-core and its timings comparable.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    if not (SRC / "augdual" / "__init__.py").is_file():
        print(f"augdual sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench

    return bench.main(argv)


if __name__ == "__main__":
    sys.exit(main())
