import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent

for path in (ROOT / "src", BENCH_DIR):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import run  # noqa: E402  (standard library only; numpy is not loaded yet)

# results, and the known defects' reproducers, depend on the BLAS thread
# count, so pin it as the benchmark does before anything imports numpy
for var in run.THREAD_VARS:
    os.environ[var] = str(run.BLAS_THREADS)
