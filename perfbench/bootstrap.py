"""Pin BLAS threads and put the checkout's own `src/` first on the path.

Stdlib only: both entry scripts call `prepare()` before numpy is
imported, because the BLAS libraries read their thread count once, at
load time.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare():
    """Pin one BLAS thread and import hypocert from this checkout only.

    Exits with code 2, printing no result, when the checkout holds no
    `src/hypocert`, so an installed copy is never measured instead.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "hypocert" / "__init__.py").is_file():
        print(f"perfbench: no hypocert sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
