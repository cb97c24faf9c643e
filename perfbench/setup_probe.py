"""Time one fresh-interpreter set-up: `import hypocert` plus the workload's
own one-time set-up.  Prints the seconds.

    python3 perfbench/setup_probe.py <workload> <seed|none> <workdir>
"""

import sys
import time
from pathlib import Path

import bootstrap

bootstrap.prepare()
name, seed, workdir = sys.argv[1], sys.argv[2], Path(sys.argv[3])
t0 = time.perf_counter()
import hypocert  # noqa: E402,F401
import workloads  # noqa: E402

workloads.WORKLOADS[name](None if seed == "none" else int(seed), workdir).setup()
print(repr(time.perf_counter() - t0))
