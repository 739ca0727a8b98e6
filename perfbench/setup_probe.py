"""One fresh-process set-up: import ``coxq.cli`` and write a workload's configs.

    python3 perfbench/setup_probe.py SRC_DIR WORKLOAD SEED OUT_DIR

Prints CLOCK_MONOTONIC when ready to start the first CLI call.  The caller
reads the same clock just before starting this process, so the difference is
the set-up a user of the CLI pays: interpreter start, imports and config
generation.
"""

import sys
import time

from workloads import make_calls, write_configs

if __name__ == "__main__":
    src, workload, seed, out_dir = sys.argv[1:5]
    sys.path.insert(0, src)
    import coxq.cli  # noqa: F401  (the import is what is timed)

    write_configs(make_calls(workload, int(seed)), out_dir)
    print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
