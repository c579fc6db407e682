"""Set-up probe: run one workload's set-up in a fresh interpreter, then say so.

Usage: python3 bench/probe.py WORKLOAD

The parent times from starting this process to reading the ``ready`` line.
"""

import sys

from workloads import WORKLOADS

WORKLOADS[sys.argv[1]]().setup()
print("ready", flush=True)
