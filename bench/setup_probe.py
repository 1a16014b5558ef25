"""Set-up cost of one workload in a fresh process: ``import wtd`` plus one
warm-up pass of every entry point the workload times.

    python3 bench/setup_probe.py <workload> <scratch dir>

``bench/run.py`` times this process from spawn to exit; it expects
``PYTHONPATH`` to point at the checkout's ``src`` and the BLAS thread count
to be set in the environment.
"""

import sys

import wtd  # noqa: F401 - the import is part of what is measured

import workloads

if __name__ == "__main__":
    workloads.warm_up(sys.argv[1], sys.argv[2])
