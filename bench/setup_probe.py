"""Time one cold set-up in a fresh interpreter and print it in seconds.

Set-up is importing mecoff from the given source directory, then loading
and validating a workload config, as `mecoff sweep` does before its first
solve. Usage: python3 setup_probe.py <src dir> <config file>
"""

import sys
from time import perf_counter

start = perf_counter()
sys.path.insert(0, sys.argv[1])
from mecoff.scenario import load_config  # noqa: E402

load_config(sys.argv[2]).validate()
print(repr(perf_counter() - start))
