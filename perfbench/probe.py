"""Time gcf's set-up in a fresh interpreter and print it in seconds.

Usage: python3 probe.py SRC_DIR GCF_ARGS...

Set-up is importing gcf.cli, parsing the arguments, and loading and
validating the config, up to the first call into a flow run or a verify
suite.  That call is replaced by a stub that records the time and stops
the command, so nothing is stepped or written.
"""

import sys
from time import perf_counter

t0 = perf_counter()
sys.path.insert(0, sys.argv[1])
import gcf.cli  # noqa: E402
import gcf.flow  # noqa: E402

reached = []


class Reached(BaseException):
    pass


def stop(*args, **kwargs):
    reached.append(perf_counter())
    raise Reached


for mod in (gcf.cli, gcf.flow):
    if hasattr(mod, "run"):
        mod.run = stop
for key in list(gcf.cli.SUITES):
    gcf.cli.SUITES[key] = stop

try:
    gcf.cli.main(sys.argv[2:])
except Reached:
    pass
if not reached:
    sys.exit("probe: the command finished without reaching a run or a suite")
print(reached[0] - t0)
