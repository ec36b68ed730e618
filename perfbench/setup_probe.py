"""Time one set-up of krr-regimes in a fresh interpreter.

Usage: python3 setup_probe.py <cli argument>...

Imports the package and makes the given warm-up CLI call, then prints one
JSON line with the elapsed seconds, the exit code and the imported module's
path.  The caller puts the source tree on PYTHONPATH.
"""

import time

T0 = time.perf_counter()

import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402

from krr_regimes import cli  # noqa: E402

with redirect_stdout(io.StringIO()):
    CODE = cli.main(sys.argv[1:])
print(json.dumps({"setup_s": time.perf_counter() - T0, "code": CODE,
                  "module": cli.__file__}))
