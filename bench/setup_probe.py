"""Time one cold start in this fresh interpreter.

    PYTHONPATH=src python3 bench/setup_probe.py OUT_PATH CLI_ARG...
        import kickedtop.cli, then make one warm-up call writing OUT_PATH
    python3 bench/setup_probe.py --yardstick
        import numpy and scipy, the package's dependencies, and use them once

Prints {"setup_s": seconds} as JSON; exits nonzero if the call fails.
"""

import contextlib
import io
import json
import sys
import time

start = time.perf_counter()
if sys.argv[1:] == ["--yardstick"]:
    import numpy
    import scipy.linalg
    import scipy.special

    numpy.linalg.eigh(numpy.eye(20))
    scipy.special.gammaln(numpy.arange(1.0, 50.0))
else:
    from kickedtop import cli  # the import is what is being timed

    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([*sys.argv[2:], "--out", sys.argv[1]])
    if code != 0:
        sys.exit(f"warm-up call failed with exit code {code}")
elapsed = time.perf_counter() - start
print(json.dumps({"setup_s": elapsed}))
