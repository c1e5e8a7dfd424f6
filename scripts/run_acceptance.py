#!/usr/bin/env python3
"""Run the acceptance suite and show the per-criterion PASS lines.

The package is imported from src/ of this checkout, installed or not.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    sys.exit(
        subprocess.call(
            [sys.executable, "-m", "pytest", "tests/test_acceptance.py", "-v", "-s"],
            cwd=ROOT,
            env=env,
        )
    )
