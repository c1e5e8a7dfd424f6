#!/usr/bin/env python3
"""Run the acceptance suite and show the per-criterion PASS lines.

The package is imported from src/ of this checkout, installed or not: the
pytest settings in pyproject.toml put src/ on the path.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    argv = [sys.executable, "-m", "pytest", "tests/test_acceptance.py", "-v", "-s"]
    sys.exit(subprocess.call(argv, cwd=ROOT))
