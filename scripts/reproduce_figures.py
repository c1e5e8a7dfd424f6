#!/usr/bin/env python3
"""Regenerate every figure-class dataset as CSV/JSON under an output directory.

Usage:
    python3 scripts/reproduce_figures.py [--outdir out]

The files are plain tables (see README for column layouts); point any plotting
tool at them.  Everything is deterministic, so reruns are byte-identical.
"""

import argparse
import math
import sys
from pathlib import Path

from kickedtop.cli import main as cli


def run(args):
    code = cli([str(a) for a in args])
    if code != 0:
        raise SystemExit(f"command failed ({code}): {args}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out")
    parser.add_argument("--kicks", type=int, default=1000, help="sweep averaging horizon")
    opts = parser.parse_args()
    out = Path(opts.outdir)
    out.mkdir(parents=True, exist_ok=True)

    # classical phase portraits: regular and mixed regimes
    for kappa0, tag in ((0.5, "regular"), (2.5, "mixed")):
        run(["classical", "--kappa0", kappa0, "--steps", 500,
             "--seeds", "fixed_point;period4", "--grid", 12,
             "--out", out / f"classical_{tag}.csv"])

    # entanglement time series, closed form vs numerics
    for kappa0 in (0.1, 0.4, 0.8, 1.2, 2.5, 1.5 * math.pi):
        tag = f"{kappa0:.4f}".rstrip("0").rstrip(".").replace(".", "p")
        run(["evolve", "--qubits", 3, "--kappa0", kappa0, "--steps", 60,
             "--state", "zero", "--out", out / f"evolve_3q_zero_k{tag}.csv"])
        run(["evolve", "--qubits", 3, "--kappa0", kappa0, "--steps", 60,
             "--state", "plus_y", "--out", out / f"evolve_3q_plusy_k{tag}.csv"])
        run(["evolve", "--qubits", 4, "--kappa0", kappa0, "--steps", 60,
             "--state", "zero", "--out", out / f"evolve_4q_zero_k{tag}.csv"])
        run(["evolve", "--qubits", 4, "--kappa0", kappa0, "--steps", 60,
             "--state", "plus_y", "--out", out / f"evolve_4q_plusy_k{tag}.csv"])

    # time-averaged entropy sweeps (closed-form columns where they exist)
    for qubits in (3, 4):
        for state in ("zero", "plus_y"):
            run(["sweep", "--qubits", qubits, "--state", state,
                 "--kicks", opts.kicks, "--kappa0-start", 0.05,
                 "--kappa0-stop", 4.0 * math.pi, "--kappa0-steps", 120,
                 "--out", out / f"sweep_{qubits}q_{state}.csv"])

    # larger spins: emergence of the classical trend (normalized averages)
    for qubits in (7, 20):
        run(["sweep", "--qubits", qubits, "--state", "plus_y" if qubits == 7 else "zero",
             "--kicks", opts.kicks, "--kappa0-start", 0.2, "--kappa0-stop", 6.0,
             "--kappa0-steps", 30,
             "--out", out / f"sweep_{qubits}q_large.csv"])

    # Husimi grids of the parity-adapted basis states
    for name in ("phi1_plus", "phi1_minus", "phi2_plus", "phi2_minus"):
        run(["husimi", "--qubits", 3, "--basis-state", name,
             "--out", out / f"husimi_3q_{name}.csv"])
    for name in ("phi1_plus", "phi1_minus", "phi2_plus", "phi2_minus", "phi3_plus"):
        run(["husimi", "--qubits", 4, "--basis-state", name,
             "--out", out / f"husimi_4q_{name}.csv"])

    # dynamical tunneling report and the slow +y/-y oscillation
    run(["tunnel", "--kappa0", 0.1, "--out", out / "tunnel_k0p1.json"])

    # tunneling snapshots: +y packet at start, mid-tunneling (GHZ-like), and
    # fully tunneled onto -y
    from kickedtop.exact4 import tunneling

    n_star = int(round(tunneling(0.1).n_star))
    for n, tag in ((0, "start"), (n_star // 2, "half"), (n_star, "full")):
        cmd = ["husimi", "--qubits", 4, "--state", "plus_y",
               "--out", out / f"husimi_tunnel_{tag}.csv"]
        if n:
            cmd += ["--kappa0", 0.1, "--steps", n]
        run(cmd)

    print(f"wrote figure datasets to {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
