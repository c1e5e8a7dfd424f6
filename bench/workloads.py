"""Seeded operation lists of the benchmark's workloads.

One pass of a workload is a fixed list of kickedtop CLI invocations.  The seed
draws every kappa0 list, initial state and synthetic tomography table; sizes,
horizons and operation counts do not depend on it, so every seed asks for the
same amount of work.  The package receives only the generated arguments and
input files.

Kicks requested per invocation: sweep = kappa0 points x --kicks, evolve and
husimi = --steps, classical = seeds x --steps, tunnel = the largest requested
time, tomo = the sum of the theory steps of the expectation table.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

NAMED_STATES = {"zero": (0.0, 0.0), "plus_y": (math.pi / 2.0, -math.pi / 2.0)}


@dataclass
class Op:
    command: str
    argv: list[str]  # full CLI argument list, --out included
    out: Path
    kicks: int
    check: dict  # what oracle.check needs


@dataclass
class Workload:
    name: str
    ops: list[Op]
    warmup: list[str]  # small seed-independent call, --out excluded
    yardstick: Callable[[], object]  # frozen reference work that paces the host (run.py)
    yardstick_ref_s: float  # its time on the reference host in its fast phase

    @property
    def kicks_per_pass(self) -> int:
        return sum(op.kicks for op in self.ops)


def _num(x) -> str:
    return repr(float(x))  # shortest string that parses back to the same double


class _Builder:
    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.ops: list[Op] = []

    def state(self, kind: str) -> tuple[str, tuple[float, float]]:
        if kind in NAMED_STATES:
            return kind, NAMED_STATES[kind]
        theta = float(self.rng.uniform(0.2, math.pi - 0.2))
        phi = float(self.rng.uniform(-math.pi + 0.2, math.pi - 0.2))
        return f"{_num(theta)},{_num(phi)}", (theta, phi)

    def add(self, command: str, args: list, kicks: int, check: dict, suffix: str = "csv") -> None:
        out = self.workdir / f"op{len(self.ops):02d}_{command}.{suffix}"
        argv = [command, *(str(a) for a in args), "--out", str(out)]
        self.ops.append(Op(command, argv, out, kicks, check))

    def sweep(self, qubits: int, kind: str, points: int, kicks: int) -> None:
        spec, angles = self.state(kind)
        kappas = [float(k) for k in self.rng.uniform(0.05, 4.0 * math.pi, points)]
        self.add("sweep", ["--qubits", qubits, "--state", spec, "--kicks", kicks,
                           "--kappa0-list", ",".join(_num(k) for k in kappas)],
                 points * kicks,
                 {"qubits": qubits, "angles": angles, "kappas": kappas, "kicks": kicks,
                  "sample": int(self.rng.integers(points))})

    def evolve(self, qubits: int, kind: str, steps: int) -> None:
        spec, angles = self.state(kind)
        kappa0 = float(self.rng.uniform(0.1, 1.5 * math.pi))
        self.add("evolve", ["--qubits", qubits, "--kappa0", _num(kappa0), "--state", spec,
                            "--steps", steps],
                 steps, {"qubits": qubits, "angles": angles, "kappa0": kappa0, "steps": steps})

    def write(self, name: str, text: str) -> Path:
        path = self.workdir / name
        path.write_text(text, encoding="utf-8")
        return path


# Yardsticks: fixed oracle computations with the same mix of small-array
# interpreter work, dense linear algebra and float formatting as the workload.
def _yardstick_sweep():
    oracle.entropy_series(4, 1.1, (0.3, 0.2), 300)
    oracle.entropy_series(20, 1.1, (0.3, 0.2), 300)


def _yardstick_figures():
    oracle.entropy_series(3, 1.1, (0.3, 0.2), 300)
    oracle.entropy_series(50, 1.1, (0.3, 0.2), 40)
    ",".join(format(x, ".17g") for x in np.linspace(0.0, 1.0, 4000))
    t_prev, t_cur = 1.0, 0.3  # scalar interpreter loop, like a Chebyshev recurrence
    for _ in range(20_000):
        t_prev, t_cur = t_cur, 0.6 * t_cur - t_prev


@functools.cache
def _floquet_200() -> tuple[np.ndarray, np.ndarray]:
    u = oracle.dicke_floquet(200, 1.1)
    return u, oracle.coherent_dicke(200, 0.3, 0.2)


def _yardstick_large_spin():
    _yardstick_sweep()
    u, psi = _floquet_200()
    oracle.orbit(u, psi, 100)
    np.linalg.eigvalsh(u + u.conj().T)


def _sweep(b: _Builder) -> str:
    for qubits in (3, 4, 7, 20):
        for kind in ("zero", "plus_y", "general"):
            b.sweep(qubits, kind, points=2, kicks=1000)
    return "sweep --qubits 3 --state zero --kicks 100 --kappa0-list 1.0"


def _large_spin(b: _Builder) -> str:
    for qubits in (50, 100, 200):
        b.sweep(qubits, "zero", points=3, kicks=300)
        b.sweep(qubits, "general", points=3, kicks=300)
        b.evolve(qubits, "plus_y", steps=300)
        b.evolve(qubits, "general", steps=300)
    b.sweep(200, "plus_y", points=3, kicks=300)
    return "evolve --qubits 50 --kappa0 1.0 --state plus_y --steps 20"


def _figures(b: _Builder) -> str:
    rng = b.rng
    for qubits in (3, 4):
        for kind in ("zero", "plus_y", "general"):
            b.evolve(qubits, kind, steps=1000)

    # Tunneling: an explicit time grid keeps the requested horizon seed-independent.
    kappa0 = float(rng.uniform(0.08, 0.12))
    times = sorted({int(round(t)) for t in np.linspace(0, 400_000, 257)})
    b.add("tunnel", ["--kappa0", _num(kappa0), "--times", ",".join(map(str, times))], times[-1],
          {"kappa0": kappa0, "times": times,
           "samples": sorted(int(i) for i in rng.choice(len(times), 2, replace=False))},
          suffix="json")

    n_theta, n_phi = 101, 201
    grid_samples = lambda: sorted(int(i) for i in rng.choice(n_theta * n_phi, 16, replace=False))
    for qubits, count in ((3, 1), (4, 2)):
        names = sorted(oracle.BASIS_STATES[qubits])
        for name in rng.choice(names, count, replace=False):
            b.add("husimi", ["--qubits", qubits, "--basis-state", name], 0,
                  {"qubits": qubits, "basis_state": str(name), "n_theta": n_theta,
                   "n_phi": n_phi, "samples": grid_samples()})
    kappa0 = float(rng.uniform(0.08, 0.12))
    steps = 200_000
    b.add("husimi", ["--qubits", 4, "--state", "plus_y", "--kappa0", _num(kappa0), "--steps", steps],
          steps, {"qubits": 4, "angles": NAMED_STATES["plus_y"], "kappa0": kappa0, "steps": steps,
                  "n_theta": n_theta, "n_phi": n_phi, "samples": grid_samples()})

    steps, grid = 500, 12
    seeds = 2 + grid * grid
    for lo, hi in ((0.3, 0.8), (2.0, 3.0)):  # regular and mixed phase portraits
        kappa0 = float(rng.uniform(lo, hi))
        samples = [int(s) * (steps + 1) + int(k) for s, k in
                   zip(rng.integers(seeds, size=32), rng.integers(steps, size=32))]
        b.add("classical", ["--kappa0", _num(kappa0), "--steps", steps,
                            "--seeds", "fixed_point;period4", "--grid", grid],
              seeds * steps,
              {"kappa0": kappa0, "steps": steps, "seeds": seeds, "samples": samples})

    _tomo_expectations(b)
    _tomo_populations(b)
    return "evolve --qubits 3 --kappa0 1.0 --state zero --steps 100"


def _tomo_expectations(b: _Builder, n_steps: int = 10) -> None:
    """Noisy Pauli tables of depolarized theory states U^n psi0 (reference physics)."""
    rng = b.rng
    kind = str(rng.choice(sorted(NAMED_STATES)))
    kappa0 = float(rng.uniform(0.3, 1.5))
    u = oracle.register_floquet(3, kappa0)
    psi = oracle.product_state(3, *NAMED_STATES[kind])
    paulis = [oracle.pauli_3q(label) for label in oracle.PAULI_LABELS_3Q]
    lines = ["step,label,value"]
    tables = []
    for step in range(n_steps):
        mix = rng.uniform(0.05, 0.15)
        rho = (1.0 - mix) * np.outer(psi, psi.conj()) + mix * np.eye(8) / 8.0
        values = [1.0] + [min(1.0, max(-1.0, np.trace(p @ rho).real + rng.normal(0, 0.02)))
                          for p in paulis[1:]]
        tables.append([float(v) for v in values])
        lines += [f"{step},{label},{_num(v)}" for label, v in zip(oracle.PAULI_LABELS_3Q, values)]
        psi = u @ psi
    table = b.write("expectations.csv", "\n".join(lines) + "\n")
    b.add("tomo", ["--expectations", table, "--kappa0", _num(kappa0), "--state", kind],
          n_steps * (n_steps - 1) // 2,
          {"mode": "expectations", "steps": list(range(n_steps)), "kappa0": kappa0,
           "angles": NAMED_STATES[kind], "tables": tables})


def _tomo_populations(b: _Builder, rows: int = 40) -> None:
    """Populations measured through a seeded per-qubit readout model."""
    rng = b.rng
    f0 = [float(v) for v in rng.uniform(0.88, 0.99, 3)]
    f1 = [float(v) for v in rng.uniform(0.85, 0.97, 3)]
    readout = b.write("readout.json", json.dumps({"f0": f0, "f1": f1}))
    confusion = oracle.confusion_matrix(f0, f1)
    measured = [confusion @ rng.dirichlet(np.ones(8)) for _ in range(rows)]
    lines = ["step," + ",".join(f"p{i:03b}" for i in range(8))]
    lines += [f"{s}," + ",".join(_num(v) for v in p) for s, p in enumerate(measured)]
    table = b.write("populations.csv", "\n".join(lines) + "\n")
    b.add("tomo", ["--populations", table, "--readout", readout], 0,
          {"mode": "populations", "steps": list(range(rows)), "f0": f0, "f1": f1,
           "measured": [[float(v) for v in p] for p in measured]})


# name -> (operation list, yardstick, the yardstick's time in the fast phase of
# the reference host: a 2-core Intel Xeon virtual machine, Python 3.11,
# numpy 2.4, one BLAS thread).  figures and large_spin have odd operation
# counts (15, 13), which put their p50 and p75 ranks inside one operation's
# samples rather than on the edge between two operations of different cost;
# sweep's twelve cost the same.
_BUILDERS = {
    "sweep": (_sweep, _yardstick_sweep, 0.0029),
    "figures": (_figures, _yardstick_figures, 0.0070),
    "large_spin": (_large_spin, _yardstick_large_spin, 0.0092),
}
NAMES = tuple(_BUILDERS)


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the workload's inputs under workdir and return its operation list."""
    workdir.mkdir(parents=True, exist_ok=True)
    b = _Builder(seed, workdir)
    build_ops, yardstick, yardstick_ref_s = _BUILDERS[name]
    warmup = build_ops(b)
    return Workload(name, b.ops, warmup.split(), yardstick, yardstick_ref_s)
