"""Every per-layer metric that BENCHMARK.json names stays measurable.

bench/tracer.py wraps the package's public layer functions by name and reads
work counts from their arguments (for example the `n` of classical.portrait).
When such a function, or the argument a count reads, goes away, a traced
benchmark run reports the metric as absent.  This test runs one small call
per subcommand under the tracer and checks that no named metric is lost.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np

from kickedtop import cli, symspace
from kickedtop.symspace import BlochPoint

from conftest import expectations_of

ROOT = Path(__file__).resolve().parent.parent
# Metrics the benchmark harness computes itself, without a traced function.
HARNESS_METRICS = {"cli.bytes_written", "symspace.SymState.per_kick"}


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_inputs(tmp_path):
    populations = tmp_path / "populations.csv"
    populations.write_text(
        "step," + ",".join(f"p{i:03b}" for i in range(8)) + "\n0," + ",".join(["0.125"] * 8) + "\n"
    )
    u = symspace.floquet(1.5, 0.5)
    psi = symspace.coherent_state(1.5, BlochPoint(0.0, 0.0))
    lines = ["step,label,value"]
    for step in (0, 2):
        vec = symspace.symmetric_to_qubits(symspace.evolve(u, psi, step))
        for label, value in expectations_of(np.outer(vec, vec.conj())).items():
            lines.append(f"{step},{label},{value!r}")
    expectations = tmp_path / "expectations.csv"
    expectations.write_text("\n".join(lines) + "\n")
    return populations, expectations


def test_traced_metric_names_are_available(tmp_path):
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    populations, expectations = write_inputs(tmp_path)
    calls = [
        ["evolve", "--qubits", "3", "--kappa0", "1.3", "--state", "1.1,0.4", "--steps", "20"],
        ["evolve", "--qubits", "4", "--kappa0", "1.3", "--state", "zero", "--steps", "20"],
        ["sweep", "--qubits", "3", "--state", "zero", "--kicks", "20", "--kappa0-list", "0.5,1.5"],
        ["tunnel", "--kappa0", "0.1", "--times", "0,10,1000"],
        ["husimi", "--qubits", "4", "--state", "plus_y", "--kappa0", "0.1", "--steps", "3",
         "--n-theta", "5", "--n-phi", "7"],
        ["classical", "--kappa0", "2.5", "--steps", "20", "--seeds", "fixed_point;period4", "--grid", "2"],
        ["tomo", "--populations", str(populations), "--readout", "bundled"],
        ["tomo", "--expectations", str(expectations), "--kappa0", "0.5", "--state", "zero"],
    ]
    tracer = load_tracer_module().Tracer()
    tracer.install()
    try:
        for i, argv in enumerate(calls):
            assert cli.main([*argv, "--out", str(tmp_path / f"out{i}")]) == 0, argv
    finally:
        tracer.uninstall()
    lost = [
        name for name in names
        if name not in HARNESS_METRICS and not name.startswith("trace.") and not tracer.available(name)
    ]
    assert lost == []
    totals = tracer.pass_totals()
    assert totals["classical.map_steps"] == 6 * 20  # two named and four grid seeds, 20 steps
    assert totals.get("cheby.recurrence_steps", 0) == 0  # no runtime caller of the recurrence
    # the kicks each evolve call requests, however it computes U^n: husimi
    # --steps 3, and tomo's theory states at steps 0 and 2
    assert totals["symspace.evolve.calls"] == 3
    assert totals["symspace.evolve.kicks"] == 3 + 0 + 2
