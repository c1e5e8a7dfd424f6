"""Command-line front end: evolve | sweep | tunnel | husimi | classical | tomo.

Every command writes CSV (UTF-8, '.' decimal separator, full double precision)
or JSON and is deterministic given its flags, so reruns are byte-identical.
Flags may also be supplied through a JSON config file (--config); explicit
flags win on conflict.  Exit codes: 0 success, 2 validation error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import classical as cl
from . import exact3, exact4, husimi, measures, symspace, tomo

NAMED_STATES = {
    "zero": (0.0, 0.0),
    "plus_y": (math.pi / 2.0, -math.pi / 2.0),
    "minus_y": (math.pi / 2.0, math.pi / 2.0),
}


# A sweep steps a chunk of kappa0 points together in blocks of SWEEP_BLOCK_KICKS
# kicks; a block holds at most SWEEP_BLOCK_AMPS amplitudes (one point for
# 2j+1 > 64, where stacking stops paying off), and one floquet call builds at
# most SWEEP_FLOQUET_ENTRIES entries, so memory is bounded in --kicks and grid.
SWEEP_BLOCK_KICKS = 512
SWEEP_BLOCK_AMPS = 2**16
SWEEP_FLOQUET_ENTRIES = 2**17
# Largest tunnel time: kick counts above 2**53 are not exact as doubles.
MAX_TUNNEL_TIME = 2**53
# Table rows formatted per % operation in _write_table; formatting a whole
# table at once holds all of its text and raised the figures peak RSS by 14%.
TABLE_BLOCK_ROWS = 4096


class CliError(Exception):
    """Validation failure: reported on stderr with exit code 2."""


def _write_table(path: str, columns: dict[str, np.ndarray]) -> None:
    """CSV with one header line; each cell is "%.17g" of the value as a double.

    Rows are formatted TABLE_BLOCK_ROWS at a time with one % operation per
    block, so the formatted text held at once stays bounded in the row count.
    """
    table = np.column_stack([np.asarray(col, dtype=float) for col in columns.values()])
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for start in range(0, table.shape[0], TABLE_BLOCK_ROWS):
            block = table[start : start + TABLE_BLOCK_ROWS]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def _parse_state(spec: str) -> tuple[str | None, symspace.BlochPoint]:
    """Named state or explicit 'theta,phi' angles -> (name-or-None, point)."""
    spec = spec.strip()
    if spec in NAMED_STATES:
        theta, phi = NAMED_STATES[spec]
        return spec, symspace.BlochPoint(theta, phi)
    parts = spec.split(",")
    if len(parts) != 2:
        raise CliError(
            f"state must be one of {sorted(NAMED_STATES)} or 'theta,phi', got {spec!r}"
        )
    try:
        theta, phi = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise CliError(f"could not parse state angles {spec!r}") from exc
    try:
        return None, symspace.BlochPoint(theta, phi)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CliError(message)


def _closed_entropy_series(
    two_j: int, name: str | None, point: symspace.BlochPoint, kappa0: float, n_max: int
) -> np.ndarray | None:
    if two_j == 3:
        if name == "zero":
            return exact3.entropy3_series(exact3.STATE_ZERO, n_max, kappa0)
        if name == "plus_y":
            return exact3.entropy3_series(exact3.STATE_PLUS_Y, n_max, kappa0)
        out = exact3.general_entropy3_series(exact3.GeneralState3.from_bloch(point), n_max, kappa0)
        out[0] = 0.0  # a coherent state is a product state
        return out
    if two_j == 4 and name is not None:
        state_id = exact3.STATE_ZERO if name == "zero" else exact3.STATE_PLUS_Y
        return exact4.entropy4_series(state_id, n_max, kappa0)
    return None


def _closed_concurrence_series(
    two_j: int, name: str | None, kappa0: float, n_max: int
) -> np.ndarray | None:
    if two_j == 3 and name == "zero":
        return exact3.concurrence3_series(n_max, kappa0)
    return None


def _closed_avg_entropy(two_j: int, name: str | None, kappa0: float) -> float | None:
    if name is None:
        return None
    state_id = exact3.STATE_ZERO if name == "zero" else exact3.STATE_PLUS_Y
    if two_j == 3:
        return exact3.avg_entropy3(state_id, kappa0).value
    if two_j == 4:
        return exact4.avg_entropy4(state_id, kappa0).value
    return None


def _numeric_series(two_j: int, point, kappa0: float, n_max: int):
    params = symspace.KickedTopParams(j=two_j / 2.0, kappa0=kappa0)
    # the state first: it rejects a 2j too large before floquet builds the matrix
    psi0 = symspace.coherent_state(params.j, point)
    u = symspace.floquet(params)
    return measures.entanglement_series(u, psi0, n_max)


def cmd_evolve(args) -> int:
    _require(args.qubits >= 1, "--qubits must be >= 1")
    _require(args.steps >= 1, "--steps must be >= 1")
    name, point = _parse_state(args.state)
    entropies, concurrences = _numeric_series(args.qubits, point, args.kappa0, args.steps)
    columns: dict[str, np.ndarray] = {
        "n": np.arange(args.steps + 1),
        "S_numeric": entropies,
    }
    s_closed = _closed_entropy_series(args.qubits, name, point, args.kappa0, args.steps)
    if s_closed is not None:
        columns["S_closed"] = s_closed
    if args.qubits >= 2:
        columns["C_numeric"] = concurrences
    c_closed = _closed_concurrence_series(args.qubits, name, args.kappa0, args.steps)
    if c_closed is not None:
        columns["C_closed"] = c_closed
    if s_closed is None:
        print(
            f"warning: no closed-form entropy for {args.qubits} qubits, state {args.state!r};"
            " closed-form columns omitted",
            file=sys.stderr,
        )
    _write_table(args.out, columns)
    return 0


def _sweep_averages(two_j: int, point, grid: list[float], kicks: int) -> np.ndarray:
    """Mean single-qubit linear entropy over kicks 1..kicks for each kappa0 of
    the grid, from one floquet call per SWEEP_FLOQUET_ENTRIES matrix entries."""
    j = two_j / 2.0
    psi = symspace.coherent_state(j, point)  # before floquet, as in _numeric_series
    per_floquet = max(1, SWEEP_FLOQUET_ENTRIES // (two_j + 1) ** 2)
    totals = []
    for first in range(0, len(grid), per_floquet):
        params = [symspace.KickedTopParams(j=j, kappa0=k) for k in grid[first : first + per_floquet]]
        totals.append(_sweep_totals(symspace.floquet(params), psi.amps, kicks))
    return np.concatenate(totals) / kicks


def _sweep_totals(stack: symspace.UnitaryMatrix, start: np.ndarray, kicks: int) -> np.ndarray:
    """Single-qubit linear entropy summed over kicks 1..kicks from `start` for
    each operator of a Floquet stack, per point and block by block in kick
    order, so no sum depends on the chunk its point is stepped in."""
    per_chunk = max(1, SWEEP_BLOCK_AMPS // (SWEEP_BLOCK_KICKS * stack.dim))
    totals = np.zeros(len(stack.matrix))
    for lo in range(0, len(totals), per_chunk):
        u = stack[lo : lo + per_chunk]
        amps = np.tile(start, (len(u.matrix), 1))
        for first_kick in range(0, kicks, SWEEP_BLOCK_KICKS):
            states = symspace.trajectory(u, amps, min(SWEEP_BLOCK_KICKS, kicks - first_kick))
            for i in range(len(amps)):
                entropies = measures.linear_entropy(measures.reduced_states(states[1:, i], 1))
                totals[lo + i] += entropies.sum()
            amps = states[-1].copy()
            del states  # free this block before the next one is allocated
    return totals


def cmd_sweep(args) -> int:
    _require(args.qubits >= 2, "--qubits must be >= 2")
    _require(args.kicks >= 1, "--kicks must be >= 1")
    name, point = _parse_state(args.state)
    if args.kappa0_list:
        try:
            grid = [float(tok) for tok in args.kappa0_list.split(",")]
        except ValueError as exc:
            raise CliError(f"bad --kappa0-list {args.kappa0_list!r}") from exc
    else:
        _require(args.kappa0_steps >= 1, "--kappa0-steps must be >= 1")
        _require(math.isfinite(args.kappa0_stop - args.kappa0_start),  # NaN, inf and overflow
                 "--kappa0-start and --kappa0-stop must be finite, a finite distance apart")
        grid = list(np.linspace(args.kappa0_start, args.kappa0_stop, args.kappa0_steps))
    averages = _sweep_averages(args.qubits, point, grid, args.kicks)
    columns: dict[str, np.ndarray] = {
        "kappa0": np.array(grid),
        "S_avg_numeric": averages,
    }
    closed = [_closed_avg_entropy(args.qubits, name, k) for k in grid]
    if all(v is not None for v in closed):
        columns["S_avg_closed"] = np.array(closed)
    columns["S_rmt_normalized"] = averages / measures.rmt_average(args.qubits)
    _write_table(args.out, columns)
    return 0


def cmd_tunnel(args) -> int:
    _require(args.kappa0 > 0, "--kappa0 must be > 0 for the tunneling analysis")
    report = exact4.tunneling(args.kappa0)
    _require(
        math.isfinite(report.n_star) and math.isfinite(report.n_star_asymptotic),
        f"--kappa0 {args.kappa0!r} is too small: the tunneling time is not a finite number",
    )
    if args.times:
        try:
            times = [int(tok) for tok in args.times.split(",")]
        except ValueError as exc:
            raise CliError(f"bad --times {args.times!r}") from exc
        _require(all(t >= 0 for t in times), "--times must be non-negative")
        _require(all(t <= MAX_TUNNEL_TIME for t in times), "--times entries must be <= 2**53")
    else:
        horizon = max(2, int(round(2.0 * report.n_star)))
        _require(
            horizon <= MAX_TUNNEL_TIME,
            f"--kappa0 {args.kappa0!r} is too small: the default horizon 2 n_star = {horizon}"
            " exceeds 2**53 kicks; pass --times",
        )
        times = sorted({int(t) for t in np.linspace(0, horizon, 257)})
    overlaps = exact4.tunneling_overlap_series(args.kappa0, times)
    ghz = exact4.ghz_fidelity_series(args.kappa0, times)
    payload = {
        "kappa0": report.kappa0,
        "gamma_minus": report.gamma_minus,
        "splitting": report.splitting,
        "n_star": report.n_star,
        "n_star_asymptotic": report.n_star_asymptotic,
        "ghz_time": report.ghz_time,
        "overlap_series": {
            "times": list(times),
            "minus_y_overlap": [float(v) for v in overlaps],
            "ghz_fidelity": [float(v) for v in ghz],
        },
    }
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def cmd_husimi(args) -> int:
    _require(args.qubits >= 1, "--qubits must be >= 1")
    _require(args.n_theta >= 2 and args.n_phi >= 2, "grid must be at least 2x2")
    j = args.qubits / 2.0
    if args.basis_state:
        table = exact3.parity_basis_states3() if args.qubits == 3 else (
            exact4.parity_basis_states4() if args.qubits == 4 else None
        )
        _require(table is not None, "--basis-state requires 3 or 4 qubits")
        _require(
            args.basis_state in table,
            f"unknown basis state {args.basis_state!r}; choose from {sorted(table)}",
        )
        psi = symspace.SymState(j, table[args.basis_state])
    else:
        _, point = _parse_state(args.state)
        psi = symspace.coherent_state(j, point)
    if args.steps:
        # snapshots of evolved states, e.g. mid-tunneling configurations
        _require(args.steps >= 1, "--steps must be >= 1")
        _require(args.kappa0 is not None, "--steps requires --kappa0")
        u = symspace.floquet(symspace.KickedTopParams(j=j, kappa0=args.kappa0))
        psi = symspace.evolve(u, psi, args.steps)
    grid = husimi.husimi_grid(psi, n_theta=args.n_theta, n_phi=args.n_phi)
    theta_col = np.repeat(grid.thetas, grid.n_phi)
    phi_col = np.tile(grid.phis, grid.n_theta)
    _write_table(
        args.out,
        {"theta": theta_col, "phi": phi_col, "value": grid.values.ravel()},
    )
    return 0


def _parse_seeds(spec: str) -> list[cl.ClassicalPoint]:
    seeds = []
    for token in spec.split(";"):
        token = token.strip()
        if not token:
            continue
        if token == "fixed_point":
            seeds.append(cl.FIXED_POINT)
        elif token == "period4":
            seeds.append(cl.PERIOD4_POINT)
        else:
            parts = token.split(",")
            if len(parts) != 3:
                raise CliError(f"seed must be 'x,y,z' or a named seed, got {token!r}")
            try:
                x, y, z = (float(v) for v in parts)
            except ValueError as exc:
                raise CliError(f"could not parse seed {token!r}") from exc
            try:
                seeds.append(cl.ClassicalPoint(x, y, z))
            except ValueError as exc:
                raise CliError(str(exc)) from exc
    return seeds


def cmd_classical(args) -> int:
    _require(args.steps >= 1, "--steps must be >= 1")
    seeds = _parse_seeds(args.seeds) if args.seeds else []
    if args.grid:
        _require(args.grid >= 1, "--grid must be >= 1")
        thetas = np.linspace(0.15, math.pi - 0.15, args.grid)
        phis = np.linspace(-math.pi + 0.1, math.pi - 0.1, args.grid)
        for theta in thetas:
            for phi in phis:
                seeds.append(cl.ClassicalPoint.from_angles(theta, phi))
    if args.random_seeds:
        _require(args.random_seeds >= 1, "--random-seeds must be >= 1")
        rng = np.random.default_rng(args.seed)
        for vec in rng.standard_normal((args.random_seeds, 3)):
            vec /= np.linalg.norm(vec)
            seeds.append(cl.ClassicalPoint(*vec))
    _require(bool(seeds), "no seeds given; use --seeds, --grid and/or --random-seeds")
    rows = cl.portrait(seeds, args.kappa0, args.steps)
    _write_table(
        args.out,
        {
            "seed_index": rows[:, 0],
            "iteration": rows[:, 1],
            "X": rows[:, 2],
            "Y": rows[:, 3],
            "Z": rows[:, 4],
        },
    )
    return 0


def _theory_register_states(kappa0: float, point, steps: list[int]) -> list[np.ndarray]:
    """Register density matrices of U^step psi0, one evolve call per step."""
    u = symspace.floquet(symspace.KickedTopParams(j=1.5, kappa0=kappa0))
    psi0 = symspace.coherent_state(1.5, point)
    vecs = [symspace.symmetric_to_qubits(symspace.evolve(u, psi0, step)) for step in steps]
    return [np.outer(vec, vec.conj()) for vec in vecs]


def cmd_tomo(args) -> int:
    _require(
        bool(args.populations) != bool(args.expectations),
        "give exactly one of --populations or --expectations",
    )
    if args.populations:
        _require(bool(args.readout), "--populations requires --readout (path or 'bundled')")
        model = (
            tomo.bundled_readout_model()
            if args.readout == "bundled"
            else tomo.ReadoutModel.from_json(args.readout)
        )
        rows = tomo.read_populations_csv(args.populations)
        steps = np.array([s for s, _ in rows], dtype=float)
        corrected = np.array([tomo.correct_populations(model, p) for _, p in rows])
        corrected = corrected.reshape(-1, 8)  # a header-only CSV gives an empty 1-D array
        columns = {"step": steps}
        for i in range(8):
            columns[f"p{i:03b}"] = corrected[:, i]
        _write_table(args.out, columns)
        return 0
    _require(args.kappa0 is not None, "--expectations requires --kappa0 for the theory state")
    _, point = _parse_state(args.state)
    tables = tomo.read_expectations_csv(args.expectations)
    steps = sorted(tables)
    theory = _theory_register_states(args.kappa0, point, steps)
    out = {"step": [], "fidelity": [], "mean_linear_entropy": [], "mean_concurrence": []}
    for step, rho_t in zip(steps, theory):
        metrics = tomo.pipeline_metrics(tomo.reconstruct(tables[step]), rho_t)
        out["step"].append(float(step))
        out["fidelity"].append(metrics.fidelity)
        out["mean_linear_entropy"].append(metrics.mean_linear_entropy)
        out["mean_concurrence"].append(metrics.mean_concurrence)
    _write_table(args.out, {k: np.array(v) for k, v in out.items()})
    return 0


_DEFAULTS = {
    "evolve": {"qubits": 3, "state": "zero", "steps": 40},
    "sweep": {
        "qubits": 3,
        "state": "zero",
        "kicks": 1000,
        "kappa0_start": 0.1,
        "kappa0_stop": 4.5,
        "kappa0_steps": 45,
    },
    "tunnel": {},
    "husimi": {"qubits": 3, "state": "zero", "n_theta": 101, "n_phi": 201},
    "classical": {"steps": 200, "seeds": "fixed_point;period4"},
    "tomo": {"state": "zero"},
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kickedtop",
        description="Kicked-top simulation lab: time series, sweeps, tunneling, "
        "Husimi grids, classical portraits, tomography post-processing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", required=True, help="output file path")
        p.add_argument("--config", help="JSON file with flag defaults (flags win)")
        p.add_argument("--seed", type=int, default=0, help="RNG seed for stochastic options")

    p = sub.add_parser("evolve", help="entanglement time series, numeric vs closed form")
    add_common(p)
    p.add_argument("--qubits", type=int, default=None, help="number of qubits (2j)")
    p.add_argument("--kappa0", type=float, required=True)
    p.add_argument("--state", default=None, help="zero | plus_y | minus_y | 'theta,phi'")
    p.add_argument("--steps", type=int, default=None, help="number of kicks")

    p = sub.add_parser("sweep", help="time-averaged entropy over a kappa0 grid")
    add_common(p)
    p.add_argument("--qubits", type=int, default=None)
    p.add_argument("--state", default=None)
    p.add_argument("--kicks", type=int, default=None, help="averaging horizon N")
    p.add_argument("--kappa0-start", dest="kappa0_start", type=float, default=None)
    p.add_argument("--kappa0-stop", dest="kappa0_stop", type=float, default=None)
    p.add_argument("--kappa0-steps", dest="kappa0_steps", type=int, default=None)
    p.add_argument("--kappa0-list", dest="kappa0_list", default=None, help="comma list, overrides the range")

    p = sub.add_parser("tunnel", help="tunneling report and overlap series (4 qubits)")
    add_common(p)
    p.add_argument("--kappa0", type=float, required=True)
    p.add_argument("--times", default=None, help="comma list of kick counts")

    p = sub.add_parser("husimi", help="coherent-state overlap grid of a state")
    add_common(p)
    p.add_argument("--qubits", type=int, default=None)
    p.add_argument("--state", default=None)
    p.add_argument("--basis-state", dest="basis_state", default=None,
                   help="parity basis state name, e.g. phi2_plus")
    p.add_argument("--kappa0", type=float, default=None, help="torsion for --steps evolution")
    p.add_argument("--steps", type=int, default=None, help="kicks to apply before gridding")
    p.add_argument("--n-theta", dest="n_theta", type=int, default=None)
    p.add_argument("--n-phi", dest="n_phi", type=int, default=None)

    p = sub.add_parser("classical", help="classical map trajectories")
    add_common(p)
    p.add_argument("--kappa0", type=float, required=True)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--seeds", default=None, help="semicolon list: 'x,y,z' | fixed_point | period4")
    p.add_argument("--grid", type=int, default=None, help="add an NxN (theta,phi) seed grid")
    p.add_argument("--random-seeds", dest="random_seeds", type=int, default=None,
                   help="add N uniform random seeds drawn with --seed")

    p = sub.add_parser("tomo", help="readout correction / reconstruction metrics")
    add_common(p)
    p.add_argument("--populations", default=None, help="CSV with columns step,p000..p111")
    p.add_argument("--readout", default=None, help="readout model JSON path or 'bundled'")
    p.add_argument("--expectations", default=None, help="CSV with columns step,label,value")
    p.add_argument("--kappa0", type=float, default=None, help="theory torsion for metrics")
    p.add_argument("--state", default=None, help="theory initial state for metrics")
    return parser


def _apply_config(args) -> None:
    merged = dict(_DEFAULTS.get(args.command, {}))
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise CliError("--config must contain a JSON object")
        merged.update({str(k).replace("-", "_"): v for k, v in loaded.items()})
    for key, value in merged.items():
        if getattr(args, key, None) is None:
            setattr(args, key, value)


_COMMANDS = {
    "evolve": cmd_evolve,
    "sweep": cmd_sweep,
    "tunnel": cmd_tunnel,
    "husimi": cmd_husimi,
    "classical": cmd_classical,
    "tomo": cmd_tomo,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args)
        return _COMMANDS[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
