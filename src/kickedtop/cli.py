"""Command-line front end: evolve | sweep | tunnel | husimi | classical | tomo.

Every command writes CSV (UTF-8, '.' decimal separator, full double precision)
or JSON and is deterministic given its flags and the BLAS thread count
(OPENBLAS_NUM_THREADS), so reruns with both the same are byte-identical: a
large rotation's matrix products round by the threads that share them.
evolve writes a closed-form column wherever a closed form exists, at any
finite kappa0: the engine sees the closed forms' torsion (symspace.floquet).
Flags may also be supplied through a JSON config file (--config); explicit
flags win on conflict.  Exit codes: 0 success, 2 validation error or failed
allocation, 3 I/O error.

Only symspace and measures, which every numeric command runs, are imported
with this module; the other package modules are imported in the functions
that use them, so a cold start loads and compiles only what its command runs.

An output is written over the old file's bytes, then cut to the length
written (_open_output), so an existing file is not truncated first; special
files such as /dev/null or a FIFO are written to and never cut.  A command
that fails partway leaves a prefix of its new text, but a run killed
mid-write (SIGKILL, power loss) can leave the old file's tail after the new
rows.

A CSV is formatted TABLE_BLOCK_ROWS rows at a time (_write_table).  A table
with enough "%.17g" cells, TABLE_PARALLEL_MIN_CELLS per process, is dealt
out round-robin, block b to worker b mod w, where worker 0 is this process
and the others are forked children that send their blocks' text back
through pipes; w is at most the usable CPU count and the block count, and 1
without os.fork or while another thread runs.  The blocks are written in
order, so the bytes are the same for every w and every CPU count.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import stat
import sys
import threading

import numpy as np

from . import measures, symspace

NAMED_STATES = {
    "zero": (0.0, 0.0),
    "plus_y": (math.pi / 2.0, -math.pi / 2.0),
    "minus_y": (math.pi / 2.0, math.pi / 2.0),
}


# Largest tunnel time: kick counts above 2**53 are not exact as doubles.
MAX_TUNNEL_TIME = 2**53
# Table rows formatted per % operation in _write_table; formatting a whole
# table at once holds all of its text and raised the figures peak RSS by 14%.
# Each block's cell values are converted from the columns as it is formatted.
TABLE_BLOCK_ROWS = 4096
# _write_table picks a cheaper cell format per column only from this many rows
# up.  The checks cost 20-25 us per column at 256-1024 rows; "%d" saves
# 0.19 us per cell and a spliced repeated value 0.54 us (one Python 3.11
# process on a 2-core Xeon VM), so from 1024 rows one integer column of five
# repays them, and a shorter table keeps "%.17g" throughout.
TABLE_TYPED_MIN_ROWS = 1024
# _write_table gives each process at least this many "%.17g" cells of a
# table (see _table_workers).  Two processes broke even at about 25 000 cells
# (two blocks) and took 0.88, 0.69 and 0.61 of one process's time at 36 864,
# 98 304 and 219 438 cells, the last a classical portrait of the figures
# benchmark (median of 15, with 40 MB of heap, on a 2-core Xeon VM).
TABLE_PARALLEL_MIN_CELLS = 20_000
# "%.17g" writes a whole number below 1e16 in magnitude as its integer digits,
# as "%d" of the value as an int64 does, -0.0 aside ("-0" against "0").
_INTEGER_CELL_LIMIT = 1e16
# A column of fewer than rows / _REPEATED_CELL_SHARE distinct doubles has each
# distinct value formatted once.  Measured break-even, 20 000 rows of 17-digit
# doubles: about rows / 2 distinct values; at rows / 4 the column takes 0.66 of
# the plain "%.17g" time.
_REPEATED_CELL_SHARE = 4
_PLAIN_CELLS = ("%.17g", np.ndarray.tolist)


class CliError(Exception):
    """Validation failure: reported on stderr with exit code 2."""


@contextlib.contextmanager
def _open_output(path: str):
    """The UTF-8 text file of one output, with Unix line ends, written over
    its old bytes and cut to the length written when the block ends.

    Truncating on open costs more when the file exists: ext4 (under its
    default auto_da_alloc) flushes a file truncated to zero and rewritten
    when it is closed.  A 3-row CSV rewritten back to back took 82 us that
    way and 18 us in place (median of 200, Python 3.11, ext4 on a 2-core
    Xeon VM).  The cut is made even when a write raises, so no byte of the
    old text is left past the new.  A special file (/dev/null, a FIFO) is
    not cut, and a symlink is written through: the file keeps its mode,
    owner and hard links.
    """
    flags = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)  # no O_TRUNC
    with open(path, "w", encoding="utf-8", newline="\n",
              opener=lambda name, _: os.open(name, flags, 0o666)) as fh:
        try:
            yield fh
        finally:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()


def _write_table(path: str, columns: dict[str, np.ndarray]) -> None:
    """CSV with one header line; each cell is "%.17g" of the value as a double.

    The bytes are always those of "%.17g"; how a cell gets there is chosen per
    column from its values, in tables of TABLE_TYPED_MIN_ROWS rows or more:
    - whole numbers below 1e16 in magnitude, with no -0.0: "%d" of the int64
    - fewer than rows / _REPEATED_CELL_SHARE distinct values (told apart by
      their bits, so 0.0 and -0.0 stay apart): each value formatted once with
      "%.17g", and its text spliced in with "%s"
    - any other column: "%.17g" per cell.
    Rows are formatted TABLE_BLOCK_ROWS at a time with one % operation per
    block, so the formatted text held at once stays bounded in the row count.

    A large table is formatted by w processes: w is at most the usable CPU
    count, the block count and the "%.17g" cells over
    TABLE_PARALLEL_MIN_CELLS (_table_workers).  Block b goes to worker
    b mod w, worker 0 being this process and the others forked children,
    each of which sends its blocks' text through its own pipe.  This process
    writes its own blocks and copies the children's into the file in block
    order (_write_blocks), so each process holds one block of text at a
    time, no temporary file is written, and the bytes do not depend on w.
    The column formats are chosen once, here, before any fork.
    """
    data = [np.asarray(col, dtype=float) for col in columns.values()]
    rows = len(data[0])
    typed = [_cell_format(col) if rows >= TABLE_TYPED_MIN_ROWS else _PLAIN_CELLS for col in data]
    row = ",".join(spec for spec, _ in typed) + "\n"

    def block(start: int) -> str:
        stop = min(rows, start + TABLE_BLOCK_ROWS)
        cells = [None] * ((stop - start) * len(data))
        for i, (col, (_, convert)) in enumerate(zip(data, typed)):
            cells[i :: len(data)] = convert(col[start:stop])
        return (row * (stop - start)) % tuple(cells)

    starts = range(0, rows, TABLE_BLOCK_ROWS)
    workers = _table_workers(len(starts), rows * sum(spec == "%.17g" for spec, _ in typed))
    with _open_output(path) as fh:
        fh.write(",".join(columns) + "\n")
        _write_blocks(fh, starts, block, workers)


def _table_workers(blocks: int, plain_cells: int) -> int:
    """Processes that format a table of this many blocks and "%.17g" cells:
    at most one per usable CPU and per block, and each with at least
    TABLE_PARALLEL_MIN_CELLS plain cells ("%d" and spliced cells are too
    cheap to repay a fork).

    One (no fork) where os.fork does not exist or while another Python thread
    runs: a forked child would hold only the forking thread, and Python 3.12
    warns of that.  The check sees threads of the threading module only, not
    native ones such as BLAS worker threads; OpenBLAS registers a fork
    handler for its own, and the children run no BLAS call."""
    workers = min(blocks, plain_cells // TABLE_PARALLEL_MIN_CELLS)
    if workers <= 1 or not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(cpus or 1, workers)


def _write_blocks(fh, starts: range, block, workers: int) -> None:
    """Write block(start) to fh for each start, in order, formatted by
    `workers` processes: this one formats starts[0::workers], and a forked
    child k formats starts[k::workers] and sends each text through its own
    pipe (_send).  A child leaves only through os._exit (status 2 after a
    MemoryError, 1 after any other failure), so it never returns into the
    caller or flushes a buffer it inherited.

    Every child is reaped before this returns or raises, and killed first
    unless all its blocks arrived, also when a write fails or a
    KeyboardInterrupt arrives.  A child whose pipe ends early, or that exits
    nonzero, raises MemoryError for status 2 and OSError otherwise."""
    pids, pipes = [], []
    failed, complete = None, False
    elsewhere = _other_cpus() if workers > 1 else set()
    try:
        for k in range(1, workers):
            reader, writer = os.pipe()
            pipes.append(os.fdopen(reader, "rb"))
            pid = os.fork()
            if pid == 0:
                _table_child(starts[k::workers], block, writer, pipes, elsewhere)
            os.close(writer)
            pids.append(pid)
        for b, start in enumerate(starts):
            k = b % workers
            text = block(start) if k == 0 else _receive(pipes[k - 1])
            if text is None:
                failed = k - 1
                break
            fh.write(text)
        else:
            complete = True
    finally:
        for pipe in pipes:
            pipe.close()
        codes = [_reap(pid, kill=not complete) for pid in pids]
    if failed is None:
        failed = next((k for k, code in enumerate(codes) if code), None)
    if failed is not None:
        code = codes[failed]
        if code == 2:
            raise MemoryError("a table worker ran out of memory formatting its rows")
        raise OSError(f"a table worker failed (exit status {code}) before sending its rows")


def _other_cpus() -> set[int]:
    """The usable CPUs other than the one this process runs on (field 39 of
    Linux's /proc/self/stat), or an empty set where they are not known."""
    try:
        with open("/proc/self/stat", "rb") as fh:
            cpu = int(fh.read().rpartition(b")")[2].split()[36])
        return os.sched_getaffinity(0) - {cpu}
    except (OSError, ValueError, IndexError, AttributeError):
        return set()


def _table_child(starts, block, writer: int, readers: list, cpus: set[int]) -> None:
    """The body of a forked table worker: it never returns.  It moves itself
    onto `cpus` if any: where the kernel does not balance load between CPUs
    (a cpuset with sched_load_balance 0 does not), a child stays on the CPU
    it was forked on, its parent's, and the two took turns on it."""
    status = 1
    try:
        if cpus:
            with contextlib.suppress(OSError):
                os.sched_setaffinity(0, cpus)
        for reader in readers:
            reader.close()
        with os.fdopen(writer, "wb") as pipe:
            for start in starts:
                _send(pipe, block(start).encode())
        status = 0
    except MemoryError:
        status = 2
    finally:
        os._exit(status)


def _send(pipe, data: bytes) -> None:
    """One block to the parent: its length as 8 bytes, then its bytes."""
    pipe.write(len(data).to_bytes(8, "little"))
    pipe.write(data)


def _receive(pipe) -> str | None:
    """The next block a child sent, or None if its pipe ended first."""
    head = pipe.read(8)
    if len(head) < 8:
        return None
    size = int.from_bytes(head, "little")
    data = pipe.read(size)
    return data.decode() if len(data) == size else None


def _reap(pid: int, kill: bool) -> int:
    """The exit code of a child (minus the signal that ended it), after
    killing it with SIGKILL if asked."""
    if kill:
        import signal

        os.kill(pid, signal.SIGKILL)
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def _cell_format(col: np.ndarray):
    """The % conversion for one column of doubles and the function that turns a
    block of the column into the values that conversion takes."""
    if (np.all(col == np.trunc(col)) and np.all(np.abs(col) < _INTEGER_CELL_LIMIT)
            and not np.any(np.signbit(col[col == 0]))):
        return "%d", lambda part: part.astype(np.int64).tolist()
    bits = np.sort(col.view(np.uint64))  # the one sorted copy
    first = np.empty(bits.size, dtype=bool)
    first[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=first[1:])
    if np.count_nonzero(first) * _REPEATED_CELL_SHARE >= bits.size:
        return _PLAIN_CELLS
    distinct = bits[first]
    text = np.array(["%.17g" % v for v in distinct.view(float).tolist()], dtype=object)
    return "%s", lambda part: text[np.searchsorted(distinct, part.view(np.uint64))].tolist()


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
    two_j: int, name: str | None, psi0: symspace.SymState, kappa0: float, n_max: int
) -> np.ndarray | None:
    kicks = np.arange(n_max + 1)
    if two_j == 3:
        from . import exact3

        if name is not None:
            return exact3.entropy3_closed(_closed_state_id(name), kicks, kappa0)
        out = exact3.general_entropy3(psi0, kicks, kappa0)
        out[0] = 0.0  # a coherent state is a product state
        return out
    if two_j == 4 and name is not None:
        from . import exact4

        return exact4.entropy4_closed(_closed_state_id(name), kicks, kappa0)
    return None


def _closed_concurrence_series(
    two_j: int, name: str | None, kappa0: float, n_max: int
) -> np.ndarray | None:
    if two_j == 3 and name == "zero":
        from . import exact3

        return exact3.concurrence3_000(np.arange(n_max + 1), kappa0)
    return None


def _closed_avg_entropy(two_j: int, name: str | None, kappa0: float) -> float | None:
    if name is None or two_j not in (3, 4):
        return None
    if two_j == 3:
        from . import exact3

        return exact3.avg_entropy3(_closed_state_id(name), kappa0).value
    from . import exact4

    return exact4.avg_entropy4(_closed_state_id(name), kappa0).value


def _closed_state_id(name: str) -> str:
    """The exact3/exact4 state id of a named state."""
    from . import exact3

    # minus_y = R_z(pi) plus_y, R_z(pi) U R_z(pi)^dag = U P^dag, P local: plus_y's entanglement
    return exact3.STATE_ZERO if name == "zero" else exact3.STATE_PLUS_Y


def cmd_evolve(args) -> int:
    _require(args.qubits >= 1, "--qubits must be >= 1")
    _require(args.steps >= 1, "--steps must be >= 1")
    name, point = _parse_state(args.state)
    j = args.qubits / 2.0
    u, psi0 = symspace.floquet(j, args.kappa0), symspace.coherent_state(j, point)
    entropies, concurrences = measures.entanglement_series(u, psi0, args.steps)
    columns: dict[str, np.ndarray] = {
        "n": np.arange(args.steps + 1),
        "S_numeric": entropies,
    }
    s_closed = _closed_entropy_series(args.qubits, name, psi0, args.kappa0, args.steps)
    c_closed = _closed_concurrence_series(args.qubits, name, args.kappa0, args.steps)
    if s_closed is not None:
        columns["S_closed"] = s_closed
    if args.qubits >= 2:
        columns["C_numeric"] = concurrences
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


def cmd_sweep(args) -> int:
    _require(args.qubits >= 2, "--qubits must be >= 2")
    _require(args.kicks >= 1, "--kicks must be >= 1")
    name, point = _parse_state(args.state)
    if args.kappa0_list is not None:
        try:
            grid = [float(tok) for tok in args.kappa0_list.split(",")]
        except ValueError as exc:
            raise CliError(f"bad --kappa0-list {args.kappa0_list!r}") from exc
    else:
        _require(args.kappa0_steps >= 1, "--kappa0-steps must be >= 1")
        _require(math.isfinite(args.kappa0_stop - args.kappa0_start),  # NaN, inf and overflow
                 "--kappa0-start and --kappa0-stop must be finite, a finite distance apart")
        grid = list(np.linspace(args.kappa0_start, args.kappa0_stop, args.kappa0_steps))
    j = args.qubits / 2.0
    u, psi0 = symspace.floquet(j, grid), symspace.coherent_state(j, point)
    averages = measures.mean_entropies(u, psi0, args.kicks)
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
    import json

    from . import exact4

    _require(args.kappa0 > 0, "--kappa0 must be > 0 for the tunneling analysis")
    report = exact4.tunneling(args.kappa0)
    _require(
        math.isfinite(report.n_star) and math.isfinite(report.n_star_asymptotic),
        f"--kappa0 {args.kappa0!r} is too small: the tunneling time is not a finite number",
    )
    if args.times is not None:
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
    with _open_output(args.out) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def cmd_husimi(args) -> int:
    from . import husimi

    _require(args.qubits >= 1, "--qubits must be >= 1")
    _require(args.n_theta >= 2 and args.n_phi >= 2, "grid must be at least 2x2")
    _require(args.kappa0 is None or math.isfinite(args.kappa0), "--kappa0 must be finite")
    _require(args.kappa0 is None or args.steps is not None, "--kappa0 requires --steps")
    j = args.qubits / 2.0
    if args.basis_state is not None:
        from . import exact3, exact4

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
    if args.steps is not None:
        # snapshots of evolved states, e.g. mid-tunneling configurations
        _require(args.steps >= 1, "--steps must be >= 1")
        _require(args.kappa0 is not None, "--steps requires --kappa0")
        u = symspace.floquet(j, args.kappa0)
        psi = symspace.evolve(u, psi, args.steps)
    grid = husimi.husimi_grid(psi, n_theta=args.n_theta, n_phi=args.n_phi)
    theta_col = np.repeat(grid.thetas, grid.n_phi)
    phi_col = np.tile(grid.phis, grid.n_theta)
    _write_table(
        args.out,
        {"theta": theta_col, "phi": phi_col, "value": grid.values.ravel()},
    )
    return 0


def _parse_seeds(spec: str) -> list:
    """The classical.ClassicalPoint seeds of a --seeds list."""
    from . import classical as cl

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


def _grid_seeds(grid: int) -> np.ndarray:
    """The (grid^2, 3) points (sin theta cos phi, sin theta sin phi,
    cos theta) of the --grid seeds, theta-major: math.sin and math.cos are
    taken once per angle and multiplied per point, so each point has the
    bits of the same expressions evaluated with math per point."""
    thetas = np.linspace(0.15, math.pi - 0.15, grid).tolist()
    phis = np.linspace(-math.pi + 0.1, math.pi - 0.1, grid).tolist()
    sin_theta = np.array([math.sin(t) for t in thetas])[:, None]
    points = np.empty((grid, grid, 3))
    points[:, :, 0] = sin_theta * np.array([math.cos(p) for p in phis])
    points[:, :, 1] = sin_theta * np.array([math.sin(p) for p in phis])
    points[:, :, 2] = np.array([math.cos(t) for t in thetas])[:, None]
    return points.reshape(-1, 3)


def cmd_classical(args) -> int:
    from . import classical as cl

    _require(args.steps >= 1, "--steps must be >= 1")
    named = _parse_seeds(args.seeds) if args.seeds else []
    parts = [np.array([(p.x, p.y, p.z) for p in named]).reshape(-1, 3)]
    if args.grid is not None:
        _require(args.grid >= 1, "--grid must be >= 1")
        parts.append(_grid_seeds(args.grid))
    if args.random_seeds is not None:
        _require(args.random_seeds >= 1, "--random-seeds must be >= 1")
        vecs = np.random.default_rng(args.seed).standard_normal((args.random_seeds, 3))
        # each row over its np.linalg.norm, bit for bit: both take the dot product
        parts.append(vecs / np.sqrt(np.vecdot(vecs, vecs))[:, None])
    seeds = np.concatenate(parts)
    _require(len(seeds) > 0, "no seeds given; use --seeds, --grid and/or --random-seeds")
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


def _theory_register_states(kappa0: float, point, steps: list[int]) -> np.ndarray:
    """(len(steps), 8, 8) register density matrices of U^step psi0, one
    evolve call per step."""
    u = symspace.floquet(1.5, kappa0)
    psi0 = symspace.coherent_state(1.5, point)
    vecs = [symspace.symmetric_to_qubits(symspace.evolve(u, psi0, step)) for step in steps]
    return np.array([np.outer(vec, vec.conj()) for vec in vecs]).reshape(-1, 8, 8)


def cmd_tomo(args) -> int:
    from . import tomo

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
    measured = np.array([tomo.reconstruct(tables[step]) for step in steps]).reshape(-1, 8, 8)
    metrics = tomo.pipeline_metrics(measured, theory)
    _write_table(args.out, {
        "step": np.array(steps, dtype=float),
        "fidelity": np.array([m.fidelity for m in metrics]),
        "mean_linear_entropy": np.array([m.mean_linear_entropy for m in metrics]),
        "mean_concurrence": np.array([m.mean_concurrence for m in metrics]),
    })
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
    "classical": {"steps": 200, "seeds": "fixed_point;period4", "seed": 0},
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
    p.add_argument("--seed", type=int, default=None, help="RNG seed for --random-seeds")

    p = sub.add_parser("tomo", help="readout correction / reconstruction metrics")
    add_common(p)
    p.add_argument("--populations", default=None, help="CSV with columns step,p000..p111")
    p.add_argument("--readout", default=None, help="readout model JSON path or 'bundled'")
    p.add_argument("--expectations", default=None, help="CSV with columns step,label,value")
    p.add_argument("--kappa0", type=float, default=None, help="theory torsion for metrics")
    p.add_argument("--state", default=None, help="theory initial state for metrics")
    return parser


_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string"}


def _config_value(key: str, value, kind: type):
    """A --config value as the flag's argparse type gives it from text: an
    int for an int flag, a float for a float flag (JSON integers convert), a
    string for a str flag.  Booleans, null and any other JSON type are
    rejected."""
    if not isinstance(value, bool):
        if kind is float and isinstance(value, (int, float)):
            try:
                return float(value)
            except OverflowError:
                pass
        elif isinstance(value, kind):
            return value
    import json

    raise CliError(f"--config key {key!r} must be {_TYPE_NAMES[kind]}, got {json.dumps(value)}")


def _apply_config(args) -> None:
    merged = dict(_DEFAULTS.get(args.command, {}))
    if args.config:
        import json

        with open(args.config, encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise CliError("--config must contain a JSON object")
        commands = next(a for a in _build_parser()._actions if a.dest == "command")
        flags = commands.choices[args.command]._actions
        kinds = {a.dest: a.type or str for a in flags if a.nargs != 0}  # not --help
        for key, value in loaded.items():
            key = str(key).replace("-", "_")
            if key not in kinds:
                raise CliError(f"--config key {key!r} names no {args.command} flag")
            merged[key] = _config_value(key, value, kinds[key])
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
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's message names the size asked for
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
