import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import kickedtop
from kickedtop import cli, symspace, tomo
from kickedtop.cli import main
from kickedtop.symspace import BlochPoint

from conftest import expectations_of, per_cell_write_table, point_from_angles


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, data


def assert_table_bytes_match(directory, columns):
    """_write_table's bytes equal the per-cell writer's, both as the table's
    length decides and with every column of it typed (no short-table cut)."""
    fast, reference = Path(directory) / "fast.csv", Path(directory) / "reference.csv"
    per_cell_write_table(str(reference), columns)
    cli._write_table(str(fast), columns)
    assert fast.read_bytes() == reference.read_bytes()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "TABLE_TYPED_MIN_ROWS", 0)
        cli._write_table(str(fast), columns)
    assert fast.read_bytes() == reference.read_bytes()


def float_bits(bits):
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


# raw float64 bit patterns, every NaN payload, subnormal and signed zero included
FLOAT_BITS = st.integers(0, 2**64 - 1)

POPULATIONS_HEADER = "step," + ",".join(f"p{i:03b}" for i in range(8))


class TestWriteTable:
    EDGE_VALUES = np.array([
        np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
        1.7976931348623157e308, -1.7976931348623157e308, 1.0, -3.0, 0.1, 1.0 / 3.0, 1e16,
        123456789012345678.0,
    ])

    def test_edge_values_and_integer_columns(self, tmp_path):
        v = self.EDGE_VALUES
        assert_table_bytes_match(tmp_path, {
            "value": v,
            "reversed": v[::-1],
            "n": np.arange(v.size),
            "big_int": np.arange(v.size, dtype=np.int64) * (2**53 + 1),
            "integer_valued": np.arange(v.size, dtype=float) * 1e6,
        })

    def test_one_column(self, tmp_path):
        assert_table_bytes_match(tmp_path, {"only": self.EDGE_VALUES})
        assert (tmp_path / "fast.csv").read_text().splitlines()[:5] == [
            "only", "nan", "inf", "-inf", "-0"]

    INTEGER_EDGES = [-(2.0**53) - 2, -(2.0**53) + 2, 2.0**53 - 2, 2.0**53 + 2, 1e16 - 2, -1e16 + 2,
                     0.0, 1.0, -1.0]

    @pytest.mark.parametrize("offset", [None, -1, 0, 1, cli.TABLE_BLOCK_ROWS + 3])
    def test_block_boundaries(self, tmp_path, offset, monkeypatch):
        rows = 1 if offset is None else cli.TABLE_BLOCK_ROWS + offset
        self.assert_typed_where_long(tmp_path, rows, monkeypatch)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_short_table_cut(self, tmp_path, offset, monkeypatch):
        self.assert_typed_where_long(tmp_path, cli.TABLE_TYPED_MIN_ROWS + offset, monkeypatch)

    @staticmethod
    def assert_typed_where_long(tmp_path, rows, monkeypatch):
        # one column per dispatch path, each typed only from the cut up
        rng = np.random.default_rng(rows)
        few = np.array([np.nan, 0.0, -0.0, 0.1, 1000000000000000.25])
        table = np.column_stack([rng.standard_normal(rows), few[rng.integers(0, few.size, rows)]])
        columns = {
            "i": np.arange(rows), "x": table[:, 0], "few": table[:, 1],  # strided views, as portrait's
            "y": rng.random(rows) * 1e-300, "big": rng.integers(-2**62, 2**62, rows).astype(float),
        }
        formats = []
        original = cli._cell_format

        def recorded(col):
            spec, convert = original(col)
            formats.append(spec)
            return spec, convert

        monkeypatch.setattr(cli, "_cell_format", recorded)
        cli._write_table(str(tmp_path / "fast.csv"), columns)
        typed = rows >= cli.TABLE_TYPED_MIN_ROWS
        assert formats == (["%d", "%.17g", "%s", "%.17g", "%.17g"] if typed else [])
        assert_table_bytes_match(tmp_path, columns)
        assert len((tmp_path / "fast.csv").read_text().splitlines()) == rows + 1

    def test_zero_rows_is_header_only(self, tmp_path):
        assert_table_bytes_match(tmp_path, {"a": np.array([]), "b": np.array([])})
        assert (tmp_path / "fast.csv").read_bytes() == b"a,b\n"

    @pytest.mark.parametrize("column,spec", [
        (INTEGER_EDGES, "%d"),
        (INTEGER_EDGES + [-0.0], "%s"),  # "%d" would write -0.0 as "0"
        (INTEGER_EDGES + [1e16], "%s"),
        (INTEGER_EDGES + [2.0**63, -(2.0**63)], "%s"),  # past int64
        (INTEGER_EDGES + [0.5], "%s"),
        ([np.nan, 0.0, -0.0], "%s"),
        ([np.inf, 1.0, -np.inf], "%s"),
        ([1000000000000000.25, 0.1, 1.0 / 3.0], "%s"),  # 17-digit tie: "1000000000000000.2"
    ])
    def test_integer_edges_and_repeated_values(self, tmp_path, column, spec):
        for repeat, expected in ((1, "%d" if spec == "%d" else "%.17g"), (5, spec)):
            values = np.tile(column, repeat)
            assert cli._cell_format(values)[0] == expected
            assert_table_bytes_match(tmp_path, {"v": values, "n": np.arange(values.size)})
        if column[0] == 1000000000000000.25:
            assert "\n1000000000000000.2,0\n" in (tmp_path / "fast.csv").read_text()

    @given(hnp.arrays(np.float64, st.tuples(st.integers(0, 40), st.integers(1, 5))))
    @settings(max_examples=150, deadline=None)
    def test_matches_per_cell_writer(self, table):
        columns = {f"c{i}": table[:, i] for i in range(table.shape[1])}
        with tempfile.TemporaryDirectory() as directory:
            assert_table_bytes_match(directory, columns)

    @given(hnp.arrays(np.uint64, st.tuples(st.integers(0, 40), st.integers(1, 4)), elements=FLOAT_BITS))
    @settings(max_examples=150, deadline=None)
    def test_raw_bit_patterns(self, bits):
        columns = {f"c{i}": float_bits(bits[:, i]) for i in range(bits.shape[1])}
        with tempfile.TemporaryDirectory() as directory:
            assert_table_bytes_match(directory, columns)

    @given(
        st.one_of(
            st.lists(st.one_of(FLOAT_BITS.map(lambda b: float(float_bits(b))), st.sampled_from(
                [np.nan, 0.0, -0.0, 1.0, 1000000000000000.25, np.inf])), min_size=1, max_size=5),
            st.lists(st.one_of(st.integers(-(2**53), 2**53).map(float), st.sampled_from(
                INTEGER_EDGES + [-0.0, 1e16, -1e16, 2.0**63, -(2.0**63)])), min_size=1, max_size=5),
        ),
        st.lists(st.integers(0, 4), max_size=60),
    )
    @settings(max_examples=100, deadline=None)
    def test_columns_of_few_values(self, pool, picks):
        column = np.array(pool)[np.array(picks, dtype=int) % len(pool)]
        with tempfile.TemporaryDirectory() as directory:
            assert_table_bytes_match(directory, {"few": column, "index": np.arange(column.size)})


def mixed_table(rows):
    """An integer, a spliced (few distinct values) and two plain columns."""
    rng = np.random.default_rng(rows)
    few = np.array([np.nan, -0.0, 0.1, 1e300])
    return {"i": np.arange(rows), "few": few[rng.integers(0, few.size, rows)],
            "x": rng.standard_normal(rows), "tiny": rng.random(rows) * 1e-300}


# A table the size of the figures workload's classical portraits: 146 seeds
# of 501 iterations, 219 438 "%.17g" cells in 18 blocks.
PORTRAIT_ARGV = ["classical", "--kappa0", "2.5", "--steps", "500", "--seeds",
                 "fixed_point;period4", "--grid", "12"]


def assert_no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def workers(monkeypatch):
    """Set the number of processes that format each table."""
    return lambda count: monkeypatch.setattr(cli, "_table_workers", lambda blocks, cells: count)


class TestForkedTableWriter:
    """A large table's blocks are dealt round-robin to forked workers; the
    bytes do not depend on how many, and every worker is reaped."""

    @pytest.mark.parametrize("offset", [(1, -1), (1, 1), (2, 0), (4, 3)],
                             ids=["block-1", "block+1", "2blocks", "4blocks+3"])
    def test_bytes_do_not_depend_on_the_worker_count(self, offset, tmp_path, workers):
        blocks, extra = offset
        columns = mixed_table(blocks * cli.TABLE_BLOCK_ROWS + extra)
        reference, out = tmp_path / "reference.csv", tmp_path / "out.csv"
        per_cell_write_table(str(reference), columns)
        for count in (1, 2, 3, 4):
            workers(count)
            out.write_bytes(OLD_TEXT * 100)
            cli._write_table(str(out), columns)
            assert out.read_bytes() == reference.read_bytes(), count
            assert_no_children_left()

    def test_worker_count(self):
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        portrait = 146 * 501 * 3
        assert cli._table_workers(18, portrait) == min(cpus, portrait // cli.TABLE_PARALLEL_MIN_CELLS)
        assert cli._table_workers(1, 10**9) == 1  # one block
        assert cli._table_workers(100, 2 * cli.TABLE_PARALLEL_MIN_CELLS - 1) == 1
        assert cli._table_workers(100, 10**9) == cpus

    @pytest.mark.parametrize("argv", [
        # every table of the sweep and large_spin workloads, and figures' Husimi grids,
        # whose cheap spliced cells do not repay a fork
        ["sweep", "--qubits", "20", "--kicks", "1000", "--kappa0-list", "1.1,2.2"],
        ["sweep", "--qubits", "200", "--kicks", "300", "--kappa0-list", "1.1,2.2,3.3"],
        ["evolve", "--qubits", "200", "--kappa0", "1.1", "--steps", "300"],
        ["evolve", "--qubits", "4", "--kappa0", "1.1", "--state", "zero", "--steps", "1000"],
        ["husimi", "--qubits", "4", "--state", "plus_y", "--n-theta", "101", "--n-phi", "201"],
    ], ids=["sweep", "sweep_200", "evolve_200", "evolve_4", "husimi"])
    def test_small_tables_never_fork(self, argv, tmp_path, monkeypatch):
        def refuse():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", refuse)
        assert main([*argv, "--out", str(tmp_path / "out.csv")]) == 0

    def test_portrait_forks_where_cpus_allow(self, tmp_path, monkeypatch):
        forks = []
        fork = os.fork

        def counted():
            forks.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counted)
        assert main([*PORTRAIT_ARGV, "--out", str(tmp_path / "out.csv")]) == 0
        assert len(forks) == cli._table_workers(18, 146 * 501 * 3) - 1
        assert_no_children_left()

    def test_another_thread_keeps_one_process(self, tmp_path, monkeypatch):
        # a forked child would hold only the forking thread (Python 3.12 warns)
        import threading
        import warnings

        columns = mixed_table(4 * cli.TABLE_BLOCK_ROWS + 3)
        reference, out = tmp_path / "reference.csv", tmp_path / "out.csv"
        per_cell_write_table(str(reference), columns)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
                warnings.simplefilter("error")
                patch.setattr(cli, "TABLE_PARALLEL_MIN_CELLS", 1)
                patch.setattr(os, "fork", lambda: pytest.fail("forked beside a thread"))
                assert cli._table_workers(5, 10**9) == 1
                cli._write_table(str(out), columns)
        finally:
            stop.set()
            thread.join()
        assert out.read_bytes() == reference.read_bytes()
        monkeypatch.setattr(cli, "TABLE_PARALLEL_MIN_CELLS", 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cli._write_table(str(out), columns)
        assert out.read_bytes() == reference.read_bytes()
        assert_no_children_left()

    @pytest.mark.parametrize("error,code,message", [
        (MemoryError, 2, "error: out of memory: "),
        (ValueError, 3, "i/o error: "),
    ])
    def test_failed_child_exits_cleanly(self, error, code, message, tmp_path, capsys, monkeypatch,
                                        workers):
        def fail(fd, data):
            raise error("in the child")

        workers(2)
        monkeypatch.setattr(cli, "_send", fail)  # only the children send
        assert main([*PORTRAIT_ARGV, "--out", str(tmp_path / "out.csv")]) == code
        err = capsys.readouterr().err
        assert err.startswith(message) and "Traceback" not in err
        assert_no_children_left()

    def test_full_device_exits_3_and_reaps(self, capsys, workers):
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        workers(3)
        assert main([*PORTRAIT_ARGV, "--out", "/dev/full"]) == 3
        assert capsys.readouterr().err.startswith("i/o error: ")
        assert_no_children_left()

    def test_interrupt_kills_and_reaps(self, tmp_path, monkeypatch, workers):
        def interrupt(fd):
            raise KeyboardInterrupt

        workers(4)
        monkeypatch.setattr(cli, "_receive", interrupt)
        with pytest.raises(KeyboardInterrupt):
            cli._write_table(str(tmp_path / "out.csv"), mixed_table(8 * cli.TABLE_BLOCK_ROWS))
        assert_no_children_left()


# One CSV command and the JSON one: each writes through cli._open_output.
OUTPUT_ARGV = {
    "evolve": ["evolve", "--qubits", "3", "--kappa0", "1.2", "--steps", "5"],
    "tunnel": ["tunnel", "--kappa0", "0.5", "--times", "0,1,2,3"],
}
# Older output text, longer than any new one and made of bytes no new one has.
OLD_TEXT = b"#" * 20000


def write_output(command, out):
    return main([*OUTPUT_ARGV[command], "--out", str(out)])


@pytest.fixture
def fresh_bytes(tmp_path):
    """The bytes a command writes into a new file."""
    def written(command):
        fresh = tmp_path / f"fresh_{command}"
        assert write_output(command, fresh) == 0
        return fresh.read_bytes()
    return written


@pytest.mark.parametrize("command", sorted(OUTPUT_ARGV))
class TestOutputFiles:
    """An output is written over the old file's bytes and then cut to the
    length written; links are written through and special files are not cut."""

    def test_longer_file_is_replaced_and_rerun_is_identical(self, command, tmp_path, fresh_bytes):
        out = tmp_path / "out"
        out.write_bytes(OLD_TEXT)
        assert write_output(command, out) == 0
        assert out.read_bytes() == fresh_bytes(command)
        assert write_output(command, out) == 0
        assert out.read_bytes() == fresh_bytes(command)

    def test_dev_null(self, command):
        assert write_output(command, os.devnull) == 0

    def test_links_are_written_through(self, command, tmp_path, fresh_bytes):
        target, symlink, hard = tmp_path / "target", tmp_path / "symlink", tmp_path / "hard"
        target.write_bytes(OLD_TEXT)
        symlink.symlink_to(target)
        os.link(target, hard)
        assert write_output(command, symlink) == 0
        assert symlink.is_symlink()
        assert target.read_bytes() == hard.read_bytes() == fresh_bytes(command)

    def test_modes_of_existing_and_new_files(self, command, tmp_path):
        out, new, reference = tmp_path / "out", tmp_path / "new", tmp_path / "reference"
        out.write_bytes(OLD_TEXT)
        out.chmod(0o640)
        reference.write_text("")  # a file as open(path, "w") creates it
        assert write_output(command, out) == 0
        assert write_output(command, new) == 0
        assert out.stat().st_mode & 0o777 == 0o640
        assert new.stat().st_mode == reference.stat().st_mode

    def test_failed_write_leaves_a_prefix_and_no_old_tail(self, command, tmp_path, fresh_bytes,
                                                          monkeypatch):
        expected = fresh_bytes(command)
        out = tmp_path / "out"
        out.write_bytes(OLD_TEXT)
        if command == "tunnel":
            dump = json.dump

            def half_then_raise(obj, fh, **kwargs):
                text = io.StringIO()
                dump(obj, text, **kwargs)
                fh.write(text.getvalue()[: len(text.getvalue()) // 2])
                raise ValueError("formatter failed")

            monkeypatch.setattr(json, "dump", half_then_raise)
        else:
            # raise at the first column of the second block of two rows
            columns = expected.splitlines()[0].count(b",") + 1
            converted = []

            def convert(part):
                converted.append(part)
                if len(converted) > columns:
                    raise ValueError("formatter failed")
                return part.tolist()

            monkeypatch.setattr(cli, "TABLE_BLOCK_ROWS", 2)
            monkeypatch.setattr(cli, "_PLAIN_CELLS", ("%.17g", convert))
        assert write_output(command, out) == 2
        written = out.read_bytes()
        assert written and expected.startswith(written) and len(written) < len(expected)
        if command == "evolve":
            assert written.count(b"\n") == 3  # the header and the first block

    @pytest.mark.parametrize("where", ["directory", "missing_parent", "read_only"])
    def test_unwritable_output_exits_3(self, command, where, tmp_path, capsys):
        out = {"directory": tmp_path, "missing_parent": tmp_path / "absent" / "out",
               "read_only": tmp_path / "read_only"}[where]
        if where == "read_only":
            if hasattr(os, "geteuid") and os.geteuid() == 0:
                pytest.skip("root writes files whatever their mode bits")
            out.write_bytes(OLD_TEXT)
            out.chmod(0o444)
        assert write_output(command, out) == 3
        err = capsys.readouterr().err
        assert err.startswith("i/o error:") and "Traceback" not in err
        if where == "read_only":
            assert out.read_bytes() == OLD_TEXT


class TestParserCache:
    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_in_process_calls_match_fresh_processes(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"qubits": 4, "state": "plus_y", "kicks": 30}))
        runs = [
            ["sweep", "--config", str(config), "--kappa0-list", "0.7,2.1"],
            ["evolve", "--kappa0", "1.3", "--steps", "12"],
            ["sweep", "--kappa0-list", "0.7,2.1", "--kicks", "40"],
        ]
        env = dict(os.environ, PYTHONPATH=str(Path(kickedtop.__file__).parents[1]))
        for i, argv in enumerate(runs):
            in_process, fresh = tmp_path / f"in{i}.csv", tmp_path / f"fresh{i}.csv"
            assert main([*argv, "--out", str(in_process)]) == 0
            subprocess.run([sys.executable, "-m", "kickedtop", *argv, "--out", str(fresh)],
                           env=env, check=True)
            assert in_process.read_bytes() == fresh.read_bytes()


class TestNumpyOnlyRuntime:
    def test_cli_runs_without_loading_scipy(self, tmp_path):
        # numpy is the only runtime dependency: a fresh interpreter that runs
        # a command never imports scipy
        script = (
            "import sys\n"
            "from kickedtop import cli\n"
            "code = cli.main(['evolve', '--qubits', '4', '--kappa0', '1.3', '--steps', '5',"
            " '--out', sys.argv[1]])\n"
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(kickedtop.__file__).parents[1]))
        out = tmp_path / "evolve.csv"
        proc = subprocess.run([sys.executable, "-c", script, str(out)], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "0 []"
        assert out.read_text().startswith("n,S_numeric,S_closed,")

    @pytest.mark.parametrize("argv,modules", [
        (["evolve", "--qubits", "50", "--kappa0", "1.0", "--steps", "5"], set()),
        (["evolve", "--qubits", "3", "--state", "zero", "--kappa0", "1.0", "--steps", "5"],
         {"exact3", "cheby"}),
        (["sweep", "--qubits", "7", "--kicks", "10", "--kappa0-list", "1.0"], set()),
        (["sweep", "--qubits", "4", "--state", "plus_y", "--kicks", "10", "--kappa0-list", "1.0"],
         {"exact3", "exact4", "cheby"}),
        (["tunnel", "--kappa0", "0.5", "--times", "0,7"], {"exact3", "exact4", "cheby"}),
        (["husimi", "--qubits", "3", "--n-theta", "3", "--n-phi", "3"], {"husimi"}),
        (["classical", "--kappa0", "1.0", "--steps", "3"], {"classical"}),
        (["tomo", "--populations", "{populations}", "--readout", "bundled"], {"tomo"}),
    ], ids=["evolve_50", "evolve_3_zero", "sweep_7", "sweep_4_plus_y", "tunnel", "husimi",
            "classical", "tomo"])
    def test_a_command_loads_only_the_modules_it_runs(self, argv, modules, tmp_path):
        # a cold start imports and compiles only what its command runs: cli,
        # symspace and measures, and the command's own modules
        populations = tmp_path / "populations.csv"
        populations.write_text(POPULATIONS_HEADER + "\n0" + ",0.125" * 8 + "\n")
        script = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "from kickedtop import cli\n"
            "code = cli.main(sys.argv[2:] + ['--out', sys.argv[1]])\n"
            "print(code, *sorted(set(sys.modules) - before))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(kickedtop.__file__).parents[1]))
        argv = [arg.format(populations=populations) for arg in argv]
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "out"), *argv],
                              env=env, capture_output=True, text=True, check=True)
        code, *added = proc.stdout.split()
        assert code == "0"
        loaded = {name.partition(".")[2] for name in added if name.split(".")[0] == "kickedtop"}
        assert loaded == {"", "cli", "symspace", "measures"} | modules
        if argv[0] in ("evolve", "sweep"):
            assert not set(added) & {"logging", "csv", "json"}


class TestEvolve:
    def test_closed_matches_numeric(self, tmp_path):
        out = tmp_path / "evolve.csv"
        assert main(["evolve", "--qubits", "3", "--kappa0", "1.2", "--steps", "40",
                     "--state", "zero", "--out", str(out)]) == 0
        header, data = read_csv(out)
        assert header == ["n", "S_numeric", "S_closed", "C_numeric", "C_closed"]
        cols = {name: data[:, i] for i, name in enumerate(header)}
        assert np.max(np.abs(cols["S_numeric"] - cols["S_closed"])) < 1e-10
        assert np.max(np.abs(cols["C_numeric"] - cols["C_closed"])) < 1e-10

    def test_zero_torsion_all_zero(self, tmp_path):
        out = tmp_path / "evolve.csv"
        assert main(["evolve", "--qubits", "3", "--kappa0", "0", "--out", str(out)]) == 0
        header, data = read_csv(out)
        s_cols = [i for i, name in enumerate(header) if name.startswith("S_")]
        assert np.max(np.abs(data[:, s_cols])) < 1e-12

    def test_four_qubit_steps_visible(self, tmp_path):
        out = tmp_path / "evolve.csv"
        assert main(["evolve", "--qubits", "4", "--kappa0", "2.5", "--steps", "20",
                     "--state", "zero", "--out", str(out)]) == 0
        header, data = read_csv(out)
        s = data[:, header.index("S_numeric")]
        for m in range(1, 10):
            assert abs(s[2 * m - 1] - s[2 * m]) < 1e-10

    def test_arbitrary_three_qubit_state_has_closed_column(self, tmp_path):
        out = tmp_path / "evolve.csv"
        assert main(["evolve", "--qubits", "3", "--kappa0", "0.9", "--steps", "15",
                     "--state", "0.7,1.2", "--out", str(out)]) == 0
        header, data = read_csv(out)
        i_num, i_cl = header.index("S_numeric"), header.index("S_closed")
        assert np.max(np.abs(data[:, i_num] - data[:, i_cl])) < 1e-10

    @pytest.mark.parametrize("kappa0", [1e6, 1e12, 1e300])
    @pytest.mark.parametrize("state", ["zero", "plus_y", "1.1,0.4"])
    def test_three_qubit_closed_columns_kept_at_huge_kappa0(self, kappa0, state, tmp_path, capsys):
        # floquet's torsion phases are exact multiples of kappa0/3, as in
        # exact3, so the routes agree however large kappa0 is
        out = tmp_path / "evolve.csv"
        assert main(["evolve", "--qubits", "3", f"--kappa0={kappa0!r}", "--state", state,
                     "--steps", "1000", "--out", str(out)]) == 0
        header, data = read_csv(out)
        expected = ["n", "S_numeric", "S_closed", "C_numeric"] + (["C_closed"] if state == "zero" else [])
        assert header == expected
        cols = {name: data[:, i] for i, name in enumerate(header)}
        assert np.max(np.abs(cols["S_numeric"] - cols["S_closed"])) <= 1e-10
        if state == "zero":
            assert np.max(np.abs(cols["C_numeric"] - cols["C_closed"])) <= 1e-10
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("kappa0", [9000.0, -9000.0])
    @pytest.mark.parametrize("state", ["zero", "plus_y"])
    def test_three_qubit_closed_columns_kept_within_the_bound(self, kappa0, state, tmp_path):
        # a large kappa0 of either sign meets the closed-vs-numeric gate
        out = tmp_path / "evolve.csv"
        assert main(["evolve", "--qubits", "3", f"--kappa0={kappa0!r}", "--state", state,
                     "--steps", "50", "--out", str(out)]) == 0
        header, data = read_csv(out)
        cols = {name: data[:, i] for i, name in enumerate(header)}
        assert np.max(np.abs(cols["S_numeric"] - cols["S_closed"])) < 1e-10
        if state == "zero":
            assert np.max(np.abs(cols["C_numeric"] - cols["C_closed"])) < 1e-10

    def test_unsupported_closed_form_warns_not_errors(self, tmp_path, capsys):
        out = tmp_path / "evolve.csv"
        assert main(["evolve", "--qubits", "5", "--kappa0", "1.0", "--steps", "5",
                     "--out", str(out)]) == 0
        header, _ = read_csv(out)
        assert "S_closed" not in header
        assert "warning" in capsys.readouterr().err

    def test_invalid_state_exits_2(self, tmp_path):
        code = main(["evolve", "--qubits", "3", "--kappa0", "1.0",
                     "--state", "up", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    @pytest.mark.parametrize("kappa0", ["0.3", "2.9", "9.43477796076938"])
    def test_minus_y_closed_column_is_plus_y_s(self, kappa0, tmp_path):
        # one closed route per named state: minus_y takes plus_y's closed form
        tables = {}
        for state in ("plus_y", "minus_y"):
            out = tmp_path / f"{state}.csv"
            assert main(["evolve", "--qubits", "3", "--kappa0", kappa0, "--steps", "300",
                         "--state", state, "--out", str(out)]) == 0
            rows = [line.split(",") for line in out.read_text().splitlines()]
            tables[state] = [row[rows[0].index("S_closed")] for row in rows]
        assert tables["minus_y"] == tables["plus_y"]

    def test_deterministic_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["evolve", "--qubits", "4", "--kappa0", "2.5", "--steps", "30", "--state", "plus_y"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestSweep:
    def test_columns_and_closed_agreement(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--qubits", "3", "--state", "zero", "--kicks", "4000",
                     "--kappa0-list", "0.8,1.2,2.5", "--out", str(out)]) == 0
        header, data = read_csv(out)
        assert header == ["kappa0", "S_avg_numeric", "S_avg_closed", "S_rmt_normalized"]
        assert np.max(np.abs(data[:, 1] - data[:, 2])) < 5e-3
        assert np.allclose(data[:, 3], data[:, 1] / (1.0 / 3.0), atol=1e-12)

    @pytest.mark.parametrize("qubits", [3, 4])
    def test_minus_y_rows_match_plus_y(self, qubits, tmp_path):
        tables = {}
        for state in ("plus_y", "minus_y"):
            out = tmp_path / f"{state}.csv"
            assert main(["sweep", "--qubits", str(qubits), "--state", state, "--kicks", "600",
                         "--kappa0-list", "0.7,2.5,5.1", "--out", str(out)]) == 0
            header, tables[state] = read_csv(out)
        cols = {name: i for i, name in enumerate(header)}
        plus, minus = tables["plus_y"], tables["minus_y"]
        assert np.array_equal(minus[:, cols["S_avg_closed"]], plus[:, cols["S_avg_closed"]])
        assert np.max(np.abs(minus[:, cols["S_avg_numeric"]] - plus[:, cols["S_avg_numeric"]])) <= 1e-12

    def test_rerun_is_byte_identical(self, tmp_path):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["sweep", "--qubits", "4", "--state", "plus_y", "--kicks", "1100",
                "--kappa0-list", "0.5,1.5,2.5,3.5"]
        assert main(base + ["--out", str(first)]) == 0
        assert main(base + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        with pytest.raises(SystemExit) as exc:  # the worker pool flag is gone
            main(base + ["--threads", "4", "--out", str(second)])
        assert exc.value.code == 2

    def test_nonpositive_kicks_exits_2(self, tmp_path):
        assert main(["sweep", "--qubits", "3", "--kicks", "0",
                     "--kappa0-list", "1.0", "--out", str(tmp_path / "x.csv")]) == 2

    def test_forty_qubit_sweep_supported(self, tmp_path):
        out = tmp_path / "sweep40.csv"
        assert main(["sweep", "--qubits", "40", "--state", "plus_y", "--kicks", "60",
                     "--kappa0-list", "1.0,3.0", "--out", str(out)]) == 0
        header, data = read_csv(out)
        assert "S_avg_closed" not in header
        assert np.all(data[:, 1] >= 0.0) and np.all(data[:, 1] <= 0.5)

    def test_config_file_defaults_and_flag_override(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"qubits": 3, "state": "zero", "kicks": 200,
                                      "kappa0_list": "1.0,2.0"}))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(config), "--kicks", "100", "--out", str(out)]) == 0
        _, data = read_csv(out)
        assert data.shape[0] == 2  # kappa0 list came from the config
        # flag overrode config: rerun with explicit 100 kicks must be identical
        out2 = tmp_path / "sweep2.csv"
        assert main(["sweep", "--qubits", "3", "--state", "zero", "--kicks", "100",
                     "--kappa0-list", "1.0,2.0", "--out", str(out2)]) == 0
        assert out.read_bytes() == out2.read_bytes()


class TestTunnel:
    def test_report_contents(self, tmp_path):
        out = tmp_path / "tunnel.json"
        assert main(["tunnel", "--kappa0", "0.1", "--times", "0,201030,402061",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert abs(payload["n_star_asymptotic"] - 402124) <= 1.0
        assert payload["overlap_series"]["times"] == [0, 201030, 402061]
        assert payload["overlap_series"]["minus_y_overlap"][2] > 0.95
        assert payload["overlap_series"]["ghz_fidelity"][1] > 0.95

    def test_rejects_nonpositive_kappa0(self, tmp_path):
        assert main(["tunnel", "--kappa0", "-0.5", "--out", str(tmp_path / "x.json")]) == 2

    @pytest.mark.parametrize("kappa0", ["1e-9", "1e-300", "5e-324"])
    def test_tiny_kappa0_exits_cleanly(self, kappa0, tmp_path, capsys):
        out = tmp_path / "tunnel.json"
        code = main(["tunnel", "--kappa0", kappa0, "--out", str(out)])
        err = capsys.readouterr().err
        assert code in (0, 2)
        assert "Traceback" not in err
        if code == 2:
            assert err.startswith("error: ") and not out.exists()

    def test_default_horizon_beyond_2_53_exits_2(self, tmp_path, capsys):
        # n_star(1e-5) is about 4e17 kicks: finite, but its default horizon
        # 2 n_star is past 2**53, where kick counts stop being exact doubles
        assert main(["tunnel", "--kappa0", "1e-5", "--out", str(tmp_path / "x.json")]) == 2
        assert "2**53" in capsys.readouterr().err

    def test_times_beyond_2_53_exit_2(self, tmp_path):
        out = tmp_path / "x.json"
        assert main(["tunnel", "--kappa0", "1e-5", "--times", f"0,{2**53 + 1}",
                     "--out", str(out)]) == 2
        assert main(["tunnel", "--kappa0", "1e-5", "--times", f"0,{2**53}",
                     "--out", str(out)]) == 0


class TestHusimi:
    def test_basis_state_grid(self, tmp_path):
        out = tmp_path / "husimi.csv"
        assert main(["husimi", "--qubits", "3", "--basis-state", "phi2_plus",
                     "--n-theta", "41", "--n-phi", "81", "--out", str(out)]) == 0
        header, data = read_csv(out)
        assert header == ["theta", "phi", "value"]
        assert data.shape == (41 * 81, 3)
        peak = data[np.argmax(data[:, 2])]
        assert peak[0] == pytest.approx(math.pi / 2.0, abs=0.05)
        assert peak[1] == pytest.approx(-math.pi / 2.0, abs=0.05)

    def test_coherent_state_grid(self, tmp_path):
        out = tmp_path / "husimi.csv"
        assert main(["husimi", "--qubits", "4", "--state", "plus_y",
                     "--n-theta", "21", "--n-phi", "41", "--out", str(out)]) == 0
        _, data = read_csv(out)
        assert data[:, 2].max() == pytest.approx(1.0, abs=1e-9)

    def test_unknown_basis_state_exits_2(self, tmp_path):
        assert main(["husimi", "--qubits", "3", "--basis-state", "phi9",
                     "--out", str(tmp_path / "x.csv")]) == 2

    def test_tunneling_snapshot(self, tmp_path):
        # after a full tunneling time the +y packet sits on the -y point
        from kickedtop import exact4

        n_star = int(round(exact4.tunneling(0.1).n_star))
        out = tmp_path / "snapshot.csv"
        assert main(["husimi", "--qubits", "4", "--state", "plus_y",
                     "--kappa0", "0.1", "--steps", str(n_star),
                     "--n-theta", "41", "--n-phi", "81", "--out", str(out)]) == 0
        _, data = read_csv(out)
        peak = data[np.argmax(data[:, 2])]
        assert peak[0] == pytest.approx(math.pi / 2.0, abs=0.05)
        assert peak[1] == pytest.approx(math.pi / 2.0, abs=0.05)

    def test_steps_without_kappa0_exits_2(self, tmp_path):
        assert main(["husimi", "--qubits", "4", "--state", "plus_y", "--steps", "5",
                     "--out", str(tmp_path / "x.csv")]) == 2


class TestClassical:
    def test_named_seeds(self, tmp_path):
        out = tmp_path / "classical.csv"
        assert main(["classical", "--kappa0", "0.5", "--steps", "8",
                     "--seeds", "fixed_point;period4", "--out", str(out)]) == 0
        header, data = read_csv(out)
        assert header == ["seed_index", "iteration", "X", "Y", "Z"]
        assert data.shape == (18, 5)
        fixed = data[data[:, 0] == 0]
        assert np.allclose(fixed[:, 2:], [0.0, -1.0, 0.0], atol=1e-12)
        period4 = data[data[:, 0] == 1]
        assert np.allclose(period4[4, 2:], [0.0, 0.0, 1.0], atol=1e-12)

    def test_explicit_and_grid_seeds(self, tmp_path):
        out = tmp_path / "classical.csv"
        assert main(["classical", "--kappa0", "2.5", "--steps", "5",
                     "--seeds", "0,0,1;0.6,0.8,0", "--grid", "3", "--out", str(out)]) == 0
        _, data = read_csv(out)
        assert data.shape == ((2 + 9) * 6, 5)

    @pytest.mark.parametrize("grid", [1, 2, 12, 37])
    def test_grid_seeds_are_the_per_point_angles(self, grid):
        points = [point_from_angles(theta, phi)
                  for theta in np.linspace(0.15, math.pi - 0.15, grid)
                  for phi in np.linspace(-math.pi + 0.1, math.pi - 0.1, grid)]
        expected = np.array([(p.x, p.y, p.z) for p in points])
        assert cli._grid_seeds(grid).tobytes() == expected.tobytes()

    def test_no_seeds_exits_2(self, tmp_path):
        assert main(["classical", "--kappa0", "1.0", "--seeds", "",
                     "--out", str(tmp_path / "x.csv")]) == 2

    def test_random_seeds_deterministic_given_seed(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["classical", "--kappa0", "2.5", "--steps", "10", "--seeds", "",
                "--random-seeds", "4", "--seed", "99"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        other = tmp_path / "c.csv"
        assert main(["classical", "--kappa0", "2.5", "--steps", "10", "--seeds", "",
                     "--random-seeds", "4", "--seed", "100", "--out", str(other)]) == 0
        assert a.read_bytes() != other.read_bytes()

    def test_seed_from_config_or_default(self, tmp_path):
        # a --config seed is the flag's default, and the default seed is 0
        argv = ["classical", "--kappa0", "2.5", "--steps", "10", "--seeds", "", "--random-seeds", "4"]
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 99}))
        outputs = {}
        for name, extra in [("flag", ["--seed", "99"]), ("config", ["--config", str(config)]),
                            ("zero", ["--seed", "0"]), ("default", [])]:
            outputs[name] = tmp_path / f"{name}.csv"
            assert main([*argv, *extra, "--out", str(outputs[name])]) == 0
        assert outputs["config"].read_bytes() == outputs["flag"].read_bytes()
        assert outputs["default"].read_bytes() == outputs["zero"].read_bytes()
        assert outputs["default"].read_bytes() != outputs["flag"].read_bytes()


class TestTomo:
    def _write_population_fixture(self, tmp_path):
        model = tomo.bundled_readout_model()
        f = model.correction_matrix()
        rng = np.random.default_rng(5)
        true = rng.random((3, 8))
        true /= true.sum(axis=1, keepdims=True)
        measured = true @ f.T
        path = tmp_path / "populations.csv"
        header = "step," + ",".join(f"p{i:03b}" for i in range(8))
        lines = [header]
        for step, row in enumerate(measured):
            lines.append(f"{step}," + ",".join(format(v, ".17g") for v in row))
        path.write_text("\n".join(lines) + "\n")
        return path, true

    def _write_expectation_fixture(self, tmp_path, kappa0=0.5, steps=(0, 1, 2, 3)):
        u = symspace.floquet(1.5, kappa0)
        psi0 = symspace.coherent_state(1.5, BlochPoint(0.0, 0.0))
        lines = ["step,label,value"]
        for step in steps:
            vec = symspace.symmetric_to_qubits(symspace.evolve(u, psi0, step))
            table = expectations_of(np.outer(vec, vec.conj()))
            for label, value in table.items():
                lines.append(f"{step},{label},{format(value, '.17g')}")
        path = tmp_path / "expectations.csv"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_population_correction(self, tmp_path):
        path, true = self._write_population_fixture(tmp_path)
        out = tmp_path / "corrected.csv"
        assert main(["tomo", "--populations", str(path), "--readout", "bundled",
                     "--out", str(out)]) == 0
        _, data = read_csv(out)
        assert np.max(np.abs(data[:, 1:] - true)) < 1e-10

    def test_noiseless_metrics(self, tmp_path):
        path = self._write_expectation_fixture(tmp_path)
        out = tmp_path / "metrics.csv"
        assert main(["tomo", "--expectations", str(path), "--kappa0", "0.5",
                     "--state", "zero", "--out", str(out)]) == 0
        header, data = read_csv(out)
        assert header == ["step", "fidelity", "mean_linear_entropy", "mean_concurrence"]
        assert np.allclose(data[:, 1], 1.0, atol=1e-8)

    def test_unsorted_steps_with_gaps_match_per_step_evolve(self, tmp_path):
        # the table lists steps 7, 0, 3 of another torsion than the theory's,
        # so every metric column carries non-trivial values
        path = self._write_expectation_fixture(tmp_path, kappa0=0.9, steps=(7, 0, 3))
        out = tmp_path / "metrics.csv"
        assert main(["tomo", "--expectations", str(path), "--kappa0", "0.5",
                     "--state", "plus_y", "--out", str(out)]) == 0
        u = symspace.floquet(1.5, 0.5)
        psi0 = symspace.coherent_state(1.5, BlochPoint(math.pi / 2.0, -math.pi / 2.0))
        tables = tomo.read_expectations_csv(path)
        columns = {"step": [], "fidelity": [], "mean_linear_entropy": [], "mean_concurrence": []}
        for step in (0, 3, 7):
            vec = symspace.symmetric_to_qubits(symspace.evolve(u, psi0, step))
            metrics = tomo.pipeline_metrics(tomo.reconstruct(tables[step]), np.outer(vec, vec.conj()))
            columns["step"].append(step)
            columns["fidelity"].append(metrics.fidelity)
            columns["mean_linear_entropy"].append(metrics.mean_linear_entropy)
            columns["mean_concurrence"].append(metrics.mean_concurrence)
        reference = tmp_path / "reference.csv"
        cli._write_table(str(reference), {k: np.array(v) for k, v in columns.items()})
        assert out.read_bytes() == reference.read_bytes()
        assert np.min(read_csv(out)[1][:, 1]) < 0.99

    def test_negative_step_exits_2(self, tmp_path, capsys):
        path = self._write_expectation_fixture(tmp_path, steps=(0, 1))
        path.write_text(path.read_text().replace("\n1,", "\n-1,"))
        assert main(["tomo", "--expectations", str(path), "--kappa0", "0.5",
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_missing_input_exits_3(self, tmp_path):
        assert main(["tomo", "--expectations", str(tmp_path / "absent.csv"),
                     "--kappa0", "0.5", "--out", str(tmp_path / "x.csv")]) == 3

    def test_both_modes_exits_2(self, tmp_path):
        assert main(["tomo", "--populations", "a.csv", "--expectations", "b.csv",
                     "--out", str(tmp_path / "x.csv")]) == 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestEdgeInputs:
    """Inputs that used to end in a traceback, or in numpy warnings, exit 0 or
    2 with a message."""

    def test_header_only_populations(self, tmp_path):
        path = tmp_path / "populations.csv"
        path.write_text("step," + ",".join(f"p{i:03b}" for i in range(8)) + "\n")
        out = tmp_path / "corrected.csv"
        assert main(["tomo", "--populations", str(path), "--readout", "bundled",
                     "--out", str(out)]) == 0
        assert out.read_text() == "step," + ",".join(f"p{i:03b}" for i in range(8)) + "\n"

    def test_overflowing_tunnel_kappa0(self, tmp_path):
        out = tmp_path / "tunnel.json"
        assert main(["tunnel", "--kappa0", "1e308", "--times", "0,1", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["n_star_asymptotic"] == 0.0
        assert math.isfinite(payload["n_star"])
        assert 0.0 <= payload["gamma_minus"] < 2.0 * math.pi
        assert abs(math.pi - payload["gamma_minus"]) == pytest.approx(payload["splitting"], abs=1e-12)

    @pytest.mark.parametrize("qubits, kappa0", [(3, "1e-310"), (3, "2.2250738585072014e-308"),
                                                (4, "1e-307")])
    def test_subnormal_torsion_screens_without_warnings(self, qubits, kappa0, tmp_path):
        # pair states with entries near the smallest double give LU a NaN
        # determinant, which must stay a silent "not certified"
        out = tmp_path / "evolve.csv"
        assert main(["evolve", "--qubits", str(qubits), "--kappa0", kappa0, "--state", "zero",
                     "--steps", "50", "--out", str(out)]) == 0
        header, *rows = out.read_text().splitlines()
        c_numeric = [float(row.split(",")[header.split(",").index("C_numeric")]) for row in rows]
        assert max(c_numeric) <= 1e-12

    @pytest.mark.parametrize("argv", [
        ["evolve", "--qubits", str(symspace.MAX_TWO_J + 1), "--kappa0", "1.0"],
        ["evolve", "--qubits", "100000", "--kappa0", "1.0"],
        ["sweep", "--qubits", str(symspace.MAX_TWO_J + 1), "--kicks", "5", "--kappa0-list", "1.0"],
        ["sweep", "--qubits", "3", "--kicks", "5", "--kappa0-list", "1.0,nan"],
        ["sweep", "--qubits", "3", "--kicks", "5", "--kappa0-list", "inf,1.0"],
        ["sweep", "--qubits", "50", "--kicks", "5", "--kappa0-list", "0.5,2.0,-inf"],
        ["husimi", "--qubits", str(symspace.MAX_TWO_J + 1)],
        ["classical", "--kappa0", "nan"],
        ["classical", "--kappa0", "1.0", "--seeds", "nan,0,0"],
        ["classical", "--kappa0", "1.0", "--seeds", "1e308,0,0"],
        # the torsion phase (kappa0 / 2j) m^2 overflows a double
        ["husimi", "--qubits", "8", "--kappa0", "1e308", "--steps", "5", "--n-theta", "4"],
        ["sweep", "--qubits", "8", "--kicks", "5", "--kappa0-list", "1e308"],
        ["sweep", "--qubits", "3", "--kicks", "5", "--kappa0-start", "nan"],
        ["sweep", "--qubits", "3", "--kicks", "5", "--kappa0-stop", "inf"],
        ["sweep", "--qubits", "3", "--kicks", "5", "--kappa0-start=-1e308", "--kappa0-stop=1e308"],
        # U^n overflows long before 10**30 kicks
        ["husimi", "--qubits", "4", "--state", "plus_y", "--kappa0", "0.1",
         "--steps", str(10**30), "--n-theta", "4"],
        # --steps 0 is a bad kick count, not "no --steps"; --kappa0 is checked
        # whether or not --steps is given
        ["husimi", "--qubits", "3", "--steps", "0", "--kappa0", "nan", "--n-theta", "3", "--n-phi", "3"],
        ["husimi", "--qubits", "3", "--kappa0", "inf", "--n-theta", "3", "--n-phi", "3"],
    ])
    def test_exits_2_with_message(self, argv, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["evolve", "--qubits", "100000", "--kappa0", "1.0"],
        ["sweep", "--qubits", str(symspace.MAX_TWO_J + 1), "--kicks", "5", "--kappa0-list", "1.0"],
        ["husimi", "--qubits", str(symspace.MAX_TWO_J + 1)],
    ])
    def test_size_limit_exits_before_the_rotation(self, argv, tmp_path, capsys, monkeypatch,
                                                  fresh_rotations):
        def refuse(two_j):
            raise AssertionError("the rotation of a 2j past the limit was built")

        monkeypatch.setattr(symspace, "_rotation", refuse)
        out = tmp_path / "out.csv"
        assert main([*argv, "--out", str(out)]) == 2
        assert f"the limit is 2j <= {symspace.MAX_TWO_J}" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_past_the_old_binomial_limit(self, tmp_path):
        # C(1030, 515) overflows a double; the coherent state needs no binomial
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--qubits", "1030", "--kicks", "5", "--kappa0-list", "1.0",
                     "--out", str(out)]) == 0
        header, data = read_csv(out)
        s_avg = data[:, header.index("S_avg_numeric")]
        assert np.all((0.0 < s_avg) & (s_avg <= 0.5))

    @pytest.mark.parametrize("flags,message", [
        (["--steps", "0", "--kappa0", "0.5"], "--steps must be >= 1"),
        (["--kappa0", "inf"], "--kappa0 must be finite"),
        (["--steps", "2", "--kappa0=-inf"], "--kappa0 must be finite"),
    ])
    def test_husimi_steps_and_kappa0(self, flags, message, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main(["husimi", "--qubits", "3", *flags, "--n-theta", "3", "--n-phi", "3",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["evolve", "--kappa0", "1", "--steps", "3"],
        ["sweep", "--kicks", "3", "--kappa0-list", "1"],
        ["tunnel", "--kappa0", "0.1", "--times", "0,1"],
        ["husimi", "--n-theta", "3", "--n-phi", "3"],
        ["tomo", "--populations", "a.csv", "--readout", "bundled"],
    ])
    def test_seed_only_for_classical(self, argv, tmp_path, capsys):
        # only classical --random-seeds draws random numbers; elsewhere --seed
        # is an unknown flag, and a --config key seed names no flag
        out, config = tmp_path / "out.csv", tmp_path / "config.json"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", "1", "--out", str(out)])
        assert exc.value.code == 2
        capsys.readouterr()
        config.write_text(json.dumps({"seed": 1}))
        assert main([*argv, "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --config key 'seed' names no {argv[0]} flag\n"
        assert not out.exists()

    @pytest.mark.parametrize("source", ["--state=plus_y", "--basis-state=phi1_plus"])
    def test_husimi_kappa0_requires_steps(self, source, tmp_path, capsys):
        # --kappa0 only sets the torsion of the --steps evolution
        out = tmp_path / "out.csv"
        assert main(["husimi", "--qubits", "3", source, "--kappa0", "0.5", "--n-theta", "3",
                     "--n-phi", "3", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: --kappa0 requires --steps\n"
        assert not out.exists()

    @pytest.mark.parametrize("key,flag", [("grid", "--grid"), ("random_seeds", "--random-seeds")])
    @pytest.mark.parametrize("count", [0, -1])
    @pytest.mark.parametrize("via_config", [False, True])
    def test_classical_seed_counts(self, key, flag, count, via_config, tmp_path, capsys):
        # a count of 0 is a bad count, not "no seeds of that kind", from a flag or from --config
        out, config = tmp_path / "out.csv", tmp_path / "config.json"
        config.write_text(json.dumps({key: count}))
        given = ["--config", str(config)] if via_config else [f"{flag}={count}"]
        assert main(["classical", "--kappa0", "1", "--steps", "3", "--seeds", "fixed_point",
                     *given, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {flag} must be >= 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv,key,message", [
        (["tunnel", "--kappa0", "1"], "times", "bad --times ''"),
        (["sweep", "--qubits", "3", "--kicks", "5"], "kappa0_list", "bad --kappa0-list ''"),
        (["husimi", "--qubits", "3", "--n-theta", "3", "--n-phi", "3"], "basis_state",
         "unknown basis state ''; choose from ['phi1_minus', 'phi1_plus', 'phi2_minus', 'phi2_plus']"),
    ], ids=["times", "kappa0_list", "basis_state"])
    @pytest.mark.parametrize("via_config", [False, True])
    def test_empty_flag_value(self, argv, key, message, via_config, tmp_path, capsys):
        # an empty value is a bad value, from a flag or from --config; it used to
        # select the default: the 257-time horizon, the 45-point kappa0 range or
        # the zero coherent state
        out, config = tmp_path / "out.csv", tmp_path / "config.json"
        config.write_text(json.dumps({key: ""}))
        given = ["--config", str(config)] if via_config else [f"--{key.replace('_', '-')}="]
        assert main([*argv, *given, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv,config,message", [
        (["evolve", "--kappa0", "1"], {"steps": "10"}, "'steps' must be an integer, got \"10\""),
        (["sweep", "--kappa0-list", "1"], {"kicks": 10.5}, "'kicks' must be an integer, got 10.5"),
        (["sweep", "--kappa0-list", "1"], {"kicks": 10.0}, "'kicks' must be an integer, got 10.0"),
        (["sweep", "--kappa0-list", "1"], {"kicks": True}, "'kicks' must be an integer, got true"),
        (["evolve", "--kappa0", "1"], {"qubits": None}, "'qubits' must be an integer, got null"),
        (["husimi"], {"n-theta": "5"}, "'n_theta' must be an integer, got \"5\""),
        (["evolve", "--kappa0", "1"], {"state": 3}, "'state' must be a string, got 3"),
        (["sweep", "--kicks", "5"], {"kappa0_list": [1.0, 2.0]},
         "'kappa0_list' must be a string, got [1.0, 2.0]"),
        (["sweep", "--kicks", "5"], {"kappa0_start": "0.1"}, "'kappa0_start' must be a number, got \"0.1\""),
        (["sweep", "--kicks", "5"], {"kappa0_stop": False}, "'kappa0_stop' must be a number, got false"),
        (["sweep", "--kicks", "5"], {"kappa0_stop": 10**400}, f"'kappa0_stop' must be a number, got {10**400}"),
    ])
    def test_config_value_types(self, argv, config, message, tmp_path, capsys):
        # a --config value the flag's argparse type would not give exits 2,
        # naming the key, instead of failing later with a TypeError
        out, path = tmp_path / "out.csv", tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main([*argv, "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --config key {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv,config,message", [
        (["evolve", "--kappa0", "1"], {"kicks": 10.5}, "'kicks' names no evolve flag"),
        (["evolve", "--kappa0", "1"], {"step": 10}, "'step' names no evolve flag"),
        (["sweep", "--kicks", "5"], {"qubits": 4, "kappa0-lst": "1"}, "'kappa0_lst' names no sweep flag"),
        (["tunnel", "--kappa0", "0.1"], {"help": "x"}, "'help' names no tunnel flag"),
    ])
    def test_config_unknown_keys(self, argv, config, message, tmp_path, capsys):
        # a misspelled or misplaced key used to be ignored, running the defaults
        out, path = tmp_path / "out.csv", tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main([*argv, "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --config key {message}\n"
        assert not out.exists()

    def test_config_integers_for_number_flags(self, tmp_path):
        # argparse gives 1.0 for --kappa0-start 1; a JSON 1 gives the same bytes
        config, by_config, by_flags = (tmp_path / name for name in ("c.json", "a.csv", "b.csv"))
        config.write_text(json.dumps({"kappa0_start": 1, "kappa0_stop": 2, "kappa0_steps": 3}))
        assert main(["sweep", "--kicks", "5", "--config", str(config), "--out", str(by_config)]) == 0
        assert main(["sweep", "--kicks", "5", "--kappa0-start", "1", "--kappa0-stop", "2",
                     "--kappa0-steps", "3", "--out", str(by_flags)]) == 0
        assert by_config.read_bytes() == by_flags.read_bytes()

    @pytest.mark.parametrize("flag,text", [
        ("--populations", POPULATIONS_HEADER + "\n0,1e308,1e308,-1e308,0,0,0,0,0\n"),
        ("--expectations", "step,label,value\n" + "".join(
            f"{10**30},{label},{value!r}\n"
            for label, value in expectations_of(np.diag([1.0, 0, 0, 0, 0, 0, 0, 0])).items())),
        # rows with missing cells, which csv.DictReader fills with None
        ("--populations", POPULATIONS_HEADER + "\n0,0.125,0.125\n"),
        ("--expectations", "step,label,value\n0,III\n"),
        # readout JSON without f0, not an object, or with scalar fidelities
        ("--readout", '{"f1": [0.9, 0.9, 0.9]}'),
        ("--readout", "[0.9]"),
        ("--readout", '{"f0": 0.9, "f1": 0.9}'),
    ])
    def test_tomo_table_exits_2_with_message(self, flag, text, tmp_path, capsys):
        table, out = tmp_path / "table.csv", tmp_path / "out.csv"
        table.write_text(text)
        if flag == "--readout":
            populations = tmp_path / "populations.csv"
            populations.write_text(POPULATIONS_HEADER + "\n0,1,0,0,0,0,0,0,0\n")
            argv = ["--populations", str(populations), "--readout", str(table)]
        elif flag == "--populations":
            argv = [flag, str(table), "--readout", "bundled"]
        else:
            argv = [flag, str(table), "--kappa0", "0.1"]
        assert main(["tomo", *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


EDGE_FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 0.0, -0.0, -1.3, 1.3,
                     2 * math.pi, 3 * math.pi, 4 * math.pi, 1e6]),
    st.floats(allow_nan=True, allow_infinity=True),
)
EDGE_COUNTS = st.one_of(st.none(), st.integers(-3, 20))
EDGE_STATES = st.sampled_from(["zero", "plus_y", "minus_y", "1.1,0.4", "nan,0", "inf,1", "1e308,0",
                               "-1,0", "0,-1e308", "0,0", "", ",", "1.1"])
# Up to five kappa0 values as a --kappa0-list, or a malformed list.
EDGE_LISTS = st.one_of(
    st.lists(EDGE_FLOATS, max_size=5).map(lambda ks: ",".join(repr(k) for k in ks)),
    st.sampled_from([",", "1.0,", "x", " "]),
)
# Columns that must be finite in every successful run: the closed forms and
# the Husimi values.
FINITE_COLUMNS = ("S_closed", "C_closed", "S_avg_closed", "value")
# Horizons that only binary powering reaches: the norm holds at 10**6, drifts
# past the state tolerance at 10**9, and overflows U^n at 10**30.
LONG_STEPS = st.sampled_from([10**6, 10**9, 10**30])


def run_edge_case(argv):
    """Exit code, stderr and output text (None unless the exit code is 0) of
    one in-process call; argparse's own rejections surface as SystemExit."""
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(stderr):
        out = os.path.join(tmp, "out")
        try:
            code = main([*argv, "--out", out])
        except SystemExit as exc:
            code = exc.code
        text = Path(out).read_text(encoding="utf-8") if code == 0 else None
    return code, stderr.getvalue(), text


def check_edge_case(argv):
    """One edge call exits 0, 2 or 3 without a traceback, and a successful one
    writes finite closed-form columns (the tunnel series included) and
    finite Husimi values.  Returns the output text, None unless it exits 0."""
    code, err, text = run_edge_case(argv)
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    if code != 0:
        return None
    assert text
    if argv[0] == "tunnel":
        series = json.loads(text)["overlap_series"]
        closed = [series["minus_y_overlap"], series["ghz_fidelity"]]
    else:
        header, *rows = text.splitlines()
        names = header.split(",")
        closed = [[float(row.split(",")[names.index(name)]) for row in rows]
                  for name in FINITE_COLUMNS if name in names]
    for column in closed:
        assert np.all(np.isfinite(column))
    return text


class TestEdgeFlagFuzz:
    """Edge flag values for every subcommand exit 0, 2 or 3, never with a
    traceback, and a run that exits 0 writes finite closed-form columns and
    Husimi values; evolve's closed columns are within 1e-10 of the numeric
    ones.  Sizes stay small: at most 50 kicks of a per-kick series,
    5 grid points, 8 qubits, 8 x 8 Husimi grids and tunnel times up to 10**4;
    husimi and tomo snapshots also take LONG_STEPS."""

    @given(
        qubits=st.sampled_from([3, 4]),
        kappa0=EDGE_FLOATS,
        state=EDGE_STATES,
        steps=st.integers(-3, 50),
    )
    @settings(max_examples=150, deadline=None)
    def test_evolve(self, qubits, kappa0, state, steps):
        # wherever a closed column is written it meets the closed-vs-numeric gate
        text = check_edge_case(["evolve", f"--qubits={qubits}", f"--kappa0={kappa0!r}",
                                f"--state={state}", f"--steps={steps}"])
        if text is None:
            return
        header, *rows = text.splitlines()
        names = header.split(",")
        data = np.array([[float(v) for v in row.split(",")] for row in rows])
        for kind in ("S", "C"):
            if f"{kind}_closed" in names:
                closed = data[:, names.index(f"{kind}_closed")]
                numeric = data[:, names.index(f"{kind}_numeric")]
                assert np.max(np.abs(closed - numeric)) <= 1e-10, (kind, kappa0, state)

    @given(
        qubits=st.integers(-1, 8),
        state=EDGE_STATES,
        kicks=st.integers(-2, 50),
        kappa0_list=st.one_of(st.none(), EDGE_LISTS),
        start=EDGE_FLOATS,
        stop=EDGE_FLOATS,
        steps=st.integers(-1, 5),
    )
    @settings(max_examples=100, deadline=None)
    def test_sweep(self, qubits, state, kicks, kappa0_list, start, stop, steps):
        argv = ["sweep", f"--qubits={qubits}", f"--state={state}", f"--kicks={kicks}",
                f"--kappa0-start={start!r}", f"--kappa0-stop={stop!r}", f"--kappa0-steps={steps}"]
        if kappa0_list is not None:
            argv.append(f"--kappa0-list={kappa0_list}")
        check_edge_case(argv)

    @given(
        kappa0=EDGE_FLOATS,
        times=st.one_of(
            st.none(),
            st.lists(st.integers(-3, 10**4), max_size=5).map(lambda ts: ",".join(map(str, ts))),
            st.sampled_from(["nan", "1e308", "-1", "0", ",", "1.5"]),
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_tunnel(self, kappa0, times):
        argv = ["tunnel", f"--kappa0={kappa0!r}"]
        if times is not None:
            argv.append(f"--times={times}")
        check_edge_case(argv)

    @given(
        qubits=st.integers(-1, 8),
        state=EDGE_STATES,
        basis_state=st.sampled_from([None, "", "phi1_plus", "phi2_minus", "phi3_plus", "bogus"]),
        kappa0=st.one_of(st.none(), EDGE_FLOATS),
        steps=st.one_of(st.none(), st.integers(-3, 50), LONG_STEPS),
        n_theta=st.integers(-1, 8),
        n_phi=st.integers(-1, 8),
    )
    @settings(max_examples=100, deadline=None)
    def test_husimi(self, qubits, state, basis_state, kappa0, steps, n_theta, n_phi):
        argv = ["husimi", f"--qubits={qubits}", f"--state={state}", f"--n-theta={n_theta}",
                f"--n-phi={n_phi}"]
        if basis_state is not None:
            argv.append(f"--basis-state={basis_state}")
        if kappa0 is not None:
            argv.append(f"--kappa0={kappa0!r}")
        if steps is not None:
            argv.append(f"--steps={steps}")
        check_edge_case(argv)

    @given(
        kappa0=st.one_of(st.none(), EDGE_FLOATS),
        state=EDGE_STATES,
        steps=st.lists(st.one_of(st.integers(-2, 50), LONG_STEPS), max_size=3),
        bad_value=st.one_of(st.none(), EDGE_FLOATS),
    )
    @settings(max_examples=50, deadline=None)
    def test_tomo_expectations(self, kappa0, state, steps, bad_value):
        expectations = expectations_of(np.diag([1.0, 0, 0, 0, 0, 0, 0, 0]).astype(complex))
        lines = ["step,label,value"]
        for step in steps:
            lines += [f"{step},{label},{value!r}" for label, value in expectations.items()]
        if bad_value is not None and steps:
            lines[-1] = f"{steps[-1]},ZZZ,{bad_value!r}"
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "expectations.csv")
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            argv = ["tomo", f"--expectations={path}", f"--state={state}"]
            if kappa0 is not None:
                argv.append(f"--kappa0={kappa0!r}")
            check_edge_case(argv)

    @given(
        populations=st.lists(
            st.lists(st.one_of(EDGE_FLOATS, st.just(0.125)), min_size=8, max_size=8), max_size=3
        ),
        step=st.integers(-2, 50),
    )
    @settings(max_examples=50, deadline=None)
    def test_tomo_populations(self, populations, step):
        lines = ["step," + ",".join(f"p{i:03b}" for i in range(8))]
        lines += [f"{step}," + ",".join(repr(p) for p in row) for row in populations]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "populations.csv")
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            check_edge_case(["tomo", f"--populations={path}", "--readout=bundled"])

    @pytest.mark.parametrize("argv,limit", [
        # 728 TiB of kappa0 grid: more than any address space holds
        (["sweep", "--qubits", "3", "--kicks", "10", "--kappa0-start", "0", "--kappa0-stop", "1",
          "--kappa0-steps", str(10**14)], None),
        # 17.9 GiB of trajectory and 149 GiB of overlaps, under a 3 GiB limit
        (["evolve", "--qubits", "3", "--kappa0", "1.0", "--steps", str(3 * 10**8)], 3 << 30),
        (["husimi", "--qubits", "3", "--n-theta", str(10**5), "--n-phi", str(10**5)], 3 << 30),
        # 336 GiB of portrait for 9e6 grid seeds, asked for before any seed is stepped
        (["classical", "--kappa0", "1.0", "--steps", "1000", "--grid", "3000"], 3 << 30),
    ], ids=["sweep", "evolve", "husimi", "classical"])
    def test_failed_allocation_exits_2(self, argv, limit, tmp_path):
        # in a child process, whose address-space limit leaves this one's alone;
        # one BLAS thread keeps OpenBLAS's per-thread buffers inside the limit
        env = dict(os.environ, PYTHONPATH=str(Path(kickedtop.__file__).parents[1]),
                   OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-m", "kickedtop", *argv, "--out", str(tmp_path / "out.csv")],
            env=env, capture_output=True, text=True, timeout=60,
            preexec_fn=limit and (lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit))))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: out of memory: Unable to allocate ")

    @given(
        kappa0=EDGE_FLOATS,
        steps=st.integers(-3, 50),
        seeds=st.sampled_from([None, "", ";", "fixed_point", "period4", "0,0,1", "nan,0,0",
                               "inf,0,0", "1e308,0,0", "-1e308,0,0", "0,0,-1", "1,1,1", "0,1",
                               "fixed_point;0,1,0"]),
        grid=EDGE_COUNTS,
        random_seeds=EDGE_COUNTS,
    )
    @settings(max_examples=150, deadline=None)
    def test_classical(self, kappa0, steps, seeds, grid, random_seeds):
        argv = ["classical", f"--kappa0={kappa0!r}", f"--steps={steps}"]
        if seeds is not None:
            argv.append(f"--seeds={seeds}")
        if grid is not None:
            argv.append(f"--grid={grid}")
        if random_seeds is not None:
            argv.append(f"--random-seeds={random_seeds}")
        check_edge_case(argv)
