"""The helper scripts ask the CLI only for what it accepts, and the CSVs they
write keep the "%.17g" byte contract."""

import importlib.util
import sys
from pathlib import Path

import kickedtop.cli

from conftest import per_cell_write_table

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_figure_script():
    spec = importlib.util.spec_from_file_location(
        "reproduce_figures", SCRIPTS / "reproduce_figures.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)  # binds kickedtop.cli.main as it is now
    return script


def test_reproduce_figures_uses_only_accepted_flags(tmp_path, monkeypatch):
    parsed = []

    def parse_only(argv):
        # argparse exits with status 2 on an unknown flag, failing the test
        parsed.append(kickedtop.cli._build_parser().parse_args(argv))
        return 0

    monkeypatch.setattr(kickedtop.cli, "main", parse_only)
    script = load_figure_script()
    monkeypatch.setattr(sys, "argv", ["reproduce_figures.py", "--outdir", str(tmp_path / "out")])
    assert script.main() == 0
    commands = {args.command for args in parsed}
    assert commands == {"classical", "evolve", "sweep", "husimi", "tunnel"}


def test_reproduce_figures_csv_bytes_match_the_per_cell_writer(tmp_path, monkeypatch):
    # every CSV the figure script writes is, byte for byte, the per-cell
    # "%.17g" writer's output for the columns parsed back from it
    out = tmp_path / "out"
    script = load_figure_script()
    monkeypatch.setattr(sys, "argv", ["reproduce_figures.py", "--outdir", str(out), "--kicks", "3"])
    assert script.main() == 0
    tables = sorted(out.glob("*.csv"))
    assert len(tables) == 44 and len(list(out.iterdir())) == 45  # and one tunnel JSON
    reference = tmp_path / "reference.csv"
    for table in tables:
        header, *rows = table.read_text(encoding="utf-8").splitlines()
        columns = zip(*([float(cell) for cell in row.split(",")] for row in rows))
        per_cell_write_table(reference, dict(zip(header.split(","), columns)))
        assert reference.read_bytes() == table.read_bytes(), table.name
