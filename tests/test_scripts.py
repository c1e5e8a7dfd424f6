"""The helper scripts only ask the CLI for what it accepts."""

import importlib.util
import sys
from pathlib import Path

import kickedtop.cli

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_reproduce_figures_uses_only_accepted_flags(tmp_path, monkeypatch):
    parsed = []

    def parse_only(argv):
        # argparse exits with status 2 on an unknown flag, failing the test
        parsed.append(kickedtop.cli._build_parser().parse_args(argv))
        return 0

    monkeypatch.setattr(kickedtop.cli, "main", parse_only)
    spec = importlib.util.spec_from_file_location(
        "reproduce_figures", SCRIPTS / "reproduce_figures.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(sys, "argv", ["reproduce_figures.py", "--outdir", str(tmp_path / "out")])
    assert script.main() == 0
    commands = {args.command for args in parsed}
    assert commands == {"classical", "evolve", "sweep", "husimi", "tunnel"}
