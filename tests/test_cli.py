"""Tests for the command-line interface (fast commands only)."""

import gc

import pytest

from repro.cli import main


class TestCli:
    def test_snapshot_command(self, tmp_path, capsys):
        path = tmp_path / "db.json"
        assert main(["snapshot", str(path)]) == 0
        assert path.exists()
        out = capsys.readouterr().out
        assert "wrote" in out
        from repro.db import load_database

        database = load_database(str(path))
        assert database.count("movie") > 0

    def test_incremental_snapshot_command(self, tmp_path, capsys):
        from repro.db import load_incremental

        path = tmp_path / "snap"
        assert main(["snapshot", str(path), "--incremental"]) == 0
        # Collect the command's database now, so that a delta log it left
        # open fails this test rather than a later one.
        gc.collect()
        assert "wrote" in capsys.readouterr().out
        assert load_incremental(str(path)).count("movie") > 0

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
