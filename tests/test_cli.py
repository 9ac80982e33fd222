"""Tests for the command-line interface (fast commands only)."""

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
