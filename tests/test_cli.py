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


class TestDemo:
    def test_demo_plays_the_script(self, monkeypatch, capsys, trained_agent):
        from repro.cli import _DEMO_SCRIPT

        __, agent = trained_agent
        monkeypatch.setattr("repro.cli._build_cat", lambda: trained_agent)
        agent.reset()
        try:
            assert main(["demo"]) == 0
        finally:
            agent.reset()
        lines = capsys.readouterr().out.splitlines()
        said = [i for i, line in enumerate(lines) if line.startswith("USER : ")]
        assert [lines[i].removeprefix("USER : ") for i in said] == _DEMO_SCRIPT
        for i in said:
            reply = lines[i + 1]
            assert reply.startswith("AGENT: ")
            assert reply.removeprefix("AGENT: ").strip()


def _serve(monkeypatch, capsys, trained_agent, script):
    """Run ``serve`` on the fixture agent, feeding ``script`` to the REPL
    and then end-of-file.

    Returns the exit code, the prompt each ``input`` call showed and
    what the REPL printed after each line of ``script``.
    """
    monkeypatch.setattr("repro.cli._build_cat", lambda: trained_agent)
    lines = iter(script)
    prompts: list[str] = []
    printed: list[str] = []

    def fake_input(prompt=""):
        printed.append(capsys.readouterr().out)
        prompts.append(prompt)
        try:
            return next(lines)
        except StopIteration:
            raise EOFError from None

    monkeypatch.setattr("builtins.input", fake_input)
    code = main(["serve"])
    printed.append(capsys.readouterr().out)
    return code, prompts, printed[1:]


class TestServe:
    def test_session_commands(self, monkeypatch, capsys, trained_agent):
        script = [
            "hello",
            ":new bob",
            ":use nobody",
            ":sessions",
            ":close",
            ":stats",
            ":advisor",
            ":frob",
            ":quit",
        ]
        code, prompts, printed = _serve(
            monkeypatch, capsys, trained_agent, script
        )
        out = dict(zip(script, printed))
        assert code == 0
        assert len(prompts) == len(script)
        first = prompts[0].removesuffix("> ")
        assert out["hello"].startswith("bot> ")
        assert out[":new bob"].strip() == "[bob] session opened"
        assert out[":use nobody"].strip() == "error: no session 'nobody'"
        listed = [line.split()[:2] for line in out[":sessions"].splitlines()]
        assert sorted(listed) == [["*", "bob"], [first, "turns=1"]]
        assert out[":close"].splitlines() == [
            "[bob] closed",
            f"[{first}] active",
        ]
        assert prompts[script.index(":close") + 1] == f"{first}> "
        stats = out[":stats"].splitlines()
        assert ["turns_served", "1"] in [line.split() for line in stats]
        per_session = [line for line in stats if "statements=" in line]
        assert len(per_session) == 1
        assert per_session[0].split()[:2] == [first, "turns=1"]
        assert "unknown command" in out[":advisor"]
        assert "unknown command" in out[":frob"]

    def test_end_of_input_leaves_cleanly(
        self, monkeypatch, capsys, trained_agent
    ):
        code, prompts, __ = _serve(monkeypatch, capsys, trained_agent, [])
        assert code == 0
        assert len(prompts) == 1

    def test_workers_option_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--workers", "2"])
        assert excinfo.value.code == 2
