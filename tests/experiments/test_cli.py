"""CLI entry point (fast paths only)."""

import pytest

from repro.cli import main


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out
        assert "fig17" in out
        assert "userstudy" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Summary:" in out
        assert "13" in out

    def test_table3_runs(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "G5" in out

    def test_unknown_experiment_errors(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_table2_test_scale(self, capsys):
        assert main(["table2", "--scale", "test"]) == 0
        out = capsys.readouterr().out
        assert "average degree" in out

    def test_batch_demo_frozen_engine(self, capsys):
        assert (
            main(
                [
                    "batch",
                    "--scale", "test",
                    "--demo", "6",
                    "--method", "ST",
                    "--engine", "frozen",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "batch method=ST tasks=6" in out

    def test_batch_demo_pcst_dict_engine(self, capsys):
        assert (
            main(
                [
                    "batch",
                    "--scale", "test",
                    "--demo", "4",
                    "--method", "PCST",
                    "--engine", "dict",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "batch method=PCST tasks=4" in out

    def test_batch_rejects_unknown_engine(self):
        with pytest.raises(SystemExit):
            main(["batch", "--demo", "2", "--engine", "gpu"])

    def test_batch_rejects_unknown_parallel_backend(self):
        with pytest.raises(SystemExit):
            main(["batch", "--demo", "2", "--parallel", "gpu"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["--parallel", "threads"],
            ["--scheduler", "chunked"],
            ["--engine", "csr"],
        ],
        ids=["parallel-threads", "scheduler", "engine-csr"],
    )
    def test_batch_rejects_retired_options(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["batch", "--demo", "2", *argv])
        assert excinfo.value.code == 2
        assert argv[0] in capsys.readouterr().err

    def test_batch_explicit_serial_backend(self, capsys):
        assert (
            main(
                [
                    "batch", "--demo", "2", "--scale", "test",
                    "--method", "ST", "--parallel", "serial",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "parallel=serial" in out
