"""Tests for the impact-inline CLI and the experiments __main__."""

import os
import subprocess
import sys

import pytest

import repro
from repro.cli import main as cli_main

PROGRAM = """
#include <sys.h>
int triple(int x) { return x * 3; }
int main(void) {
    int i;
    int s = 0;
    for (i = 0; i < 40; i++)
        s += triple(i);
    print_int(s);
    putchar('\\n');
    return 0;
}
"""


@pytest.fixture
def c_file(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(PROGRAM)
    return str(path)


class TestRunCommand:
    def test_runs_and_prints(self, c_file, capsys):
        code = cli_main(["run", c_file])
        captured = capsys.readouterr()
        assert code == 0
        assert "2340" in captured.out
        assert "ILs" in captured.err

    def test_stdin_flag(self, tmp_path, capsys):
        path = tmp_path / "echo.c"
        path.write_text(
            "#include <sys.h>\n"
            "int main(void) { int c = getchar();"
            " while (c != EOF) { putchar(c); c = getchar(); } return 0; }"
        )
        cli_main(["run", str(path), "--stdin", "ping"])
        assert "ping" in capsys.readouterr().out

    def test_argv_flags(self, tmp_path, capsys):
        path = tmp_path / "args.c"
        path.write_text(
            "#include <sys.h>\n"
            "int main(int argc, char **argv) {"
            " print_str(argv[1]); return 0; }"
        )
        cli_main(["run", str(path), "--arg", "zap"])
        assert "zap" in capsys.readouterr().out


class TestInlineCommand:
    def test_reports_improvement(self, c_file, capsys):
        code = cli_main(["inline", c_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "expanded call sites" in out
        assert "call decrease" in out

    def test_dump_flag_prints_il(self, c_file, capsys):
        cli_main(["inline", c_file, "--dump"])
        out = capsys.readouterr().out
        assert "func main" in out

    def test_threshold_flag(self, c_file, capsys):
        cli_main(["inline", c_file, "--threshold", "1000000"])
        out = capsys.readouterr().out
        assert "expanded call sites : 0" in out


class TestTablesCommand:
    def test_single_benchmark_table(self, capsys):
        code = cli_main(["tables", "table1", "--benchmarks", "tee"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Table 1" in out
        assert "tee" in out

    def test_table4_subset(self, capsys):
        code = cli_main(["tables", "table4", "--benchmarks", "wc", "tee"])
        out = capsys.readouterr().out
        assert code == 0
        assert "code inc" in out

    @pytest.mark.parametrize("extra", [[], ["--jobs", "2"]])
    def test_experiments_module_is_the_tables_command(self, extra, capsys):
        argv = ["table4", "--benchmarks", "wc", "cmp", "tee", *extra]
        assert cli_main(["tables", *argv]) == 0
        out = capsys.readouterr().out
        src = os.path.dirname(os.path.dirname(repro.__file__))
        shim = subprocess.run(
            [sys.executable, "-m", "repro.experiments", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            check=True,
        )
        assert shim.stdout == out


class TestGraphCommand:
    def test_dot_output(self, c_file, capsys):
        code = cli_main(["graph", c_file])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("digraph callgraph")
        assert '"triple"' in out

    def test_profile_weights(self, c_file, capsys):
        cli_main(["graph", c_file, "--profile"])
        out = capsys.readouterr().out
        assert "triple\\n40" in out

    def test_synthetic_flag(self, c_file, capsys):
        cli_main(["graph", c_file, "--synthetic"])
        out = capsys.readouterr().out
        assert "style=dotted" in out

    def test_dot_flag_colors_arcs_by_reason(self, c_file, capsys):
        code = cli_main(["graph", c_file, "--dot"])
        out = capsys.readouterr().out
        assert code == 0
        # the hot main->triple arc is accepted, cold libc arcs are gray
        assert "ACCEPTED" in out and "color=forestgreen" in out
        assert "BELOW_THRESHOLD" in out and "color=gray" in out

    def test_dot_flag_respects_threshold(self, c_file, capsys):
        cli_main(["graph", c_file, "--dot", "--threshold", "1000000"])
        out = capsys.readouterr().out
        assert "ACCEPTED" not in out


class TestSummaryFlag:
    def test_run_summary_on_stderr(self, c_file, capsys):
        code = cli_main(["run", c_file, "--summary"])
        captured = capsys.readouterr()
        assert code == 0
        assert "metrics:" in captured.err
        assert "vm.instructions_retired" in captured.err
        assert "metrics:" not in captured.out

    def test_tables_summary_on_stderr(self, capsys):
        code = cli_main(["tables", "table4", "--benchmarks", "wc", "--summary"])
        captured = capsys.readouterr()
        assert code == 0
        assert "Table 4" in captured.out
        assert "pipeline.benchmarks" in captured.err


class TestJobsValidation:
    @pytest.mark.parametrize("value", ["0", "-3", "nope"])
    def test_tables_rejects_bad_jobs(self, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["tables", "--jobs", value])
        assert excinfo.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_jobs_help_names_worker_processes(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["tables", "--help"])
        text = capsys.readouterr().out
        assert "worker processes" in text
