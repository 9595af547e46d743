from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from mixeddg import cli
from mixeddg.solve import ResidualToleranceError, SolveReport


def run(tmp_path, *argv):
    out = tmp_path / "table.csv"
    code = cli.main(list(argv) + ["--out", str(out)])
    return code, out


class TestConfigValidation:
    def test_unknown_problem(self, tmp_path, capsys):
        code, _ = run(tmp_path, "--problem", "heat")
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_degree_gap(self, tmp_path):
        code, _ = run(tmp_path, "--k", "2", "--l", "0")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("--zeta", "0"),
        ("--zeta", "nan"),
        ("--zeta", "inf"),
        ("--eta", "nan"),
        ("--eta", "inf"),
        ("--alpha1=-inf", "--allow-out-of-theory"),
        ("--beta2", "nan", "--allow-out-of-theory"),
    ], ids=["zeta0", "zetanan", "zetainf", "etanan", "etainf", "alpha1-inf", "beta2nan"])
    def test_bad_zeta(self, tmp_path, capsys, argv):
        code, _ = run(tmp_path, *argv)
        assert code == 2
        assert capsys.readouterr().err.startswith("config error")

    @pytest.mark.parametrize("argv", [
        ["--k", "abc"],
        ["--l", "x"],
        ["--out", "/nonexistent/dir/t.csv"],
    ], ids=["k", "l", "out-dir"])
    def test_malformed_input(self, argv, capsys):
        code = cli.main(["--levels", "1", "--k", "0"] + argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error") and err.count("\n") == 1

    def test_unwritable_out(self, tmp_path, capsys):
        # a directory passes the up-front check but cannot be written as a file
        code = cli.main(["--levels", "1", "--k", "0", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error") and err.count("\n") == 1

    def test_out_of_theory_needs_flag(self, tmp_path):
        code, _ = run(tmp_path, "--beta1", "-1")
        assert code == 2

    def test_out_of_theory_flag_accepted(self, tmp_path):
        code, out = run(tmp_path, "--beta1", "-1", "--allow-out-of-theory",
                        "--levels", "2,4", "--k", "1")
        assert code == 0 and out.exists()

    def test_3d_cap(self, tmp_path, capsys):
        code, _ = run(tmp_path, "--problem", "elas3d_sine", "--mesh",
                      "tet-uniform", "--levels", "2,16")
        assert code == 2
        assert "max-level-3d" in capsys.readouterr().err

    def test_3d_cap_raised_in_config(self):
        args = cli.build_parser().parse_args(
            ["--problem", "elas3d_sine", "--mesh", "tet-uniform",
             "--levels", "2,16", "--max-level-3d", "16"])
        config = cli.config_from_args(args)
        assert config.levels == [2, 16]

    def test_problem_mesh_mismatch(self, tmp_path):
        code, _ = run(tmp_path, "--problem", "elas3d_sine", "--mesh", "tri-uniform")
        assert code == 2

    def test_bad_flux_alias_rejected_by_argparse(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "--flux", "bogus")
        assert exc.value.code == 2

    def test_p_sweep_rejects_l(self, tmp_path):
        code, _ = run(tmp_path, "--k", "1,2", "--l", "2", "--levels", "2")
        assert code == 2


class TestHSweep:
    def test_csv_columns_and_orders(self, tmp_path):
        code, out = run(tmp_path, "--levels", "3", "--k", "1",
                        "--flux", "c11=hinv,c22=h")
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "level,h,dofs,err_l2,order,err_energy,order"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "2" and first[4] == "" and first[6] == ""
        last = lines[-1].split(",")
        assert float(last[4]) > 1.0  # l2 order heading toward 2

    def test_one_level_run(self, tmp_path):
        code, out = run(tmp_path, "--levels", "1", "--k", "0")
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[1].split(",")[4] == ""

    def test_rerun_is_byte_identical(self, tmp_path):
        _, out1 = run(tmp_path, "--levels", "2", "--k", "1")
        first = out1.read_bytes()
        _, out2 = run(tmp_path, "--levels", "2", "--k", "1")
        assert out2.read_bytes() == first

    def test_markdown_format(self, tmp_path):
        code, out = run(tmp_path, "--levels", "2", "--k", "0", "--format", "md")
        assert code == 0
        text = out.read_text()
        assert text.startswith("| level")
        assert "| dofs" in text.splitlines()[0]

    def test_quad_mesh(self, tmp_path):
        code, out = run(tmp_path, "--mesh", "quad-uniform", "--levels", "2",
                        "--k", "1")
        assert code == 0

    def test_file_mesh_with_refinements(self, tmp_path):
        sample = resources.files("mixeddg") / "data/unstructured_square.msh"
        code, out = run(tmp_path, "--mesh", f"file:{sample}", "--levels", "2",
                        "--k", "1", "--flux", "c11=hinv,c22=h")
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[1].split(",")[0] == "r0"
        assert lines[2].split(",")[0] == "r1"
        # red refinement halves h exactly, so orders are defined
        assert lines[2].split(",")[4] != ""

    def test_file_mesh_wrong_domain(self, tmp_path):
        bad = tmp_path / "bad.msh"
        bad.write_text("dim 2 kind tri\nvertices 4\n0 0\n1 0\n1 1\n0 1\n"
                       "cells 2\n0 1 2\n0 2 3\n")
        code, _ = run(tmp_path, "--mesh", f"file:{bad}", "--levels", "1")
        assert code == 2

    @pytest.mark.parametrize("old,new", [
        ("vertices 4", "vertices abc"),
        ("vertices 4", "vertices -1"),
        ("cells 2", "cells x"),
    ])
    def test_file_mesh_bad_count(self, tmp_path, capsys, old, new):
        bad = tmp_path / "bad.msh"
        bad.write_text("dim 2 kind tri\nvertices 4\n-1 -1\n1 -1\n1 1\n-1 1\n"
                       "cells 2\n0 1 2\n0 2 3\n".replace(old, new))
        code, _ = run(tmp_path, "--mesh", f"file:{bad}", "--levels", "1")
        assert code == 2
        assert "bad count" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        code, _ = run(tmp_path, "--mesh", "file:/nonexistent.msh", "--levels", "1")
        assert code == 2


class TestPSweep:
    def test_rows_and_scaling(self, tmp_path):
        code, out = run(tmp_path, "--k", "0,1", "--levels", "2",
                        "--flux", "c11=p,c22=pinv")
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "level,k,dofs,err_l2,order,err_energy,order"
        assert [ln.split(",")[0] for ln in lines[1:]] == ["0", "1"]
        # order columns stay empty in p-sweeps
        assert all(ln.split(",")[4] == "" for ln in lines[1:])

    def test_multi_level_rejected(self, tmp_path):
        code, _ = run(tmp_path, "--k", "0,1", "--levels", "2,4")
        assert code == 2


class TestSolverFailureExit:
    def test_residual_failure_exit_code(self, tmp_path, monkeypatch):
        def fail(system):
            raise ResidualToleranceError(SolveReport(1.0, 0.0, 0.0, 0))

        monkeypatch.setattr(cli, "solve_saddle", fail)
        code, _ = run(tmp_path, "--levels", "1", "--k", "0")
        assert code == 3

    def test_failure_names_level(self, tmp_path, monkeypatch, capsys):
        def fail(system):
            raise ResidualToleranceError(SolveReport(1.0, 0.0, 0.0, 0))

        monkeypatch.setattr(cli, "solve_saddle", fail)
        run(tmp_path, "--levels", "1", "--k", "0")
        assert "level 2" in capsys.readouterr().err


class TestStdout:
    def test_prints_to_stdout_without_out(self, capsys):
        code = cli.main(["--levels", "1", "--k", "0"])
        assert code == 0
        assert capsys.readouterr().out.startswith("level,h,dofs")
