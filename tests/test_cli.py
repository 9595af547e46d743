import math
import os
import resource
import subprocess
import sys
import tracemalloc
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixeddg import build_dofmap, build_face_topology, build_uniform_tri, case_2d_poly
from mixeddg import cli
from mixeddg import solve as solve_module
from mixeddg.forms import StabilizationParams, assemble_system
from mixeddg.solve import ResidualToleranceError, SolveReport
from oracles import cycle_bytes

SHIPPED_MESH = resources.files("mixeddg") / "data/unstructured_square.msh"


def child_env(**extra):
    """The environment of a child interpreter that imports this mixeddg."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))


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
        ["--l", "-1"],
        ["--k", "1", "--l", "1,2"],
        ["--mesh", "tet-uniform"],
        ["--levels", "0"],
        ["--levels=-1,2"],
        ["--levels", "0,2"],
        # past 2^62 cells per axis, or a vertex grid past any array size
        ["--levels", "2097152"],
        ["--problem", "elas3d_sine", "--mesh", "tet-uniform", "--levels", "2097152,2097152"],
        # 4^40 times a file mesh's cells, refused before any refinement
        ["--mesh", f"file:{SHIPPED_MESH}", "--levels", "0,40"],
    ], ids=["k", "l", "out-dir", "l-negative", "l-list", "mesh-dim", "levels-0",
            "levels-negative", "levels-0-list", "levels-count-huge", "levels-grid-huge",
            "levels-file-huge"])
    def test_malformed_input(self, argv, capsys):
        tracemalloc.start()
        try:
            code = cli.main(["--levels", "1", "--k", "0"] + argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error") and err.count("\n") == 1
        assert peak < 1 << 20  # refused before anything is built

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

    def test_3d_levels_uncapped(self):
        # 3D levels are limited only by the memory preflight of each factor;
        # tet n=16 runs (about 40 s), so only its configuration is checked
        args = cli.build_parser().parse_args(
            ["--problem", "elas3d_sine", "--mesh", "tet-uniform", "--levels", "2,16"])
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

    def test_non_halving_levels_get_orders(self, tmp_path):
        # n = 8 -> 12 does not halve h; its order is still log(e ratio) / log(h ratio)
        code, out = run(tmp_path, "--levels", "4,8,12", "--k", "1")
        assert code == 0
        rows = [ln.split(",") for ln in out.read_text().strip().splitlines()[1:]]
        assert [r[0] for r in rows] == ["4", "8", "12"]
        assert rows[0][4] == "" and rows[0][6] == ""
        for prev, row in zip(rows, rows[1:]):
            for col in (3, 5):
                order = (math.log(float(prev[col]) / float(row[col]))
                         / math.log(float(prev[1]) / float(row[1])))
                assert float(row[col + 1]) == pytest.approx(order, abs=1e-2)

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
        code, out = run(tmp_path, "--mesh", f"file:{SHIPPED_MESH}", "--levels", "2",
                        "--k", "1", "--flux", "c11=hinv,c22=h")
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[1].split(",")[0] == "r0"
        assert lines[2].split(",")[0] == "r1"
        # red refinement halves h exactly, so orders are defined
        assert lines[2].split(",")[4] != ""

    @pytest.mark.parametrize("levels,expected", [("2", 2), ("0,1", 2), ("1", 0)])
    def test_quad_file_mesh_refinement(self, tmp_path, capsys, levels, expected):
        # red refinement splits triangles only: a refined quad level is a
        # config error, not a traceback
        quad = tmp_path / "quad.msh"
        quad.write_text("dim 2 kind quad\nvertices 6\n-1 -1\n0 -1\n1 -1\n-1 1\n0 1\n1 1\n"
                        "cells 2\n0 1 4 3\n1 2 5 4\n")
        code, _ = run(tmp_path, "--mesh", f"file:{quad}", "--levels", levels, "--k", "1")
        assert code == expected
        if expected:
            assert "quad mesh runs level 0 only" in capsys.readouterr().err

    def test_file_mesh_wrong_domain(self, tmp_path):
        bad = tmp_path / "bad.msh"
        bad.write_text("dim 2 kind tri\nvertices 4\n0 0\n1 0\n1 1\n0 1\n"
                       "cells 2\n0 1 2\n0 2 3\n")
        code, _ = run(tmp_path, "--mesh", f"file:{bad}", "--levels", "1")
        assert code == 2

    def test_file_mesh_wrong_dimension(self, tmp_path, capsys):
        tet = tmp_path / "tet.msh"
        # the Kuhn split of the unit cube: a valid mesh, but 3D
        cube = "\n".join(f"{i >> 2} {i >> 1 & 1} {i & 1}" for i in range(8))
        tet.write_text(f"dim 3 kind tet\nvertices 8\n{cube}\ncells 6\n"
                       "0 4 6 7\n0 4 7 5\n0 2 7 6\n0 2 3 7\n0 1 5 7\n0 1 7 3\n")
        code, _ = run(tmp_path, "--mesh", f"file:{tet}", "--levels", "1")
        assert code == 2
        assert "mesh dimension does not match the problem" in capsys.readouterr().err

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
        assert lines[0] == ("level,k,dofs,err_l2,order,err_energy,order,"
                            "raw_err_l2,raw_err_energy")
        rows = [ln.split(",") for ln in lines[1:]]
        assert [r[0] for r in rows] == ["0", "1"]
        # p-orders come from the raw errors, with p = k + 1 going 1 -> 2
        assert rows[0][4] == "" and rows[0][6] == ""
        for col, raw in ((4, 7), (6, 8)):
            order = math.log(float(rows[0][raw]) / float(rows[1][raw])) / math.log(2 / 1)
            assert float(rows[1][col]) == pytest.approx(order, abs=1e-2)

    def test_raw_columns_unscaled(self, tmp_path):
        # default stabilization: L2 scaled by p^(k+1), energy by p^(k+1/2)
        code, out = run(tmp_path, "--k", "1,2,3", "--levels", "2")
        assert code == 0
        for line in out.read_text().strip().splitlines()[1:]:
            cells = line.split(",")
            k, p = int(cells[0]), int(cells[0]) + 1
            assert len(cells) == 9
            assert float(cells[7]) * p ** (k + 1) == pytest.approx(float(cells[3]), rel=1e-6)
            assert float(cells[8]) * p ** (k + 0.5) == pytest.approx(float(cells[5]), rel=1e-6)

    @settings(max_examples=6, derandomize=True, database=None, deadline=None)
    @given(ks=st.lists(st.integers(0, 3), min_size=2, max_size=3, unique=True),
           flux=st.sampled_from(sorted(cli.FLUX_ALIASES)))
    def test_scaled_columns_are_p_powers_of_raw(self, ks, flux):
        # p = k + 1; energy is scaled by p^(k+1/2) for C22 = O(1) and by p^k
        # for C22 = 0 or C22 ~ 1/p
        argv = ["--levels", "2", "--k", ",".join(map(str, ks)), "--flux", flux]
        text = cli.run_sweep(cli.config_from_args(cli.build_parser().parse_args(argv)))
        rows = [line.split(",") for line in text.strip().splitlines()[1:]]
        assert [float(row[1]) for row in rows] == ks
        for row, k in zip(rows, ks):
            s = k if flux.endswith(("c22=0", "c22=pinv")) else k + 0.5
            assert float(row[3]) == pytest.approx((k + 1) ** (k + 1) * float(row[7]), rel=1e-6)
            assert float(row[5]) == pytest.approx((k + 1) ** s * float(row[8]), rel=1e-6)

    def test_markdown_raw_columns(self, tmp_path):
        code, out = run(tmp_path, "--k", "1,2", "--levels", "2", "--format", "md")
        assert code == 0
        header = [c.strip() for c in out.read_text().splitlines()[0].strip("|").split("|")]
        assert header[7:] == ["raw_err_l2", "raw_err_energy"]

    def test_multi_level_rejected(self, tmp_path):
        code, _ = run(tmp_path, "--k", "0,1", "--levels", "2,4")
        assert code == 2


class TestSolverFailureExit:
    def test_residual_failure_exit_code(self, tmp_path, monkeypatch):
        def fail(system, mesh=None):
            raise ResidualToleranceError(SolveReport(1.0, 0.0, 0.0, 0))

        monkeypatch.setattr(cli, "solve_saddle", fail)
        code, _ = run(tmp_path, "--levels", "1", "--k", "0")
        assert code == 3

    def test_failure_names_level(self, tmp_path, monkeypatch, capsys):
        def fail(system, mesh=None):
            raise ResidualToleranceError(SolveReport(1.0, 0.0, 0.0, 0))

        monkeypatch.setattr(cli, "solve_saddle", fail)
        run(tmp_path, "--levels", "1", "--k", "0")
        assert "level 2" in capsys.readouterr().err

    def test_p_sweep_failure_names_level(self, tmp_path, monkeypatch, capsys):
        real = cli.solve_saddle

        def fail_at_k3(system, mesh=None):
            if system.dofmap.k == 3:
                raise ResidualToleranceError(SolveReport(1.0, 0.0, 0.0, 0))
            return real(system, mesh)

        monkeypatch.setattr(cli, "solve_saddle", fail_at_k3)
        code, _ = run(tmp_path, "--k", "1,2,3", "--levels", "1")
        assert code == 3
        assert "level 3:" in capsys.readouterr().err

    @pytest.mark.parametrize("where,error", [
        ("splu", SystemError("gstrf was called with invalid arguments")),
        ("splu", MemoryError()),
        ("assembly", MemoryError("Unable to allocate 55.8 MiB")),
        ("dense", MemoryError("Unable to allocate 9.6 MiB")),
        ("preflight", None),
        ("dense-preflight", None),
    ], ids=["system-error", "memory-error", "assembly-memory-error", "dense-memory-error",
            "sparse-preflight", "dense-preflight"])
    def test_out_of_memory_names_level(self, tmp_path, monkeypatch, capsys, where, error):
        # SuperLU reports running out of memory as invalid arguments; the
        # float32 factorization's failure is not retried in float64, and a
        # factor the preflight refuses is not started.  tri n=8 at k=0 takes
        # sparse LU, and n=2 the dense factor
        factorizations, real_splu, real_dense = [], solve_module.splu, solve_module._dense_factor

        def splu(A, permc_spec=None, **kwargs):
            if permc_spec == "NATURAL":  # not the block graph's ordering
                factorizations.append(A.dtype)
                if where == "splu":
                    raise error
            return real_splu(A, permc_spec=permc_spec, **kwargs)

        def dense_factor(M, dofmap, dtype):
            factorizations.append(dtype)
            if where == "dense":
                raise error
            return real_dense(M, dofmap, dtype)

        def assemble(*args):
            raise error

        monkeypatch.setattr(solve_module, "splu", splu)
        monkeypatch.setattr(solve_module, "_dense_factor", dense_factor)
        if where == "assembly":
            monkeypatch.setattr(cli, "assemble_system", assemble)
        checks = []
        if where.endswith("preflight"):
            monkeypatch.setattr(solve_module, "_available_memory", lambda: checks.append(0) or 0)
        level = "2" if where.startswith("dense") else "8"
        code, _ = run(tmp_path, "--levels", f"{level},16", "--k", "0")
        assert code == 3
        err = capsys.readouterr().err
        assert f"level {level}:" in err and "out of memory" in err and err.count("\n") == 1
        assert factorizations == ([np.float32] if where in ("splu", "dense") else [])
        assert len(checks) == (1 if where.endswith("preflight") else 0)
        assert ("bytes, 0 available" in err) == where.endswith("preflight")

    def test_cycle_memory_check_names_level(self, tmp_path, monkeypatch, capsys):
        # one byte short of the GMRES path's bytes, tri n=8 is refused before
        # its cycle is built; n=2 takes the direct factor
        monkeypatch.setattr(solve_module, "KRYLOV_MIN_DOFS", 1000)
        case = case_2d_poly()
        mesh = build_uniform_tri(8, case.box)
        dofmap = build_dofmap(mesh, 1, 1)
        L = assemble_system(mesh, build_face_topology(mesh), dofmap, case.material,
                            StabilizationParams(), case.f).L
        need = cycle_bytes(L, dofmap, solve_module.KRYLOV_RESTART)

        def no_cycle(*_):
            raise AssertionError("the multilevel set-up ran")

        monkeypatch.setattr(solve_module, "_available_memory", lambda: need - 1)
        monkeypatch.setattr(solve_module, "_multilevel", no_cycle)
        code, _ = run(tmp_path, "--levels", "2,8")
        assert code == 3
        assert capsys.readouterr().err == (
            f"solver failure: level 8: out of memory: the multilevel cycle needs {need:,} "
            f"bytes, {need - 1:,} available\n")

    def test_assembly_memory_check_names_level(self, tmp_path, monkeypatch, capsys):
        # tri n=4, k=1 needs 172,800 bytes of padded float64 blocks: one byte
        # short, level 2 runs and level 4 is refused in its assembly
        monkeypatch.setattr(solve_module, "_available_memory", lambda: 172_799)
        code, _ = run(tmp_path, "--levels", "2,4")
        assert code == 3
        assert capsys.readouterr().err == (
            "solver failure: level 4: out of memory: the assembly needs 172,800 bytes, "
            "172,799 available\n")

    @pytest.mark.skipif(not Path("/proc/self/statm").exists(), reason="needs /proc/self/statm")
    def test_address_space_limit_refuses_at_once(self):
        # under ulimit -v the memory checks see the address space left, not
        # only MemAvailable: tri n=128 assembles within 450 MB over the
        # import, and its cycle, 391 MB on top of the 186 MB held after
        # assembly, is refused before it is built, where it would otherwise
        # run into a MemoryError.  The limit is set in the child only
        env = child_env(OPENBLAS_NUM_THREADS="1")
        imported = subprocess.run(
            [sys.executable, "-c", "import mixeddg.cli; print(open('/proc/self/statm').read())"],
            env=env, capture_output=True, text=True, timeout=60, check=True)
        limit = int(imported.stdout.split()[0]) * resource.getpagesize() + 450 * 2 ** 20
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        proc = subprocess.run(
            [sys.executable, "-m", "mixeddg", "--levels", "1,128"], env=env,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, hard)),
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 3
        assert proc.stderr.startswith("solver failure: level 128: out of memory: "
                                      "the multilevel cycle needs 390,931,072 bytes, ")
        assert proc.stderr.endswith(" available\n") and proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("argv,level", [
        (("--levels", "2,4"), "4"), (("--k", "1,2", "--levels", "4"), "1"),
    ], ids=["h-sweep", "p-sweep"])
    def test_mesh_out_of_memory_names_level(self, tmp_path, monkeypatch, capsys, argv, level):
        # a mesh too large to build fails inside its level
        real = cli.build_uniform_tri

        def build(n, box):
            if n == 4:
                raise MemoryError("Unable to allocate 74.5 GiB")
            return real(n, box)

        monkeypatch.setattr(cli, "build_uniform_tri", build)
        code, _ = run(tmp_path, *argv)
        assert code == 3
        assert capsys.readouterr().err == f"solver failure: level {level}: out of memory\n"


class TestSolverPath:
    def test_solve_gets_the_mesh(self, tmp_path, monkeypatch):
        meshes = []

        def spy(system, mesh=None):
            meshes.append(mesh)
            return real(system, mesh)

        real = cli.solve_saddle
        monkeypatch.setattr(cli, "solve_saddle", spy)
        code, _ = run(tmp_path, "--problem", "elas3d_sine", "--mesh", "tet-uniform",
                      "--levels", "1,2", "--k", "1")
        assert code == 0
        assert [m.num_cells for m in meshes] == [6, 48]


class TestStdout:
    def test_prints_to_stdout_without_out(self, capsys):
        code = cli.main(["--levels", "1", "--k", "0"])
        assert code == 0
        assert capsys.readouterr().out.startswith("level,h,dofs")


class TestEntryPoint:
    def test_scipy_special_not_imported(self):
        # the library's one use of scipy.special was its Gauss-Jacobi rules;
        # the import cost 3.75 MB of RSS and about 50 ms in every process
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, mixeddg.cli; "
             "print('scipy.special' in sys.modules, 'scipy.sparse.linalg' in sys.modules)"],
            env=child_env(), capture_output=True, text=True, timeout=60, check=True)
        assert proc.stdout == "False True\n"

    @pytest.mark.parametrize("argv,code", [
        (["--problem", "heat"], 2),
        (["--levels", "1", "--k", "0"], 0),
    ], ids=["config-error", "one-level"])
    def test_python_m_mixeddg(self, argv, code):
        proc = subprocess.run([sys.executable, "-m", "mixeddg"] + argv, env=child_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == code
        if code == 2:
            assert proc.stderr.startswith("config error") and proc.stderr.count("\n") == 1
        else:
            assert proc.stdout.startswith("level,h,dofs,err_l2,order,err_energy,order\n")
