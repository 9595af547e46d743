"""The CLI's CSV tables, byte for byte, against tables kept in tests/golden.

Each table was printed by `python -m mixeddg <argv>` from the repository root;
a change to any layer that moves a printed digit, or the solver path of a
level, shows here.  The file mesh is passed by its installed path, which does
not appear in the table.
"""

from importlib import resources
from pathlib import Path

import pytest

from mixeddg import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
SHIPPED_MESH = "file:" + str(resources.files("mixeddg") / "data/unstructured_square.msh")

TABLES = {
    "tri_k1": ["--problem", "elas2d_poly", "--mesh", "tri-uniform",
               "--levels", "8,16,32", "--k", "1"],
    "tet_k1": ["--problem", "elas3d_sine", "--mesh", "tet-uniform",
               "--levels", "2,3,4", "--k", "1"],
    "quad_k2": ["--problem", "elas2d_poly", "--mesh", "quad-uniform",
                "--levels", "2,4,8", "--k", "2"],
    "file_k1": ["--problem", "elas2d_poly", "--mesh", SHIPPED_MESH, "--levels", "0,1,2"],
    "tri_c22zero": ["--flux", "c11=hinv,c22=0", "--levels", "4,8,16"],
    "tet_c22one": ["--problem", "elas3d_sine", "--mesh", "tet-uniform",
                   "--levels", "2,4", "--k", "1", "--flux", "c11=hinv,c22=1"],
    # p-sweeps stop at k=6: rows k >= 7 reproduce the degree-7 solution and
    # hold only roundoff, which depends on the BLAS thread count
    "p_tri": ["--levels", "2", "--k", "1,2,3,4,5,6"],
    "p_tri_pinv": ["--levels", "2", "--k", "1,2,3,4,5,6", "--flux", "c11=p,c22=pinv"],
}


@pytest.mark.parametrize("name", list(TABLES))
def test_table_unchanged(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    assert cli.main(TABLES[name] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


# h-sweeps at degree k; None marks a p-sweep
DEGREE = {"tri_k1": 1, "tet_k1": 1, "file_k1": 1, "quad_k2": 2, "p_tri": None,
          "p_tri_pinv": None}


@pytest.mark.parametrize("name", list(DEGREE))
def test_rates_hold(name):
    """Every row after the first has an order in both norms.  On an h-sweep
    the finest pair reaches L2 order k + 1 and energy order k, to 0.1; on a
    p-sweep of the analytic solution the orders grow with k."""
    rows = [line.split(",") for line in (GOLDEN / f"{name}.csv").read_text().splitlines()[2:]]
    orders = [(float(row[4]), float(row[6])) for row in rows]
    k = DEGREE[name]
    if k is None:
        assert orders[-1][0] > orders[0][0] and orders[-1][1] > orders[0][1]
    else:
        assert orders[-1][0] >= k + 0.9 and orders[-1][1] >= k - 0.1
