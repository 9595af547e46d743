"""Workload definitions and the reference-error check.

Importing this module does not import mixeddg, so the parent process can
name workloads and count levels without paying the library's import cost.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

# Levels at or above this degree reproduce the degree-7 exact solution of
# elas2d_poly, so their errors are roundoff and only have to stay below a floor.
ROUNDOFF_DEGREE = 7
ROUNDOFF_FLOOR = 1e-9

# Relative residual above which a solve counts as failed, matching the gate
# in solve_saddle.
RESIDUAL_GATE = 1e-9

# Each workload comes in two sizes.  "full" is what the benchmark measures:
# every sweep takes 1 to 2.5 s here, so that one run holds many
# sweeps and its median is steady on a noisy shared machine.  "tiny" is for
# the benchmark's own smoke tests.  CLI workloads give the argv that
# mixeddg.cli.main receives; "levels" lists the level ids in table order.
_TRI = ["--problem", "elas2d_poly", "--mesh", "tri-uniform"]
_TET = ["--problem", "elas3d_sine", "--mesh", "tet-uniform"]
_P_TRI = _TRI + ["--levels", "2", "--k"]


def _h_sweep(mesh_args, levels):
    return {"argv": mesh_args + ["--levels", ",".join(levels), "--k", "1"],
            "levels": levels}


def _p_sweep(top):
    degrees = [str(k) for k in range(1, top + 1)]
    return {"argv": _P_TRI + [",".join(degrees)], "levels": degrees}


WORKLOADS = {
    "h-tri-k1": {
        "kind": "cli",
        "sizes": {"full": _h_sweep(_TRI, ["8", "16", "32"]),
                  "tiny": _h_sweep(_TRI, ["2", "4"])},
    },
    "h-tet-k1": {
        "kind": "cli",
        "sizes": {"full": _h_sweep(_TET, ["2", "3", "4"]),
                  "tiny": _h_sweep(_TET, ["1", "2"])},
    },
    "p-tri-n2": {
        "kind": "cli",
        "sizes": {"full": _p_sweep(10), "tiny": _p_sweep(3)},
    },
    "flux-tri-k1": {
        "kind": "flux",
        "sizes": {"full": {"n": 16}, "tiny": {"n": 4}},
    },
}
SIZES = ("full", "tiny")

# mixeddg.cli.FLUX_ALIASES in its declaration order; kept here so the parent
# process can count levels without importing the library.  The worker checks
# that the two agree.
FLUX_PRESETS = (
    "c11=hinv,c22=0", "c11=hinv,c22=1", "c11=hinv,c22=h", "c11=1,c22=1",
    "c11=1,c22=h", "c11=p,c22=1", "c11=p,c22=pinv", "c11=1,c22=pinv",
)


def level_ids(workload: str, size: str) -> list:
    spec = WORKLOADS[workload]
    if spec["kind"] == "flux":
        return list(FLUX_PRESETS)
    return list(spec["sizes"][size]["levels"])


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def p_sweep_scales(k: int) -> tuple:
    """Factors the CLI p-sweep multiplies raw (L2, energy) errors by.

    p = k + 1; L2 is scaled by p^(k+1) and energy by p^(k+1/2), since the
    workloads run the default stabilization (beta2 = 0, C22 > 0).
    """
    p = k + 1
    return p ** (k + 1), p ** (k + 0.5)


def _same_printed(value: float, ref: float, scale: float = 1.0) -> bool:
    """True when value and ref agree to the 7 significant digits of '%.6e'.

    The digits are those of the printed number, value * scale; p-sweep tables
    print errors multiplied by a power of p.
    """
    if not (math.isfinite(value) and math.isfinite(ref)):
        return False
    if ref == 0.0:
        return value == 0.0
    unit = 10.0 ** (math.floor(math.log10(abs(ref * scale))) - 6) / scale
    return abs(value - ref) <= unit


def level_mismatch(ref_row: dict, dofs: int, err_l2: float, err_energy: float,
                   roundoff: bool = False, scales=(1.0, 1.0)) -> str | None:
    """Reason the level disagrees with its reference row, or None if it agrees.

    Errors are raw (unscaled); `scales` are the factors the table printed them
    with.
    """
    if dofs != ref_row["dofs"]:
        return f"dofs {dofs} != {ref_row['dofs']}"
    for name, value, scale in (("err_l2", err_l2, scales[0]),
                               ("err_energy", err_energy, scales[1])):
        if roundoff:
            if not value < ROUNDOFF_FLOOR:
                return f"{name} {value:.3e} above roundoff floor {ROUNDOFF_FLOOR:.0e}"
        elif not _same_printed(value, ref_row[name], scale):
            return f"{name} {value:.6e} != reference {ref_row[name]:.6e}"
    return None
