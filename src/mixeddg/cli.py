"""Experiment driver: h-sweeps and p-sweeps with CSV/markdown tables.

Exit codes: 0 success, 2 configuration validation failure, 3 solver
failure (a residual, a singular system, or running out of memory in any
layer from a level's mesh to its error norms).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from functools import cache, partial
from pathlib import Path

import numpy as np

from .forms import StabilizationParams, assemble_system
from .mesh import (
    MeshError,
    build_face_topology,
    build_uniform_quad,
    build_uniform_tri,
    build_uniform_tet,
    read_mesh,
    refine_red,
)
from .solve import SolverError, solve_saddle
from .spaces import build_dofmap
from .verify import case_2d_poly, case_3d_sine, error_energy, error_l2, observed_orders

PROBLEMS = ("elas2d_poly", "elas3d_sine")
MESHES = ("tri-uniform", "quad-uniform", "tet-uniform")

# named presets for the flux/penalty columns of the convergence studies
FLUX_ALIASES = {
    "c11=hinv,c22=0": dict(alpha1=-1.0, alpha2=0.0, beta1=0.0, beta2=0.0, eta=0.0),
    "c11=hinv,c22=1": dict(alpha1=-1.0, alpha2=0.0, beta1=0.0, beta2=0.0),
    "c11=hinv,c22=h": dict(alpha1=-1.0, alpha2=0.0, beta1=1.0, beta2=0.0),
    "c11=1,c22=1": dict(alpha1=0.0, alpha2=0.0, beta1=0.0, beta2=0.0),
    "c11=1,c22=h": dict(alpha1=0.0, alpha2=0.0, beta1=1.0, beta2=0.0),
    "c11=p,c22=1": dict(alpha1=0.0, alpha2=-1.0, beta1=0.0, beta2=0.0),
    "c11=p,c22=pinv": dict(alpha1=0.0, alpha2=-1.0, beta1=0.0, beta2=1.0),
    "c11=1,c22=pinv": dict(alpha1=0.0, alpha2=0.0, beta1=0.0, beta2=1.0),
}


class ConfigError(ValueError):
    """Invalid run configuration."""


@dataclass
class RunConfig:
    problem: str
    mesh: str
    levels: list
    degrees: list  # (k, l); several: a p-sweep
    stab: StabilizationParams
    fmt: str
    out: str


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mixeddg",
        description="Mixed DG elasticity convergence studies",
    )
    p.add_argument("--problem", default="elas2d_poly",
                   help="elas2d_poly or elas3d_sine")
    p.add_argument("--mesh", default="tri-uniform",
                   help="tri-uniform, quad-uniform, tet-uniform, or file:<path>")
    p.add_argument("--levels", default="4",
                   help="level count (n = 2, 4, ..., 2^count per axis), "
                        "or an explicit comma-separated n list; for file meshes "
                        "the number of red refinements")
    p.add_argument("--k", default="1",
                   help="displacement degree; a comma list runs a p-sweep with l=k")
    p.add_argument("--l", default=None, help="stress degree (default: k)")
    p.add_argument("--zeta", type=float, default=1.0)
    p.add_argument("--eta", type=float, default=1.0)
    p.add_argument("--alpha1", type=float, default=-1.0)
    p.add_argument("--alpha2", type=float, default=0.0)
    p.add_argument("--beta1", type=float, default=1.0)
    p.add_argument("--beta2", type=float, default=0.0)
    p.add_argument("--flux", default=None, choices=sorted(FLUX_ALIASES),
                   help="named stabilization preset (overrides exponent flags)")
    p.add_argument("--allow-out-of-theory", action="store_true",
                   help="permit exponents outside the analyzed ranges")
    p.add_argument("--format", dest="fmt", default="csv", choices=("csv", "md"))
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    return p


def config_from_args(args) -> RunConfig:
    if args.problem not in PROBLEMS:
        raise ConfigError(f"unknown problem {args.problem!r}; pick from {PROBLEMS}")
    mesh = args.mesh
    if mesh not in MESHES and not mesh.startswith("file:"):
        raise ConfigError(
            f"unknown mesh {mesh!r}; pick from {MESHES} or file:<path>")

    ks = _parse_ints(args.k, "--k")
    ls = None if args.l is None else _parse_ints(args.l, "--l")
    if min(ks + (ls or [])) < 0:
        raise ConfigError("degrees must be >= 0")
    if len(ks) > 1:
        if ls is not None and ls != ks:
            raise ConfigError("p-sweeps run with l = k; omit --l")
        degrees = [(k, k) for k in ks]
    elif ls is not None and len(ls) > 1:
        raise ConfigError("a comma list of --l needs a p-sweep: give --k a list")
    else:
        degrees = [(ks[0], ks[0] if ls is None else ls[0])]
    k, l = degrees[0]
    if abs(k - l) > 1:
        raise ConfigError(f"|k - l| = {abs(k - l)} > 1 violates the space inclusions")

    stab_kwargs = dict(zeta=args.zeta, eta=args.eta, alpha1=args.alpha1,
                       alpha2=args.alpha2, beta1=args.beta1, beta2=args.beta2)
    if args.flux is not None:
        stab_kwargs.update(FLUX_ALIASES[args.flux])
    stab_kwargs["allow_out_of_theory"] = args.allow_out_of_theory
    try:
        stab = StabilizationParams(**stab_kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    levels = _parse_levels(args.levels, mesh, p_sweep=len(degrees) > 1)
    if args.problem == "elas3d_sine" and mesh != "tet-uniform":
        raise ConfigError("elas3d_sine runs on tet-uniform meshes")
    if args.problem == "elas2d_poly" and mesh == "tet-uniform":
        raise ConfigError("elas2d_poly needs a 2d mesh")
    if args.out is not None and not Path(args.out).parent.is_dir():
        raise ConfigError(f"--out {args.out!r}: no such directory")

    return RunConfig(
        problem=args.problem, mesh=mesh, levels=levels,
        degrees=degrees, stab=stab,
        fmt=args.fmt, out=args.out,
    )


def _parse_ints(spec: str, flag: str) -> list:
    try:
        return [int(s) for s in str(spec).split(",")]
    except ValueError:
        raise ConfigError(f"bad {flag} {spec!r}") from None


def _parse_levels(spec: str, mesh: str, p_sweep: bool = False) -> list:
    parts = _parse_ints(spec, "--levels")
    file_mesh = mesh.startswith("file:")
    if len(parts) == 1 and not p_sweep:
        # a bare integer is a level count: n = 2, 4, ..., 2^count; past 62
        # the finest level (2^count cells per axis, or 4^count times a file
        # mesh's cells) overflows any 64-bit index
        count = parts[0]
        if not 1 <= count <= 62:
            raise ConfigError(f"--levels count {count} is not in 1..62")
        parts = list(range(count)) if file_mesh else [2 ** (i + 1) for i in range(count)]
    if any(n < 0 for n in parts):
        raise ConfigError("explicit levels must be nonnegative")
    if p_sweep and len(parts) != 1:
        raise ConfigError("p-sweeps need exactly one mesh level")
    if not file_mesh and min(parts) < 1:
        raise ConfigError("structured levels need n >= 1")
    dim = 3 if mesh == "tet-uniform" else 2
    if not file_mesh and (max(parts) + 1) ** dim * dim * 8 > np.iinfo(np.intp).max:
        raise ConfigError(f"level {max(parts)}: its vertex grid outgrows any array")
    return parts


def _case_for(config: RunConfig):
    return case_3d_sine() if config.problem == "elas3d_sine" else case_2d_poly()


def _meshes_for(config: RunConfig, case):
    """(level id, function that builds its mesh) of each mesh level, in order.

    Each level builds its own mesh, so that one level's mesh is alive at a
    time and running out of memory while building it names the level.
    """
    builders = {
        "tri-uniform": build_uniform_tri,
        "quad-uniform": build_uniform_quad,
        "tet-uniform": build_uniform_tet,
    }
    if config.mesh in builders:
        return [(str(n), partial(builders[config.mesh], n, case.box)) for n in config.levels]
    path = Path(config.mesh[len("file:"):])
    try:
        mesh = read_mesh(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read mesh file: {exc}") from exc
    except MeshError as exc:
        raise ConfigError(f"bad mesh file {path}: {exc}") from exc
    if mesh.dim != case.dim:
        raise ConfigError("mesh dimension does not match the problem")
    box = np.asarray(case.box, dtype=float)
    if not np.allclose(mesh.domain_box, box, atol=1e-9):
        raise ConfigError(
            f"mesh covers {mesh.domain_box.tolist()}, problem domain is {box.tolist()}")
    finest = max(config.levels)
    if mesh.cell_kind != "triangle" and finest > 0:
        raise ConfigError(f"red refinement splits triangles: a {mesh.cell_kind} mesh "
                          "runs level 0 only")
    if 4 ** finest * mesh.num_cells * 3 * 8 > np.iinfo(np.intp).max:
        raise ConfigError(f"level r{finest}: its cell array outgrows any array")
    return [(f"r{r}", partial(_refined, mesh, r)) for r in sorted(config.levels)]


def _refined(mesh, times):
    """mesh after `times` red refinements."""
    for _ in range(times):
        mesh = refine_red(mesh)
    return mesh


def _solve_level(build_mesh, case, k, l, stab):
    mesh = build_mesh()
    topo = build_face_topology(mesh)
    dofmap = build_dofmap(mesh, k, l)
    system = assemble_system(mesh, topo, dofmap, case.material, stab, case.f)
    coeffs, _report = solve_saddle(system, mesh)
    e_l2 = error_l2(mesh, dofmap, coeffs, case)
    e_en = error_energy(mesh, topo, dofmap, coeffs, coeffs, case, stab)
    return mesh.h_max, dofmap.total_dofs, e_l2, e_en


def run_sweep(config: RunConfig) -> str:
    """One solve and one table row per level: a mesh of an h-sweep, or a
    degree pair of a p-sweep on its one mesh.

    Each row after the first carries observed_orders of the raw errors in h/p,
    p = min(k,l) + 1. p-sweep rows print p^(k+1) * err_l2 and p^s * err_energy
    with s = k + 1/2 for C22 = O(1) and s = k for decaying or absent C22, then
    the raw errors.
    """
    case = _case_for(config)
    meshes = _meshes_for(config, case)
    p_sweep = len(config.degrees) > 1
    if p_sweep:
        build_mesh = cache(meshes[0][1])  # built by the first degree, shared by the rest
        levels = [(str(k), build_mesh, (k, l)) for k, l in config.degrees]
    else:
        levels = [(level_id, build_mesh, config.degrees[0]) for level_id, build_mesh in meshes]
    c22_order_one = config.stab.beta2 == 0.0 and not config.stab.c22_zero
    rows = []
    for level_id, build_mesh, (k, l) in levels:
        try:
            h, dofs, e_l2, e_en = _solve_level(build_mesh, case, k, l, config.stab)
        except MemoryError as exc:
            raise SolverError(f"level {level_id}: out of memory") from exc
        except SolverError as exc:
            raise SolverError(f"level {level_id}: {exc}") from exc
        p = min(k, l) + 1
        s = k + 0.5 if c22_order_one else k
        l2_scale, energy_scale = (p ** (k + 1), p ** s) if p_sweep else (1, 1)
        rows.append({"level": level_id, "x": k if p_sweep else h, "dofs": dofs, "h/p": h / p,
                     "err_l2": l2_scale * e_l2, "err_energy": energy_scale * e_en,
                     "raw": (e_l2, e_en)})
    for i, norm in enumerate(("l2", "energy")):
        orders = observed_orders([(r["h/p"], r["raw"][i]) for r in rows])
        for row, order in zip(rows, [None] + orders):
            row[f"order_{norm}"] = order
    return _render(rows, "k" if p_sweep else "h", config.fmt)


def _fmt_order(v):
    return "" if v is None else f"{v:.2f}"


def _render(rows, x_name: str, fmt: str) -> str:
    header = ["level", x_name, "dofs", "err_l2", "order", "err_energy", "order"]
    if x_name == "k":  # a p-sweep: the raw errors follow the p-scaled ones
        header += ["raw_err_l2", "raw_err_energy"]
    table = [
        [
            r["level"],
            f"{r['x']:.6e}",
            str(r["dofs"]),
            f"{r['err_l2']:.6e}",
            _fmt_order(r["order_l2"]),
            f"{r['err_energy']:.6e}",
            _fmt_order(r["order_energy"]),
        ] + ([f"{e:.6e}" for e in r["raw"]] if x_name == "k" else [])
        for r in rows
    ]
    if fmt == "csv":
        lines = [",".join(header)] + [",".join(row) for row in table]
        return "\n".join(lines) + "\n"
    widths = [max(len(h), *(len(row[i]) for row in table)) if table else len(h)
              for i, h in enumerate(header)]
    def line(cells):
        return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"
    lines = [line(header), line(["-" * w for w in widths])]
    lines += [line(row) for row in table]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
        text = run_sweep(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    if config.out:
        try:
            Path(config.out).write_text(text)
        except OSError as exc:
            print(f"config error: cannot write --out: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
