"""One benchmark sweep, or one set-up probe, in a fresh process.

run.py starts this script once per sample, with PYTHONPATH pointing at the
checkout's src/ and the BLAS thread cap in the environment:

    python3 perfbench/worker.py --workload h-tri-k1 --size full --seed 1 \
        --trace 0 --spawned-at <parent perf_counter()> [--setup-only]

It prints one JSON object on its last line of standard output.  Timestamps
use time.perf_counter(), which on Linux reads CLOCK_MONOTONIC and so is
comparable between the parent and this process.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

import workloads as wl

# Public mixeddg calls the benchmark times, by the layer (module) they belong to.
PUBLIC_CALLS = {
    "build_uniform_tri": "mesh",
    "build_uniform_quad": "mesh",
    "build_uniform_tet": "mesh",
    "read_mesh": "mesh",
    "refine_red": "mesh",
    "build_face_topology": "topology",
    "build_dofmap": "spaces",
    "assemble_system": "forms",
    "solve_saddle": "solve",
    "error_l2": "verify",
    "error_energy": "verify",
}
LAYERS = ("mesh", "topology", "spaces", "forms", "solve", "verify")

# An assembled entry counts as a stored zero when it is at most this share of
# its block's largest magnitude.
ZERO_SHARE = 1e-14


def _rss_mb() -> float:
    """High-water mark of the resident set since the worker started."""
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _current_rss_mb() -> float:
    """Resident set right now, from /proc/self/statm (in pages)."""
    with open("/proc/self/statm") as f:
        pages = int(f.read().split()[1])
    return pages * resource.getpagesize() / 2**20


def _cpu_s() -> float:
    """User plus system CPU time of this process, all its threads included."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


class Tracer:
    """Spans around public mixeddg calls, kept in memory until the sweep ends.

    Each span is (layer, call, start, end, level, workload).  Counting done
    after a call (nnz, stored zeros, RSS) is itself recorded as a "trace"
    span, so the layer spans plus the trace spans account for the time spent
    outside the sweep loop's own code.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.spans = []
        self.level = 0
        self.counts = {"faces": 0, "dofs": 0, "nnz": 0, "zeros": 0,
                       "forms_rss_mb": 0.0, "solve_rss_mb": 0.0}
        self.residuals = []

    def wrap(self, name: str, fn):
        layer = PUBLIC_CALLS[name]

        def traced(*args, **kwargs):
            level = self.level
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            end = time.perf_counter()
            self.spans.append((layer, name, start, end, level, self.workload))
            self._count(name, result)
            self.spans.append(("trace", name, end, time.perf_counter(), level,
                               self.workload))
            return result

        return traced

    def _count(self, name, result):
        c = self.counts
        if name == "build_face_topology":
            c["faces"] += result.num_faces
        elif name == "build_dofmap":
            c["dofs"] += result.total_dofs
        elif name == "assemble_system":
            # M = [[Aa, Bb], [-Bb^T, Cc]] stores Bb twice
            for block, times in ((result.Aa, 1), (result.Bb, 2), (result.Cc, 1)):
                if block.nnz == 0:
                    continue
                mag = abs(block.data)
                c["nnz"] += times * block.nnz
                c["zeros"] += times * int((mag <= ZERO_SHARE * mag.max()).sum())
            # the high-water mark would mostly repeat an earlier solve's peak
            c["forms_rss_mb"] = max(c["forms_rss_mb"], _current_rss_mb())
        elif name == "solve_saddle":
            self.residuals.append(result[1].relative_residual)
            c["solve_rss_mb"] = _rss_mb()
        elif name == "error_energy":
            # error_energy is the last public call of every level
            self.level += 1

    def layer_metrics(self, t0: float, t1: float) -> dict:
        """Per-layer figures of one sweep whose levels ran from t0 to t1.

        Spans are clipped to [t0, t1], so work done during set-up (the flux
        workload's shared mesh and topology) counts in setup_s only.
        """
        out = {f"{layer}.s": 0.0 for layer in LAYERS}
        inside = 0.0
        for layer, _name, start, end, _level, _w in self.spans:
            span = max(0.0, min(end, t1) - max(start, t0))
            if layer != "trace":
                out[f"{layer}.s"] += span
            inside += span
        c = self.counts
        out.update({
            "cli.self_s": (t1 - t0) - inside,
            "topology.faces": c["faces"],
            "spaces.dofs": c["dofs"],
            "forms.nnz": c["nnz"],
            "forms.zero_frac": c["zeros"] / c["nnz"] if c["nnz"] else 0.0,
            "forms.rss_mb": c["forms_rss_mb"],
            "solve.rss_mb": c["solve_rss_mb"],
            "solve.residual_max": max(self.residuals, default=0.0),
        })
        return out


def _api(tracer):
    """The public mixeddg calls by name, wrapped in spans when tracing."""
    import mixeddg

    api = {name: getattr(mixeddg, name) for name in PUBLIC_CALLS}
    if tracer is not None:
        api = {name: tracer.wrap(name, fn) for name, fn in api.items()}
    return api


class CliSweep:
    """A sweep run through mixeddg.cli.main, checked row by row from its table."""

    def __init__(self, workload, size, reference, tracer):
        from mixeddg import cli

        self.cli = cli
        self.spec = wl.WORKLOADS[workload]["sizes"][size]
        self.levels = wl.level_ids(workload, size)
        self.reference = {row["level"]: row for row in reference}
        self.p_sweep = "," in self.spec["argv"][self.spec["argv"].index("--k") + 1]
        if tracer is not None:
            # The CLI looks these names up in its module globals at call time.
            # The worker process ends after one sweep, so nothing is restored.
            for name, fn in _api(tracer).items():
                if hasattr(cli, name):
                    setattr(cli, name, fn)

    def run(self) -> dict:
        """Failure reason per level id; None for a level that agrees."""
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = self.cli.main(self.spec["argv"] + ["--format", "csv"])
            except SystemExit as exc:  # argparse rejects bad arguments this way
                code = exc.code
        if code != 0:
            reason = f"exit code {code}: {err.getvalue().strip()}"
            return {level: reason for level in self.levels}
        rows = {}
        for line in out.getvalue().splitlines()[1:]:
            cells = line.split(",")
            rows[cells[0]] = cells
        verdicts = {}
        for level in self.levels:
            cells = rows.get(level)
            if cells is None:
                verdicts[level] = "row missing from the table"
                continue
            dofs, err_l2, err_en = int(cells[2]), float(cells[3]), float(cells[5])
            scales, roundoff = (1.0, 1.0), False
            if self.p_sweep:
                k = int(level)
                scales, roundoff = wl.p_sweep_scales(k), k >= wl.ROUNDOFF_DEGREE
            verdicts[level] = wl.level_mismatch(
                self.reference[level], dofs, err_l2 / scales[0], err_en / scales[1],
                roundoff=roundoff, scales=scales)
        return verdicts


def relabelled_mesh_text(mesh, seed: int) -> str:
    """The mesh in read_mesh's format, vertices and cells permuted by seed."""
    import numpy as np

    rng = np.random.default_rng(seed)
    order = rng.permutation(mesh.num_vertices)      # new vertex i is old order[i]
    new_id = np.empty_like(order)
    new_id[order] = np.arange(order.size)
    cells = new_id[mesh.cells][rng.permutation(mesh.num_cells)]
    lines = [f"# uniform tri mesh relabelled with seed {seed}",
             "dim 2 kind tri", f"vertices {mesh.num_vertices}"]
    lines += [f"{x!r} {y!r}" for x, y in mesh.vertices[order].tolist()]
    lines.append(f"cells {mesh.num_cells}")
    lines += [f"{a} {b} {c}" for a, b, c in cells.tolist()]
    return "\n".join(lines) + "\n"


class FluxSweep:
    """Every cli.FLUX_ALIASES preset assembled, solved and checked on one mesh.

    The mesh goes through read_mesh after a seeded relabelling, and mesh and
    face topology are built once, before the first level.
    """

    def __init__(self, workload, size, reference, tracer, seed):
        from mixeddg import StabilizationParams, SolverError, case_2d_poly
        from mixeddg.cli import FLUX_ALIASES

        if tuple(FLUX_ALIASES) != wl.FLUX_PRESETS:
            raise RuntimeError("workloads.FLUX_PRESETS no longer matches cli.FLUX_ALIASES")
        self.api = _api(tracer)
        self.stabs = {name: StabilizationParams(**kw) for name, kw in FLUX_ALIASES.items()}
        self.solver_error = SolverError
        self.reference = {row["level"]: row for row in reference}
        self.case = case_2d_poly()
        n = wl.WORKLOADS[workload]["sizes"][size]["n"]
        grid = self.api["build_uniform_tri"](n, self.case.box)
        self.mesh = self.api["read_mesh"](relabelled_mesh_text(grid, seed))
        self.topo = self.api["build_face_topology"](self.mesh)

    def run(self) -> dict:
        api, mesh, topo, case = self.api, self.mesh, self.topo, self.case
        verdicts = {}
        for name, stab in self.stabs.items():
            try:
                dofmap = api["build_dofmap"](mesh, 1, 1)
                system = api["assemble_system"](mesh, topo, dofmap, case.material,
                                                stab, case.f)
                coeffs, report = api["solve_saddle"](system)
                e_l2 = api["error_l2"](mesh, dofmap, coeffs, case)
                e_en = api["error_energy"](mesh, topo, dofmap, coeffs, coeffs, case, stab)
            except (self.solver_error, ValueError) as exc:
                verdicts[name] = f"{type(exc).__name__}: {exc}"
                continue
            if report.relative_residual > wl.RESIDUAL_GATE:
                verdicts[name] = f"residual {report.relative_residual:.3e}"
                continue
            verdicts[name] = wl.level_mismatch(self.reference[name], dofmap.total_dofs,
                                               e_l2, e_en)
        return verdicts


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--size", default="full", choices=wl.SIZES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    reference = wl.load_reference()[args.workload][args.size]
    tracer = Tracer(args.workload) if args.trace else None
    if wl.WORKLOADS[args.workload]["kind"] == "flux":
        sweep = FluxSweep(args.workload, args.size, reference, tracer, args.seed)
    else:
        sweep = CliSweep(args.workload, args.size, reference, tracer)
    t0, cpu0 = time.perf_counter(), _cpu_s()
    result = {"setup_s": t0 - args.spawned_at, "setup_peak_rss_mb": _rss_mb()}
    if not args.setup_only:
        levels = wl.level_ids(args.workload, args.size)
        try:
            verdicts = sweep.run()
        except Exception:  # a crash fails the whole sweep, and is reported
            verdicts = {level: traceback.format_exc() for level in levels}
        t1, cpu1 = time.perf_counter(), _cpu_s()
        if tracer is not None:
            for level, residual in zip(levels, tracer.residuals):
                if residual > wl.RESIDUAL_GATE and verdicts.get(level) is None:
                    verdicts[level] = f"residual {residual:.3e}"
        import numpy
        import scipy

        result.update({
            "wall_s": t1 - t0,
            "cpu_s": cpu1 - cpu0,
            "peak_rss_mb": _rss_mb(),
            "failures": {lv: verdicts.get(lv, "not run") for lv in levels
                         if verdicts.get(lv, "not run") is not None},
            "versions": {"python": sys.version.split()[0],
                         "numpy": numpy.__version__, "scipy": scipy.__version__},
        })
        if tracer is not None:
            result["layers"] = tracer.layer_metrics(t0, t1)
            result["spans"] = tracer.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
