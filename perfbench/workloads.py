"""The benchmark's workloads: what one op is, its seeded inputs, and the
check its output must pass.

Every workload is a closed loop from one process: one op at a time with
`workers=1`. The seed only draws the couplings passed to idmps. Coupling
values follow a golden-ratio sequence with a seeded offset, so each value
is uniform on its range and any number of ops in a run covers the range
evenly; that keeps per-run medians steady from seed to seed.

idmps is imported inside the methods: run.py loads this module before it
has checked that idmps can be imported from the checkout.
"""
import csv
import math
import os
import random

import numpy as np

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# variational bound slack, as enforced by idmps.experiments.scan_radius
E_TOL = 1e-9
# rounding allowed above 1 for a fidelity per site of an exact state
F_ROUND = 1e-12
# the Majumdar-Ghosh point of the J1-J2 chain, where E0 = -3N/8 exactly
MG_J2 = 0.5
SWEEP_COLUMNS = ["param", "R_opt", "energy_opt", "ground_energy",
                 "fidelity_per_site"]
# tiny variants (smoke tests, warm-up ops) scan a 3-point radius grid
TINY_GRID = (0.02, 30.0, 3)


def _offset(seed, name):
    return random.Random(f"{name}:{seed}").random()


def default_grid():
    from idmps.experiments import default_grid as grid
    return grid()


class RadiusScan:
    """One op = scan_radius(BlockSpec(model, label, N), HamiltonianSpec(ham,
    N, <param>=v)) with v drawn from [lo, hi]."""

    def __init__(self, name, why, model, label, ham, param, lo, hi, N,
                 grid=None):
        self.name, self.why = name, why
        self.model, self.label, self.ham = model, label, ham
        self.param, self.lo, self.hi, self.N = param, lo, hi, N
        self.grid = grid

    def tiny(self, N):
        return RadiusScan(self.name, self.why, self.model, self.label,
                          self.ham, self.param, self.lo, self.hi, N,
                          grid=np.geomspace(*TINY_GRID))

    def inputs(self, seed):
        """Endless seeded coupling values, one per op."""
        u = _offset(seed, self.name)
        while True:
            yield self.lo + (self.hi - self.lo) * u
            u = (u + GOLDEN) % 1.0

    def run(self, value, workdir):
        from idmps import experiments
        from idmps.blocks import BlockSpec
        from idmps.hamiltonians import HamiltonianSpec
        spec = BlockSpec(self.model, self.label, self.N)
        ham = HamiltonianSpec(self.ham, self.N, **{self.param: value})
        return experiments.scan_radius(spec, ham, R_grid=self.grid, workers=1)

    def check(self, value, res):
        """Problems with one scan result; an empty list means it passed."""
        grid = default_grid() if self.grid is None else np.sort(self.grid)
        r_opt, e_opt, f_opt = res.optimum
        problems = []
        if not e_opt >= res.ground_energy - E_TOL:
            problems.append(f"E_opt {e_opt!r} < E0 {res.ground_energy!r}")
        if not grid[0] <= r_opt <= grid[-1]:
            problems.append(f"R_opt {r_opt!r} outside the grid")
        if not 0.0 < f_opt <= 1.0 + F_ROUND:
            problems.append(f"fidelity {f_opt!r} outside (0, 1]")
        return problems

    def margins(self, res):
        return [res.optimum[1] - res.ground_energy]


class PhaseSweepCLI:
    """One op = idmps.cli.run(["scan", "phase", ...]) over 4 seeded J2
    values, one per quarter of [lo, hi], plus the Majumdar-Ghosh point."""

    def __init__(self, name, why, N, lo, hi, grid=None):
        self.name, self.why = name, why
        self.N, self.lo, self.hi = N, lo, hi
        self.grid = grid

    def tiny(self, N):
        return PhaseSweepCLI(self.name, self.why, N, self.lo, self.hi,
                             grid=",".join(str(x) for x in TINY_GRID))

    def inputs(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        width = (self.hi - self.lo) / 4
        while True:
            vals = [self.lo + width * (q + rng.random()) for q in range(4)]
            yield sorted(vals + [MG_J2])

    def argv(self, values, workdir):
        argv = ["scan", "phase", "--model", "su2_1", "--label", "0",
                "--N", str(self.N), "--ham", "j1j2",
                "--param-grid", ",".join(repr(v) for v in values),
                "--out-dir", workdir]
        if self.grid is not None:
            argv += ["--grid", self.grid]
        return argv

    def run(self, values, workdir):
        from idmps import cli
        code = cli.run(self.argv(values, workdir))
        with open(os.path.join(workdir, "phase_sweep.csv")) as fh:
            rows = list(csv.reader(fh))
        return {"exit_code": code, "rows": rows}

    def check(self, values, out):
        if out["exit_code"] != 0:
            return [f"exit code {out['exit_code']}"]
        header, rows = out["rows"][0], out["rows"][1:]
        if header != SWEEP_COLUMNS:
            return [f"CSV header {header!r}"]
        if len(rows) != len(values):
            return [f"{len(rows)} CSV rows for {len(values)} parameters"]
        problems = []
        exact = -3.0 * self.N / 8.0
        for want, row in zip(values, rows):
            nums = [float(x) for x in row]
            if not all(math.isfinite(x) for x in nums):
                problems.append(f"non-finite row {row!r}")
            elif nums[0] != want:
                problems.append(f"row for {nums[0]!r}, expected {want!r}")
            elif want == MG_J2:
                for col, x in zip(SWEEP_COLUMNS[2:4], nums[2:4]):
                    if abs(x - exact) > E_TOL:
                        problems.append(f"{col} {x!r} != -3N/8 at J2=0.5")
        return problems

    def margins(self, out):
        return [float(r[2]) - float(r[3]) for r in out["rows"][1:]]


WORKLOADS = {w.name: w for w in (
    RadiusScan(
        "radius-su2_1",
        "psi0 vs J1-J2 at N=14: dense eigh over 15 Sz sectors dominates; "
        "no Pfaffians",
        "su2_1", 0, "j1j2", "J2", 0.25, 0.45, 14),
    RadiusScan(
        "radius-su2_2",
        "psi4 vs bilinear-biquadratic at N=8: per-configuration Pfaffians "
        "dominate; the only apply_site_unitary user",
        "su2_2", 4, "qbq", "theta", 0.1, 0.3, 8),
    PhaseSweepCLI(
        "phase-sweep-cli",
        "scan phase CLI at N=12 over 5 J2 values: block states repeat "
        "across scans; the only workload through the cli layer",
        12, 0.0, 1.0),
)}
