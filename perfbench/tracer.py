"""Per-layer spans recorded from outside idmps.

Tracing replaces the module-level names that idmps code looks up at call
time with timing wrappers, so no file of the package changes. Patching
`idmps.hamiltonians.build`, for instance, also catches the sector builds
that `ground_subspace` makes, because it calls `build` through its module
globals. Each span is [op, id, parent, name, start, end]; spans stay in
memory and are written out when the run ends.

A layer's self time is its spans' time minus the time their direct child
spans cover.
"""
import json
import time
from collections import Counter

SPAN_FIELDS = ["op", "id", "parent", "name", "start", "end"]

# name: (unit, better) of every per-layer metric a traced run reports
LAYER_METRICS = {
    "numerics.pfaffian_calls": ("count", "lower"),
    "numerics.pfaffian_s": ("s", "lower"),
    "numerics.pfaffian_zero_share": ("ratio", "lower"),
    "numerics.eig_calls": ("count", "lower"),
    "numerics.eig_s": ("s", "lower"),
    "numerics.eig_dim_max": ("count", "lower"),
    "numerics.brent_evals": ("count", "lower"),
    "numerics.minimize_s": ("s", "lower"),
    "hamiltonians.build_calls": ("count", "lower"),
    "hamiltonians.build_s": ("s", "lower"),
    "hamiltonians.ground_s": ("s", "lower"),
    "hamiltonians.ground_retries": ("count", "lower"),
    "hamiltonians.eig_kept_share": ("ratio", "higher"),
    "hamiltonians.matvecs": ("count", "lower"),
    "hamiltonians.matvec_s": ("s", "lower"),
    "blocks.builds": ("count", "lower"),
    "blocks.self_s": ("s", "lower"),
    "special.calls": ("count", "lower"),
    "special.s": ("s", "lower"),
    "refstates.calls": ("count", "lower"),
    "refstates.s": ("s", "lower"),
    "hilbert.unitary_s": ("s", "lower"),
    "hilbert.fidelity_s": ("s", "lower"),
    "hilbert.sector_s": ("s", "lower"),
    "experiments.points": ("count", "lower"),
    "experiments.self_s": ("s", "lower"),
    "experiments.energy_margin": ("energy", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.bytes_written": ("bytes", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
}

# per-layer metrics that are counts of work; they must repeat exactly for
# one seed
COUNT_METRICS = ("experiments.points", "numerics.pfaffian_calls",
                 "numerics.eig_calls", "numerics.brent_evals",
                 "special.calls", "hamiltonians.matvecs")


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = 0
        self._stack = []
        self._saved = []

    def timed(self, name, fn, after=None):
        """fn wrapped in a span; after(result, *args, **kwargs) runs once
        the span has closed."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def call(*args, **kwargs):
            rec = [self.op, len(spans), stack[-1] if stack else None, name,
                   0.0, 0.0]
            spans.append(rec)
            stack.append(rec[1])
            rec[4] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[5] = clock()
                stack.pop()
            if after is not None:
                after(out, *args, **kwargs)
            return out

        return call

    def add(self, key, n=1):
        self.counts[self.op, key] += n

    def counting(self, key, fn):
        def call(*args, **kwargs):
            self.add(key)
            return fn(*args, **kwargs)

        return call

    def patch(self, module, attr, wrapper):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self):
        """Wrap every traced call site; undo with uninstall()."""
        from idmps import (blocks, cli, experiments, hamiltonians, hilbert,
                           refstates)
        t = self

        def wrap(module, attr, name, after=None):
            t.patch(module, attr, t.timed(name, getattr(module, attr), after))

        def pfaffian_done(out, *args, **kwargs):
            t.add("pfaffian_zero", out.is_zero)

        def eig_done(out, op, *args, **kwargs):
            t.add("eig_pairs", len(out))
            key = (t.op, "eig_dim_max")
            t.counts[key] = max(t.counts[key], op.dim)

        def ground_done(out, *args, **kwargs):
            t.add("ground_kept", len(out[1]))

        def build_done(op, spec, sector=None):
            # full-space operators are the ones the scan applies for energies
            if sector is None:
                op.apply = t.timed("hamiltonians.matvec", op.apply)

        minimize = experiments.minimize_scalar

        def counted_minimize(f, bracket, **kwargs):
            return minimize(t.counting("brent_evals", f), bracket, **kwargs)

        t.patch(experiments, "minimize_scalar",
                t.timed("numerics.minimize", counted_minimize))
        wrap(blocks, "pfaffian_log", "numerics.pfaffian", pfaffian_done)
        wrap(hamiltonians, "eig_smallest", "numerics.eig", eig_done)
        wrap(hamiltonians, "build", "hamiltonians.build", build_done)
        wrap(hamiltonians, "ground_states", "hamiltonians.ground_states",
             ground_done)
        wrap(hamiltonians, "ground_subspace", "hamiltonians.ground_subspace")
        wrap(blocks, "build_state", "blocks.build")
        for attr, name in (("theta_char_log", "special.theta"),
                           ("prime_form_log", "special.prime_form"),
                           ("weierstrass_nu_log", "special.wp")):
            wrap(blocks, attr, name)
        for attr in ("mg_combination", "aklt_state",
                     "spin1_dimer_combinations"):
            wrap(refstates, attr, "refstates." + attr)
        wrap(experiments, "apply_site_unitary", "hilbert.unitary")
        wrap(experiments, "fidelity_per_site_subspace", "hilbert.fidelity")
        wrap(hilbert, "fidelity_per_site", "hilbert.fidelity")
        # SectorIndex.configs() reaches all_configs through hilbert itself
        for module, attr in ((blocks, "enumerate_sector"),
                             (blocks, "all_configs"),
                             (hamiltonians, "enumerate_sector"),
                             (hilbert, "all_configs")):
            wrap(module, attr, "hilbert.sector")
        wrap(experiments, "scan_radius", "experiments.scan")
        wrap(experiments, "block_state_spin_basis", "experiments.point")
        wrap(cli, "sweep_phase_diagram", "experiments.sweep")
        wrap(cli, "run", "cli.run")

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path):
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": SPAN_FIELDS}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

    def op_metrics(self, op):
        """Per-layer metrics of one traced op."""
        spans = [s for s in self.spans if s[0] == op]
        child = Counter()
        for s in spans:
            if s[2] is not None:
                child[s[2]] += s[5] - s[4]
        calls, total, self_s = Counter(), Counter(), Counter()
        for s in spans:
            dur = s[5] - s[4]
            calls[s[3]] += 1
            total[s[3]] += dur
            self_s[s[3]] += dur - child[s[1]]

        def layer(prefix, table):
            return sum(v for k, v in table.items() if k.startswith(prefix))

        c = Counter({k: v for (o, k), v in self.counts.items() if o == op})
        pf_calls = calls["numerics.pfaffian"]
        return {
            "numerics.pfaffian_calls": pf_calls,
            "numerics.pfaffian_s": total["numerics.pfaffian"],
            "numerics.pfaffian_zero_share":
                c["pfaffian_zero"] / pf_calls if pf_calls else 0.0,
            "numerics.eig_calls": calls["numerics.eig"],
            "numerics.eig_s": total["numerics.eig"],
            "numerics.eig_dim_max": c["eig_dim_max"],
            "numerics.brent_evals": c["brent_evals"],
            "numerics.minimize_s": self_s["numerics.minimize"],
            "hamiltonians.build_calls": calls["hamiltonians.build"],
            "hamiltonians.build_s": self_s["hamiltonians.build"],
            "hamiltonians.ground_s": layer("hamiltonians.ground", self_s),
            "hamiltonians.ground_retries":
                calls["hamiltonians.ground_subspace"]
                - calls["hamiltonians.ground_states"],
            "hamiltonians.eig_kept_share":
                c["ground_kept"] / c["eig_pairs"] if c["eig_pairs"] else 0.0,
            "hamiltonians.matvecs": calls["hamiltonians.matvec"],
            "hamiltonians.matvec_s": total["hamiltonians.matvec"],
            "blocks.builds": calls["blocks.build"],
            "blocks.self_s": self_s["blocks.build"],
            "special.calls": layer("special.", calls),
            "special.s": layer("special.", total),
            "refstates.calls": layer("refstates.", calls),
            "refstates.s": layer("refstates.", total),
            "hilbert.unitary_s": total["hilbert.unitary"],
            "hilbert.fidelity_s": total["hilbert.fidelity"],
            "hilbert.sector_s": total["hilbert.sector"],
            "experiments.points": calls["experiments.point"],
            "experiments.self_s": layer("experiments.", self_s),
            "cli.self_s": self_s["cli.run"],
        }
