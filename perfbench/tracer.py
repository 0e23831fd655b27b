"""Run one pathrev CLI command with a span around every call into a layer.

    python perfbench/tracer.py <trace.json> <pathrev arguments...>

Wrappers are installed from here, before the command starts; the package is
not edited.  A function bound into another module with `from .x import y`
is patched in the module that calls it, because patching only its defining
module would miss those calls.  Methods are patched on their class.  Spans
(name, start, end, parent) and counters stay in memory and are written once,
when the command has returned; the exit code is the command's.
"""
from __future__ import annotations

import functools
import json
import sys
import time

import pathrev.cli as cli
import pathrev.density as density
import pathrev.models as models
import pathrev.reversal as reversal
import pathrev.simulate as simulate
import pathrev.verify as verify

perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list = []   # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.drift_fields: list = []

    def add(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(n)

    def wrap(self, fn, name, count=None):
        """fn wrapped in a span; name may be a function of the call's
        arguments, count is called with (tracer, args, result)."""
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                spans[idx] = (name(args) if callable(name) else name, t0, t1, parent)
            if count is not None:
                count(self, args, out)
            return out

        return traced

    def patch(self, owner, attr: str, name, count=None) -> None:
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, count))

    def install(self) -> None:
        for attr in ("cmd_run", "cmd_simulate", "cmd_reverse", "cmd_entropy",
                     "cmd_verify", "cmd_rw"):
            self.patch(cli, attr, "cli.command")

        self.patch(cli, "euler_maruyama", "simulate.euler", lambda tr, a, e: tr.add(
            "simulate.euler_path_steps", e.paths.shape[0] * (e.paths.shape[1] - 1)))
        self.patch(cli, "ctmc_simulate", "simulate.ctmc", lambda tr, a, e: tr.add(
            "simulate.ctmc_jumps", sum(len(ev) for ev in e.events)))
        for mod in (simulate, verify):
            self.patch(mod, "path_rng", "core.path_rng",
                       lambda tr, a, r: tr.add("core.path_rng_calls", 1))
        self.patch(cli, "save_ensemble", "core.save_ensemble")

        self.patch(models.GaussianFlow, "at", "models.gaussian_at",
                   lambda tr, a, g: tr.add("models.gaussian_at_calls", 1))

        def kernel_evals(tr, args, out):
            model, x = args[0], args[1]
            rows = 1 if getattr(x, "ndim", 2) == 1 else len(x)
            tr.add("density.kde_kernel_evals", rows * model.n_samples)

        self.patch(density.KdeModel, "score", "density.kde_score", kernel_evals)
        self.patch(density.KdeModel, "logpdf", "density.kde_logpdf", kernel_evals)
        self.patch(density, "kde_fit", "density.kde_fit",
                   lambda tr, a, m: tr.add("density.kde_fits", 1))

        def flow_span(args):
            return "density.exact" if args[0].tag.startswith("exact:") else "density.flow"

        self.patch(density.DensityFlow, "pdf", flow_span)
        self.patch(density.DensityFlow, "score", flow_span)
        self.patch(density.DensityFlow, "in_support", flow_span,
                   lambda tr, a, r: tr.add("density.in_support_calls", 1))

        field = reversal.BackwardDriftField
        init = field.__init__

        def register(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            self.drift_fields.append(obj)

        field.__init__ = register
        self.patch(field, "__call__", "reversal.backward_drift", lambda tr, a, r: tr.add(
            "reversal.backward_drift_points", 1 if getattr(a[2], "ndim", 2) == 1 else len(a[2])))

        self.patch(cli, "current_osmosis_decomposition", "entropy.report")
        self.patch(cli, "heat_flow_dissipation", "entropy.dissipation")
        self.patch(cli, "two_sample_energy", "verify.energy_test",
                   lambda tr, a, r: tr.add("verify.energy_permutations", r.n_perm))
        for attr in ("ibp_residual", "continuity_residual", "carre_du_champ_estimate",
                     "nelson_forward_derivative", "detailed_balance_residual",
                     "graph_ibp_residual"):
            self.patch(cli, attr, "verify.other_checks")

    def dump(self, path: str) -> None:
        counts = dict(self.counts)
        counts["reversal.floor_hits"] = sum(f.floor_hits for f in self.drift_fields)
        counts["reversal.cap_hits"] = sum(f.cap_hits for f in self.drift_fields)
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "counts": counts}, f)


def main(argv: list[str]) -> int:
    trace_path, args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(args)
    finally:
        tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
