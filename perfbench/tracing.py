"""Spans around calls into ddcrb's public functions, recorded from outside.

`Tracer.install()` replaces each traced function by a wrapper wherever a
ddcrb module holds a reference to it, so a caller that did
`from .fim import schur_complement` reaches the wrapper too; `uninstall()`
puts the originals back. Each call records a span (name, start, end,
parent) in memory. The clock excludes the tracer's own bookkeeping, so the
computed counts below do not inflate any layer's time.

Computed counts come from call arguments and return values only:
`fim.validated_elements` (sum of dim^2 over validated FIMs; bytes = 8x),
`fim.dense_nnz_frac` (nonzeros over dim^2, summed over validated FIMs),
`fim.schur_complement.nuisance_dim_max`, `verify.grid_cells` (candidates x M
per estimator call, summed) and `verify.edge_hit_frac` (estimator calls
whose estimate sits on a grid edge, over calls).
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

# (span name, module, attribute path of the traced callable)
TRACED = (
    ("signals.synthesize_pulse_train", "ddcrb.signals", "synthesize_pulse_train"),
    ("bounds.fim_unknown_signal", "ddcrb.bounds", "fim_unknown_signal"),
    ("bounds.jcrb_known", "ddcrb.bounds", "jcrb_known"),
    ("fim.FimMatrix.validate", "ddcrb.fim", "FimMatrix.__post_init__"),
    ("fim.schur_complement", "ddcrb.fim", "schur_complement"),
    ("fim.invert_bound_matrix", "ddcrb.fim", "invert_bound_matrix"),
    ("structure.structure_quantities", "ddcrb.structure", "structure_quantities"),
    ("structure.fim_known_structure", "ddcrb.structure", "fim_known_structure"),
    ("scaled.jcrb_scaled_known_a", "ddcrb.scaled", "jcrb_scaled_known_a"),
    ("scaled.jcrb_structure_known_a", "ddcrb.scaled", "jcrb_structure_known_a"),
    ("scaled.fim_unknown_a", "ddcrb.scaled", "fim_unknown_a"),
    ("covariance.dc_list", "ddcrb.covariance", "dc_list"),
    ("covariance.fim_trace_form", "ddcrb.covariance", "fim_trace_form"),
    ("covariance.crb_correlated", "ddcrb.covariance", "crb_correlated"),
    ("overlap.fim_overlap", "ddcrb.overlap", "fim_overlap"),
    ("overlap.crb_overlap", "ddcrb.overlap", "crb_overlap"),
    ("verify.simulate_observations", "ddcrb.verify", "simulate_observations"),
    ("verify.profile_ml_estimate", "ddcrb.verify", "profile_ml_estimate"),
    ("verify.ml_estimate_known", "ddcrb.verify", "ml_estimate_known"),
    ("cli.main", "ddcrb.cli", "main"),
    ("cli.crb", "ddcrb.cli", "cmd_crb.callback"),
    ("cli.table1", "ddcrb.cli", "cmd_table1.callback"),
    ("cli.sweep", "ddcrb.cli", "cmd_sweep.callback"),
    ("cli.overlap", "ddcrb.cli", "cmd_overlap.callback"),
    ("cli.montecarlo", "ddcrb.cli", "cmd_montecarlo.callback"),
    ("cli.write_rows", "ddcrb.cli", "write_rows"),
)

# the calls whose arguments and results feed the computed counts
_OBSERVED = {"fim.FimMatrix.validate", "fim.schur_complement",
             "verify.profile_ml_estimate", "verify.ml_estimate_known"}


def _on_grid_edge(estimate, obs, cfg) -> bool:
    tau_hat, f_hat = estimate
    n0_hat = tau_hat / obs.delta
    return (any(abs(n0_hat - v) < 1e-9 for v in (min(cfg.tau_grid), max(cfg.tau_grid)))
            or f_hat in (min(cfg.f_grid), max(cfg.f_grid)))


class Tracer:
    def __init__(self):
        self.names: dict[str, int] = {}
        self.spans: list[list] = []   # [name index, start, end, parent index]
        self._stack: list[int] = []
        self._paused = 0.0
        self._patches: list[tuple[object, str, object]] = []
        self.reset_counts()

    def clock(self) -> float:
        return time.perf_counter() - self._paused

    def reset_counts(self):
        self.counts = defaultdict(float)

    # ------------------------------------------------------------ recording

    def open(self, name: str) -> int:
        name_idx = self.names.setdefault(name, len(self.names))
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name_idx, self.clock(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int):
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    def _observe(self, name, args, kwargs, result):
        t0 = time.perf_counter()
        c = self.counts
        if name == "fim.FimMatrix.validate":
            entries = np.asarray(args[0].entries)
            c["fim.validated_elements"] += entries.size
            c["fim.nonzero_elements"] += np.count_nonzero(entries)
        elif name == "fim.schur_complement":
            keep = kwargs.get("keep", args[1] if len(args) > 1 else 2)
            c["fim.schur_complement.nuisance_dim_max"] = max(
                c["fim.schur_complement.nuisance_dim_max"], args[0].dim - keep)
        elif name in ("verify.profile_ml_estimate", "verify.ml_estimate_known"):
            obs, cfg = args[0], args[2]
            c["verify.grid_cells"] += len(cfg.tau_grid) * len(cfg.f_grid) * obs.m
            c["verify.estimates"] += 1
            c["verify.edge_hits"] += _on_grid_edge(result, obs, cfg)
        self._paused += time.perf_counter() - t0

    def _wrap(self, name, fn):
        observe = name in _OBSERVED

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if observe:
                self._observe(name, args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------------- patching

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "ddcrb" or key.startswith("ddcrb."))]
        for name, module, path in TRACED:
            owner = sys.modules[module]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
            wrapper = self._wrap(name, fn)
            if outer:
                self._set(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, key, wrapper)

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------ summaries

    def summarize(self, first: int = 0) -> dict:
        """Per-name total, self time and calls over spans[first:], plus counts."""
        spans = self.spans[first:]
        child = defaultdict(float)
        for name_idx, start, end, parent in spans:
            if parent >= first:
                child[parent - first] += end - start
        out = {}
        for name, _, _ in TRACED:
            out[f"{name}.s"] = 0.0
            out[f"{name}.self_s"] = 0.0
            out[f"{name}.calls"] = 0
        out["pass.self_s"] = 0.0
        names = list(self.names)
        for i, (name_idx, start, end, _) in enumerate(spans):
            name = names[name_idx]
            out[f"{name}.self_s"] += (end - start) - child[i]
            if name != "pass":
                out[f"{name}.s"] += end - start
                out[f"{name}.calls"] += 1
        c = self.counts
        out["fim.validated_elements"] = int(c["fim.validated_elements"])
        out["fim.dense_nnz_frac"] = (c["fim.nonzero_elements"] / c["fim.validated_elements"]
                                     if c["fim.validated_elements"] else 0.0)
        out["fim.schur_complement.nuisance_dim_max"] = int(
            c["fim.schur_complement.nuisance_dim_max"])
        out["verify.grid_cells"] = int(c["verify.grid_cells"])
        out["verify.edge_hit_frac"] = (c["verify.edge_hits"] / c["verify.estimates"]
                                       if c["verify.estimates"] else 0.0)
        return out

    def write(self, path):
        names = list(self.names)
        with open(path, "w") as fh:
            for name_idx, start, end, parent in self.spans:
                fh.write(f'{{"name": "{names[name_idx]}", "start": {start!r}, '
                         f'"end": {end!r}, "parent": {parent}}}\n')
