"""Spans around the calls into mazersim's modules, for the traced run.

The traced run replaces module attributes with timing wrappers defined
here; nothing in ``src/`` changes.  A span records its name, start, end,
parent span and request id.  Spans are kept in flat arrays in memory and
written out as one ``.npz`` file when the run ends.

A layer's self time is its spans' durations minus the part their child
spans cover.  Layer times come from serial requests only: a pooled sweep
runs its rows in forked workers, whose spans never reach this process, so
its time is judged by ``mazer.pool_efficiency`` instead.

A wrapped name that the program no longer has is skipped, and the metrics
that need it read null.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

# (module, attribute, layer).  The cli module imports some names into its
# own namespace, so those references are wrapped there as well.
WRAPS = (
    ("mazersim.mazer", "build_grid", "grid"),
    ("mazersim.mazer", "solve_scattering", "transfer"),
    ("mazersim.cli", "build_grid", "grid"),
    ("mazersim.cli", "solve_scattering", "transfer"),
    ("mazersim.grid", "find_turning_points", "grid"),
    ("mazersim.transfer", "basis_eval", "segment_basis"),
    ("mazersim.segment_basis", "cyl_bessel", "specfun"),
    ("mazersim.cli", "sweep_kappaL", "mazer"),
    ("mazersim.cli", "convergence_study", "mazer"),
    ("mazersim.cli", "wavefunction", "transfer"),
    ("mazersim.cli", "sech2_analytic", "oracles"),
    ("mazersim.cli", "mesa_analytic", "oracles"),
)

# Root span of a request: the benchmark's own call into the program.
ROOTS = {"api": ("mazer.sweep_kappaL", "mazer"), "cli": ("cli.main", "cli")}

REGIMES = ("flat_free", "flat_allowed", "flat_forbidden",
           "slope_allowed", "slope_forbidden")

# name -> (unit, better), in the order they are printed
PER_LAYER = {
    "grid.builds": ("count", "higher"),
    "grid.busy_s": ("s", "lower"),
    "grid.ms_per_build": ("ms", "lower"),
    "grid.nodes": ("count", "lower"),
    "grid.us_per_node": ("us", "lower"),
    "grid.alpha_passes": ("count", "lower"),
    "grid.turning_points": ("count", "lower"),
    "transfer.solves": ("count", "higher"),
    "transfer.self_s": ("s", "lower"),
    "transfer.joins": ("count", "lower"),
    "transfer.us_per_join": ("us", "lower"),
    "transfer.max_decades": ("decades", "lower"),
    "transfer.t_underflows": ("count", "lower"),
    "transfer.us_per_sample": ("us", "lower"),
    "segment_basis.evals": ("count", "higher"),
    **{f"segment_basis.evals.{r}": ("count", "higher") for r in REGIMES},
    "segment_basis.busy_s": ("s", "lower"),
    "segment_basis.us_per_eval": ("us", "lower"),
    "specfun.calls": ("count", "higher"),
    "specfun.busy_s": ("s", "lower"),
    "mazer.rows": ("count", "higher"),
    "mazer.self_s": ("s", "lower"),
    "mazer.transparent_rows": ("count", "higher"),
    "mazer.pool_efficiency": ("ratio", "higher"),
    "mazer.max_closure_defect": ("ratio", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.us_per_row": ("us", "lower"),
    "cli.bytes_written": ("bytes", "higher"),
    "oracles.busy_s": ("s", "lower"),
    "trace.overhead": ("ratio", "higher"),
    "trace.residual_s": ("s", "lower"),
}


# --- observers: counts taken from a wrapped call's arguments and result ----

def _grid_built(counts, args, kwargs, grid):
    counts["grid.nodes"] += len(grid.points)
    counts["grid.turning_points"] += len(grid.turning_points)


def _solved(counts, args, kwargs, result):
    grid = args[0] if args else kwargs["grid"]
    counts["transfer.joins"] += len(grid.segments) - 1
    counts["transfer.max_decades"] = max(
        counts["transfer.max_decades"], abs(result.log10_scale))
    if result.t == 0 and result.t_log10_mag <= -300.0:
        counts["transfer.t_underflows"] += 1


def _basis_evaluated(counts, args, kwargs, result):
    seg = args[0] if args else kwargs["seg"]
    counts[f"segment_basis.evals.{seg.regime.value}"] += 1


def _sampled(counts, args, kwargs, result):
    counts["transfer.samples"] += len(result)


OBSERVERS = {
    "build_grid": _grid_built,
    "solve_scattering": _solved,
    "basis_eval": _basis_evaluated,
    "wavefunction": _sampled,
}

# metrics that read null when a span they are computed from is missing
NEEDS = {
    "grid.": ("mazer.build_grid",),
    "grid.alpha_passes": ("grid.find_turning_points",),
    "transfer.": ("mazer.solve_scattering",),
    "transfer.us_per_sample": ("cli.wavefunction",),
    "segment_basis.": ("transfer.basis_eval",),
    "specfun.": ("segment_basis.cyl_bessel",),
    "oracles.": ("cli.sech2_analytic", "cli.mesa_analytic"),
}


class Tracer:
    """Installs the wrappers and collects spans and counts."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_request = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.request_id = -1
        self.request_pool: list[bool] = []
        self.request_wall: list[float] = []
        self.request_rows: list[int] = []
        self.counts: Counter = Counter()
        self.missing: set[str] = set()
        self._restore: list[tuple[object, str, object]] = []
        self._roots = {kind: self._name_id(*root) for kind, root in ROOTS.items()}

    def _name_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layers.append(layer)
        return len(self.names) - 1

    def install(self) -> None:
        for module_name, attr, layer in WRAPS:
            span = f"{module_name.rsplit('.', 1)[1]}.{attr}"
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.add(span)
                continue
            wrapper = self._wrap(fn, self._name_id(span, layer), span,
                                 OBSERVERS.get(attr))
            setattr(module, attr, wrapper)
            self._restore.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def _wrap(self, fn, name_id: int, span: str, observe):
        names, parents, requests = self.span_name, self.span_parent, self.span_request
        starts, ends, stack, counts = self.span_start, self.span_end, self.stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            requests.append(self.request_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                try:
                    observe(counts, args, kwargs, result)
                except (AttributeError, TypeError, KeyError, IndexError):
                    # the program changed shape under the observer: the
                    # metrics computed from this span read null
                    self.missing.add(span)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def request(self, kind: str, pool: bool, call):
        """Run one request under its root span."""
        self.request_id = len(self.request_pool)
        self.request_pool.append(pool)
        root = self._roots["cli" if kind.startswith("cli_") else "api"]
        return self._wrap(call, root, self.names[root], None)()

    def end_request(self, wall: float, rows: int) -> None:
        self.request_wall.append(wall)
        self.request_rows.append(rows)
        self.request_id = -1

    # --- results -------------------------------------------------------------

    def _arrays(self):
        name = np.frombuffer(self.span_name, dtype=np.uint16).astype(np.intp)
        parent = np.frombuffer(self.span_parent, dtype=np.int64)
        request = np.frombuffer(self.span_request, dtype=np.int64)
        start = np.frombuffer(self.span_start, dtype=np.float64)
        end = np.frombuffer(self.span_end, dtype=np.float64)
        return name, parent, request, start, end

    def metrics(self, untraced, traced) -> dict[str, float | None]:
        """Per-layer metrics from the spans and the two measurements."""
        name, parent, request, start, end = self._arrays()
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        pool = np.array(self.request_pool + [True], dtype=bool)
        serial = ~pool[request]      # request -1 (outside any request) is dropped
        layer_ids = {layer: i for i, layer in enumerate(dict.fromkeys(self.layers))}
        span_layer = np.array([layer_ids[lay] for lay in self.layers])[name]
        outer = np.ones_like(serial)
        outer[has_parent] = span_layer[parent[has_parent]] != span_layer[has_parent]

        def named(*span_names):
            ids = [i for i, n in enumerate(self.names) if n in span_names]
            return np.isin(name, ids) & serial

        def count(*span_names):
            return int(np.count_nonzero(named(*span_names)))

        def busy(layer):
            mask = (span_layer == layer_ids.get(layer, -1)) & outer & serial
            return float(dur[mask].sum())

        def self_time(layer):
            return float(own[(span_layer == layer_ids.get(layer, -1)) & serial].sum())

        def per(a, b, scale=1.0):
            return scale * a / b if b else 0.0

        c = self.counts
        builds = count("mazer.build_grid", "cli.build_grid")
        solves = count("mazer.solve_scattering", "cli.solve_scattering")
        solve_s = float(dur[named("mazer.solve_scattering",
                                  "cli.solve_scattering")].sum())
        wave_s = float(dur[named("cli.wavefunction")].sum())
        evals = count("transfer.basis_eval")
        grid_s = busy("grid")
        basis_s = busy("segment_basis")
        cli_self = self_time("cli")
        cli_rows = sum(rows for rows, p in zip(self.request_rows, self.request_pool)
                       if not p)
        serial_wall = sum(w for w, p in zip(self.request_wall, self.request_pool)
                          if not p)
        out = {
            "grid.builds": builds,
            "grid.busy_s": grid_s,
            "grid.ms_per_build": per(grid_s, builds, 1e3),
            "grid.nodes": per(c["grid.nodes"], builds),
            "grid.us_per_node": per(grid_s, c["grid.nodes"], 1e6),
            "grid.alpha_passes": per(count("grid.find_turning_points"), builds),
            "grid.turning_points": per(c["grid.turning_points"], builds),
            "transfer.solves": solves,
            "transfer.self_s": self_time("transfer"),
            "transfer.joins": per(c["transfer.joins"], solves),
            "transfer.us_per_join": per(solve_s, c["transfer.joins"], 1e6),
            "transfer.max_decades": c["transfer.max_decades"],
            "transfer.t_underflows": c["transfer.t_underflows"],
            "transfer.us_per_sample": per(wave_s, c["transfer.samples"], 1e6),
            "segment_basis.evals": evals,
            **{f"segment_basis.evals.{r}": c[f"segment_basis.evals.{r}"]
               for r in REGIMES},
            "segment_basis.busy_s": basis_s,
            "segment_basis.us_per_eval": per(basis_s, evals, 1e6),
            "specfun.calls": count("segment_basis.cyl_bessel"),
            "specfun.busy_s": busy("specfun"),
            "mazer.rows": traced.mazer_rows,
            "mazer.self_s": self_time("mazer"),
            "mazer.transparent_rows": traced.transparent_rows,
            "mazer.pool_efficiency": per(untraced.pool_children_cpu_s,
                                         untraced.pool_worker_s),
            "mazer.max_closure_defect": traced.max_closure,
            "cli.self_s": cli_self,
            "cli.us_per_row": per(cli_self, cli_rows, 1e6),
            "cli.bytes_written": traced.bytes_written,
            "oracles.busy_s": busy("oracles"),
            "trace.overhead": per(traced.rows_per_s, untraced.rows_per_s),
            "trace.residual_s": serial_wall - float(own[serial].sum()),
        }
        for prefix, needed in NEEDS.items():
            if any(n in self.missing for n in needed):
                for key in out:
                    if key.startswith(prefix):
                        out[key] = None
        return out

    def write(self, path: Path) -> None:
        name, parent, request, start, end = self._arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names), layers=np.array(self.layers),
            name=name.astype(np.uint16), parent=parent, request=request,
            start=start, end=end,
            request_pool=np.array(self.request_pool, dtype=bool),
            request_wall=np.array(self.request_wall),
            request_rows=np.array(self.request_rows))
