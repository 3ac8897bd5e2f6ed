"""The three benchmark workloads: inputs from a seed, one call per item.

A workload is a fixed, seeded list of items.  The runner issues them in
passes, one client in a closed loop: each call starts only after the
previous one returned.  Every item does the same work on every pass, so
a run's figures are medians per item across passes, then statistics
across items; where a run stops inside a pass does not change the mix.

* ``sweep``: one 16-start ``multi_start_solve`` per weight vector.  The
  81 weight vectors are a jittered 3^4 grid over [0.5, 2.5]^4: one
  uniform draw from the middle third of each cell.  Solve times are
  bimodal in the weights, and draws spread over whole cells moved the
  median solve time by about 6% from seed to seed.
* ``calibrate``: ``scenarios.calibrate`` on each built-in scenario from
  all-ones coefficients, 4 starts per evaluation, fixed budget.  An op
  is one evaluation (one 4-start solve inside Nelder-Mead).
* ``screen``: one round is ``total_cost_arrays`` over a batch of random
  designs, one ``simulate_docking`` and one ``reliability_correlation``.
"""

from __future__ import annotations

import itertools
import math
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

import dockopt.objective
import dockopt.oracle
import dockopt.scenarios
import dockopt.solver
from dockopt import (ConstraintSet, DesignVector, DockGeometry,
                     ObjectiveCoefficients, SimulationConfig, SolverSettings,
                     WeightVector, builtin_scenarios, default_bounds,
                     reference_coefficients)

import checks

# Computed, not measured: the bulk path reads five float64 inputs and
# writes one float64 J per design; the simulator allocates a (n, 2)
# float64 error array, a float64 magnitude and a bool mask per sample.
BULK_BYTES_PER_DESIGN = 6 * 8
ORACLE_BYTES_PER_SAMPLE = 2 * 8 + 8 + 1

SIZES = {
    "full": {"sweep_cells": 3, "calibrate_budget": 40,
             "screen_designs": 1_000_000, "screen_batches": 2,
             "screen_samples": 1_000_000, "corr_designs": 12,
             "corr_samples": 50_000},
    "smoke": {"sweep_cells": 1, "calibrate_budget": 3,
              "screen_designs": 2_000, "screen_batches": 2,
              "screen_samples": 20_000, "corr_designs": 12,
              "corr_samples": 20_000},
}


@dataclass
class Execution:
    """One call of one item: its wall time, the latency of each op inside
    it, the solves it made, and a fingerprint that must repeat exactly.
    ``start`` and ``op_starts`` are ``time.perf_counter()`` readings."""

    seconds: float
    op_seconds: list[float]
    solves: list = field(default_factory=list)
    fingerprint: tuple = ()
    output: object = None
    start: float = 0.0
    op_starts: list[float] = field(default_factory=list)


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


def _no_pause() -> float:
    return 0.0


class Sweep:
    name = "sweep"
    speed = "newton"

    def __init__(self, seed: int, size: dict) -> None:
        k = size["sweep_cells"]
        rng = np.random.default_rng(seed)
        cells = np.array(list(itertools.product(range(k), repeat=4)), float)
        jitter = (rng.random(cells.shape) - 0.5) / 3.0
        w = 0.5 + (cells + 0.5 + jitter) * (2.0 / k)
        self.weights = [WeightVector(*map(float, row))
                        for row in w[rng.permutation(len(w))]]
        self.coeff = reference_coefficients()
        self.bounds = default_bounds()
        self.cons = ConstraintSet()
        self.settings = SolverSettings()
        self.sizes = {"weight_vectors": len(self.weights),
                      "weight_box": [0.5, 2.5],
                      "multistart_count": self.settings.multistart_count}

    def __len__(self) -> int:
        return len(self.weights)

    def warm_up(self) -> None:
        self.execute(0)

    def execute(self, i: int, tracer=None, pause=_no_pause) -> Execution:
        w = self.weights[i]
        t0 = time.perf_counter()
        with _span(tracer, "solver.multi_start_solve"):
            result = dockopt.solver.multi_start_solve(
                w, self.coeff, self.bounds, self.cons, self.settings)
        dt = time.perf_counter() - t0
        pause()
        return Execution(dt, [dt], [result], result.x_star.as_tuple(), result,
                         t0, [t0])

    def check_item(self, i: int, output) -> None:
        w = self.weights[i]
        ref = checks.reference_optimum(w, self.coeff, self.bounds, self.cons)
        checks.check_solve(output, w, self.coeff, self.bounds, self.cons, ref)

    def quality(self, outputs: dict) -> dict:
        return {}


class Calibrate:
    name = "calibrate"
    speed = "newton"

    def __init__(self, seed: int, size: dict) -> None:
        self.scenarios = builtin_scenarios()
        self.budget = size["calibrate_budget"]
        self.settings = SolverSettings(multistart_count=4, seed=seed)
        self.sizes = {"scenarios": [s.name for s in self.scenarios],
                      "budget": self.budget, "multistart_count": 4,
                      "solver_seed": seed}

    def __len__(self) -> int:
        return len(self.scenarios)

    def warm_up(self) -> None:
        dockopt.scenarios.calibrate(self.scenarios[0], ObjectiveCoefficients(),
                                    budget=3, settings=self.settings)

    def execute(self, i: int, tracer=None, pause=_no_pause) -> Execution:
        scenario = self.scenarios[i]
        latencies: list[float] = []
        starts: list[float] = []
        solves: list = []
        paused = 0.0
        inner = dockopt.scenarios.multi_start_solve

        def timed(*args, **kwargs):
            nonlocal paused
            t = time.perf_counter()
            result = inner(*args, **kwargs)
            latencies.append(time.perf_counter() - t)
            starts.append(t)
            solves.append(result)
            paused += pause()
            return result

        dockopt.scenarios.multi_start_solve = timed
        try:
            t0 = time.perf_counter()
            with _span(tracer, "scenarios.calibrate"):
                result = dockopt.scenarios.calibrate(
                    scenario, ObjectiveCoefficients(), budget=self.budget,
                    settings=self.settings)
            dt = time.perf_counter() - t0 - paused
        finally:
            dockopt.scenarios.multi_start_solve = inner
        return Execution(dt, latencies, solves,
                         (result.residual, result.evaluations), result,
                         t0, starts)

    def check_item(self, i: int, output) -> None:
        checks.check_calibration(output, self.scenarios[i], self.settings,
                                 self.budget)

    def quality(self, outputs: dict) -> dict:
        """Summed residual and evaluations of one pass."""
        return {"residual": math.fsum(r.residual for r in outputs.values()),
                "evaluations": sum(r.evaluations for r in outputs.values())}


class Screen:
    name = "screen"
    speed = "bulk"

    def __init__(self, seed: int, size: dict) -> None:
        rng = np.random.default_rng(seed)
        bounds = default_bounds()
        lo = np.array(bounds.lower.as_tuple())[:, None]
        hi = np.array(bounds.upper.as_tuple())[:, None]
        n = size["screen_designs"]
        self.batches = [lo + (hi - lo) * rng.random((5, n))
                        for _ in range(size["screen_batches"])]
        self.w = WeightVector(*map(float, rng.uniform(0.5, 2.5, 4)))
        self.coeff = reference_coefficients()
        self.sigma_c = float(rng.uniform(0.05, 0.2))
        self.samples = size["screen_samples"]
        self.sim = [SimulationConfig(
            geometry=DockGeometry(0.0, 2.0 * math.pi, 0.0, math.pi / 2.0,
                                  clearance=(1.0 + float(eta)) * self.sigma_c),
            sigma_c=self.sigma_c, samples=self.samples,
            seed=int(rng.integers(2**31)))
            for eta in rng.random(size["screen_batches"])]
        k = size["corr_designs"]
        fixed = rng.uniform(bounds.lower.as_tuple()[:4],
                            bounds.upper.as_tuple()[:4]).tolist()
        etas = (np.arange(k) + rng.random(k)) / k
        self.corr_designs = [DesignVector(*fixed, float(eta)) for eta in etas]
        self.corr_coeff = ObjectiveCoefficients()
        self.corr_samples = size["corr_samples"]
        self.corr_seed = int(rng.integers(2**31))
        self.check_rows = rng.choice(n, size=min(n, 64), replace=False)
        self.sizes = {"designs_per_round": n,
                      "batches": len(self.batches),
                      "samples_per_round": self.samples_per_round,
                      "simulate_samples": self.samples,
                      "correlation_designs": k,
                      "correlation_samples": self.corr_samples}

    @property
    def samples_per_round(self) -> int:
        return self.samples + len(self.corr_designs) * self.corr_samples

    def __len__(self) -> int:
        return len(self.batches)

    def warm_up(self) -> None:
        self.execute(0)

    def execute(self, i: int, tracer=None, pause=_no_pause) -> Execution:
        A, l, u, e, eta = self.batches[i]
        t0 = time.perf_counter()
        with _span(tracer, "screen.round"):
            with _span(tracer, "objective.bulk"):
                values = dockopt.objective.total_cost_arrays(
                    A, l, u, e, eta, self.w, self.coeff)
            # Spanned by tracing.patched, like the calls inside the
            # correlation below.
            report = dockopt.oracle.simulate_docking(self.sim[i])
            with _span(tracer, "oracle.reliability_correlation"):
                rho = dockopt.oracle.reliability_correlation(
                    self.corr_designs, self.corr_coeff, self.sigma_c,
                    self.corr_samples, self.corr_seed)
        dt = time.perf_counter() - t0
        pause()
        fingerprint = (float(np.sum(values)), report.success_rate, rho)
        return Execution(dt, [dt], [], fingerprint, (values, report, rho),
                         t0, [t0])

    def check_item(self, i: int, output) -> None:
        values, report, rho = output
        checks.check_bulk(values, self.batches[i], self.w, self.coeff,
                          self.check_rows)
        checks.check_simulation(report, self.sim[i].geometry.clearance,
                                self.sigma_c)
        checks.check_correlation(rho)

    def quality(self, outputs: dict) -> dict:
        return {}


WORKLOADS = {cls.name: cls for cls in (Sweep, Calibrate, Screen)}
