"""Print the certified answer of every solve of a fixed set of problems, so
that two versions of the solver can be compared with one ``diff``.

    python3 tests/compare_answers.py > answers.txt

Run it from each checkout and diff the two files: equal files mean the
same answers bit for bit.  It reads the ``src/``, ``bench/`` and
``tests/helpers.py`` of the checkout that it is in.  Each line of stdout
is ``<group> <index> <answer>``, the answer being
``helpers.certified_answer`` of a ``SolveResult`` (status, x*, objective,
KKT residual, constraint values and active set), the ``repr`` of a
``CalibrationResult``, or the message of an ``InfeasibleProblemError``.
The groups:

* ``sweep``: ``bench/workloads.Sweep`` seeds 1-3, one 16-start
  ``multi_start_solve`` per weight vector (243 solves);
* ``calibrate``: ``bench/workloads.Calibrate`` seeds 1-2, every solve made
  inside the six calibrations, then each ``CalibrationResult``;
* ``random``: 1,500 random problems (numpy seed 2108): weights
  U[0.05, 5]^4, coefficients e^U[-7, 6], the default box, V a share
  U[0, 1] of the box's largest A*l, R a share U[0, 1.2] of eta_hi/A_hi,
  and a start z in [-0.5, 1.5]^5;
* ``scaled``: 60 problems (numpy seed 5), weights U[0.5, 2.5]^4,
  coefficients e^U[-4, 4], the default box and constraints, each solved
  from ``DEFAULT_X_INIT`` at w*10^j for j = -8, -6, ..., 8 (540 solves).

A summary of the barrier's work per group goes to stderr: solves, Newton
steps and stages per solve, the mean steps of the mu = 1 stage, and how
the continuations end (at the inner floor, at a floor stage that stalls,
on exhausted refinement, or after the whole schedule).
"""

from __future__ import annotations

import os
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench"), HERE]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from dockopt import (ConstraintSet, ObjectiveCoefficients,  # noqa: E402
                     WeightVector, default_bounds, solve)
from dockopt.scenarios import DEFAULT_X_INIT  # noqa: E402
from dockopt.solver import (_INNER_FLOOR, _MAX_INNER_ITERATIONS,  # noqa: E402
                            _MU_SCHEDULE, _POLISH_RESIDUAL,
                            InfeasibleProblemError, _BarrierProblem,
                            _solve_from_z)
from helpers import certified_answer  # noqa: E402


def ending(trace) -> str:
    """Which exit ended a continuation, replayed from its trace."""
    best = float("inf")
    for stage in trace:
        residual = max(stage.stationarity, stage.mu)
        best = min(best, residual)
        if residual <= _INNER_FLOOR:
            return "floor"
        if best <= _POLISH_RESIDUAL:
            if stage.mu <= _INNER_FLOOR \
                    and stage.inner_iterations < _MAX_INNER_ITERATIONS:
                return "stalled floor"
            if residual > 10.0 * best:
                return "refinement exhausted"
    return "whole schedule" if len(trace) == len(_MU_SCHEDULE) else "other"


def summarize(group: str, results: list) -> None:
    n = len(results)
    steps = sum(r.iterations for r in results) / n
    stages = sum(len(r.outer_trace) for r in results) / n
    first = sum(r.outer_trace[0].inner_iterations for r in results) / n
    ends = Counter(ending(r.outer_trace) for r in results)
    statuses = Counter(r.status.name for r in results)
    print(f"{group}: {n} solves, {steps:.2f} Newton steps and {stages:.2f} "
          f"stages a solve, {first:.2f} steps at mu = 1; "
          f"{dict(statuses)}; ends {dict(ends)}", file=sys.stderr)


def sweep() -> None:
    results = []
    for seed in (1, 2, 3):
        items = workloads.Sweep(seed, workloads.SIZES["full"])
        for i in range(len(items)):
            result = items.execute(i).output
            results.append(result)
            print("sweep", f"{seed}.{i}", certified_answer(result))
    summarize("sweep", results)


def calibrate() -> None:
    results = []
    for seed in (1, 2):
        items = workloads.Calibrate(seed, workloads.SIZES["full"])
        for i in range(len(items)):
            execution = items.execute(i)
            for k, result in enumerate(execution.solves):
                results.append(result)
                print("calibrate", f"{seed}.{i}.{k}", certified_answer(result))
            print("calibrate", f"{seed}.{i}", repr(execution.output))
    summarize("calibrate", results)


def random_problems() -> None:
    rng = np.random.default_rng(2108)
    bounds = default_bounds()
    hi = bounds.upper
    results = []
    for i in range(1500):
        w = WeightVector(*map(float, rng.uniform(0.05, 5.0, 4)))
        coeff = ObjectiveCoefficients(
            *map(float, np.exp(rng.uniform(-7.0, 6.0, 11))))
        cons = ConstraintSet(float(rng.uniform(0.0, 1.0)) * hi.A * hi.l,
                             float(rng.uniform(0.0, 1.2)) * hi.eta / hi.A)
        z = [float(zi) for zi in rng.uniform(-0.5, 1.5, 5)]
        try:
            result = _solve_from_z(_BarrierProblem(w, coeff, bounds, cons), z)
        except InfeasibleProblemError as exc:
            print("random", i, exc)
            continue
        results.append(result)
        print("random", i, certified_answer(result))
    summarize("random", results)


def scaled_weights() -> None:
    rng = np.random.default_rng(5)
    bounds, cons = default_bounds(), ConstraintSet()
    results = []
    for i in range(60):
        w = [float(wi) for wi in rng.uniform(0.5, 2.5, 4)]
        coeff = ObjectiveCoefficients(
            *map(float, np.exp(rng.uniform(-4.0, 4.0, 11))))
        for j in range(-8, 9, 2):
            scaled = WeightVector(*(wi * 10.0**j for wi in w))
            result = solve(scaled, coeff, bounds, cons, DEFAULT_X_INIT)
            results.append(result)
            print("scaled", f"{i}.{j}", certified_answer(result))
    summarize("scaled", results)


if __name__ == "__main__":
    sweep()
    calibrate()
    random_problems()
    scaled_weights()
