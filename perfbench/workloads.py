"""Seeded CLI argument lists for the three benchmark workloads.

The program only ever sees the argument lists made here; everything about a
workload that depends on the seed is drawn from ``random.Random(seed)``, so
the same seed always gives the same lists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("zeros-scan", "verify-all", "cli-cold")

#: zeros-scan: b_min is drawn from [10, 11) on the lattice of the CLI's
#: default scan step.  An off-lattice b_min moves every scan point, and with
#: it the count of spurious brackets in the noise-limited part (b > 25): over
#: 25 uniform draws one window's wall time had a CV of 0.18, more than any
#: bound could hold.  On the lattice the windows share their scan points, so
#: their work is the same (631 F calls) and only the edges differ.
ZERO_STEP = 0.25
ZERO_WIDTH = 30.0

#: cli-cold: rounds of the three call kinds; 5 rounds = 15 fresh processes
#: per pass, and a 30 s run holds about 40 calls, which the p75 tail needs.
#: ``eval`` by the integral or the oracle route is not among them: both fail
#: their reference check (|F - F_ref| <= err_est) somewhere in b in [5, 60],
#: the oracle route at nearly every point and the integral route at about
#: one point in a hundred (see README, "Known failures").
CLI_ROUNDS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple[tuple[str, ...], ...]   # distinct CLI argument lists
    pass_size: int                       # calls in one whole workload run


def _num(x: float) -> str:
    return f"{x:.4f}"


def _zeros_call(rng: random.Random):
    b_min = 10.0 + ZERO_STEP * rng.randrange(round(1.0 / ZERO_STEP))
    return ("zeros", "--b-min", _num(b_min), "--b-max", _num(b_min + ZERO_WIDTH))


def _cli_calls(rng: random.Random):
    for _ in range(CLI_ROUNDS):
        yield ("eval", "--a", _num(rng.uniform(0.1, 0.9)),
               "--b", _num(rng.uniform(100.0, 1000.0)),
               "--method", "series+decomposition")
        yield ("coeffs", "--n-max", str(rng.randint(10, 30)))
        yield ("decompose", "--a", _num(rng.uniform(0.1, 0.9)),
               "--b", _num(rng.uniform(100.0, 1000.0)))


def make(name: str, seed: int) -> Workload:
    """The workload ``name`` for ``seed``."""
    rng = random.Random(seed)
    if name == "zeros-scan":
        return Workload(name, (_zeros_call(rng),), 1)
    if name == "verify-all":
        return Workload(name, (("verify", "--all", "--format", "json"),), 1)
    if name == "cli-cold":
        calls = tuple(_cli_calls(rng))
        return Workload(name, calls, len(calls))
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
