"""Seeded workload inputs: the program only ever sees these documents.

The seed shifts the budget ladders (by a fraction of a rung, so every
point stays inside the same feasible range), the optimize questions, the
order of the service's hot set and its miss sequence.
"""

from __future__ import annotations

import random

ALGORITHMS = ["schoolbook", "karatsuba", "windowed"]
BITS = [256, 512, 1024, 2048]
# Every (algorithm, bits, profile, budget) point of the grid is feasible:
# an infeasible point is never stored, so a "warm" sweep would recompute
# it and pay a catalog build.
SWEEP_PROFILES = ["qubit_gate_ns_e3", "qubit_gate_ns_e4", "qubit_gate_us_e4", "qubit_maj_ns_e6"]
SWEEP_BUDGETS = 25
# A cold sweep of the full grid takes ~11 s, one operation per run; the
# cold grid keeps every algorithm, size and profile (so every catalog
# build) and the first rungs of the ladder, for several operations per run.
COLD_BUDGETS = 5

OPTIMIZE_PROFILES = ["qubit_gate_ns_e3", "qubit_maj_ns_e4"]
OPTIMIZE_RUNGS = 128
MONTH_S = 30 * 86_400.0

SERVE_PROFILES = ["qubit_gate_ns_e3", "qubit_gate_ns_e4"]
HOT_SET_SIZE = 64
MISS_SHARE = 0.10


def sweep_grid(seed: int, budgets: int = SWEEP_BUDGETS) -> dict:
    """The Fig. 3/4-style grid: 3 x 4 x 4 x ``budgets`` (1,200 points by default)."""
    shift = random.Random(f"sweep-{seed}").random()
    return {
        "base": {"program": {"multiplier": {"algorithm": ALGORITHMS[0], "bits": BITS[0]}}},
        "axes": [
            {"field": "program.multiplier.algorithm", "values": ALGORITHMS},
            {"field": "program.multiplier.bits", "values": BITS},
            {"field": "qubit", "values": SWEEP_PROFILES},
            {"field": "budget",
             "geom": {"start": 1e-5 * 1.4 ** shift, "factor": 1.4, "count": budgets}},
        ],
    }


def optimize_question(seed: int, index: int) -> dict:
    """Question ``index`` of a run: RSA-2048's smallest machine within a month.

    Each question has its own budget ladder, so no two questions share a
    grid point; index -1 is the earlier question set-up stores.
    """
    shift = random.Random(f"optimize-{seed}-{index}").random()
    return {
        "base": {"program": {"name": "rsa_2048"}},
        "axes": [
            {"field": "qubit", "values": OPTIMIZE_PROFILES},
            {"field": "budget",
             "geom": {"start": 1e-9 * 1.12 ** shift, "factor": 1.12, "count": OPTIMIZE_RUNGS}},
        ],
        "objective": "min-qubits",
        "constraints": {"maxRuntime_s": MONTH_S},
    }


def _serve_spec(profile: str, budget: float) -> dict:
    return {"program": {"name": "rsa_2048"}, "qubit": {"profile": profile}, "budget": budget}


def hot_set(seed: int) -> list[dict]:
    """The specs set-up primes into the store, in a seeded order."""
    rng = random.Random(f"hot-{seed}")
    shift = rng.random()
    rungs = HOT_SET_SIZE // len(SERVE_PROFILES)
    specs = [
        _serve_spec(profile, 1e-6 * 1.3 ** (shift + rung))
        for profile in SERVE_PROFILES
        for rung in range(rungs)
    ]
    rng.shuffle(specs)
    return specs


class RequestStream:
    """One client's request sequence: hot-set hits and fresh-budget misses."""

    def __init__(self, seed: int, client: int, hot: list[dict]) -> None:
        self._rng = random.Random(f"stream-{seed}-{client}")
        self._hot = hot

    def next(self) -> tuple[str, dict]:
        rng = self._rng
        if rng.random() < MISS_SHARE:
            # A budget no other request uses (a continuous draw), inside
            # the hot set's feasible range.
            budget = 10 ** rng.uniform(-6.0, -3.1)
            return "miss", _serve_spec(rng.choice(SERVE_PROFILES), budget)
        return "hit", self._hot[rng.randrange(len(self._hot))]
