"""T-factory pipeline evaluation.

A pipeline is a sequence of :class:`DistillationRound`\\ s. Round 1 takes
raw (physical) T states with the technology's T-gate error rate; each
later round takes the previous round's outputs. Rounds run one after
another on the same patch of hardware, so the factory's physical qubit
footprint is the *maximum* round footprint while its duration is the *sum*
of round durations.

Failure handling follows the tool: instead of modelling restarts in time,
each round over-provisions parallel unit copies by ``1 / (1 - p_fail)`` so
that the expected number of successful units covers the next round's input
demand.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..qec import QECScheme
from ..qubits import PhysicalQubitParams
from .units import DistillationUnit


class TFactoryError(ValueError):
    """Raised when a pipeline is malformed or infeasible."""


#: A pipeline's structure: one ``(unit, code distance)`` pair per round,
#: the distance ``None`` for a round on bare physical qubits.
PipelineShape = tuple[tuple[DistillationUnit, int | None], ...]


@dataclass(frozen=True)
class DistillationRound:
    """One round of a factory pipeline.

    ``code_distance`` is ``None`` for a round running on bare physical
    qubits (allowed only in the first round) and an odd distance for a
    round running on logical qubits of the factory's QEC scheme.
    """

    unit: DistillationUnit
    code_distance: int | None

    def __post_init__(self) -> None:
        if self.code_distance is None:
            if self.unit.physical_spec is None:
                raise TFactoryError(
                    f"unit {self.unit.name!r} has no physical spec; give a code distance"
                )
        else:
            if self.unit.logical_spec is None:
                raise TFactoryError(
                    f"unit {self.unit.name!r} has no logical spec; "
                    "it can only run on physical qubits"
                )
            if self.code_distance < 1 or self.code_distance % 2 == 0:
                raise TFactoryError(
                    f"code distance must be a positive odd integer, got {self.code_distance}"
                )

    @property
    def is_physical(self) -> bool:
        return self.code_distance is None


@dataclass(frozen=True)
class _RoundReport:
    """Evaluated state of one round within a concrete factory."""

    round: DistillationRound
    num_units: int
    failure_probability: float
    input_error_rate: float
    output_error_rate: float
    physical_qubits: int
    duration_ns: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "unit": self.round.unit.name,
            "unitSpec": self.round.unit.to_dict(),
            "codeDistance": self.round.code_distance,
            "numUnits": self.num_units,
            "failureProbability": self.failure_probability,
            "inputErrorRate": self.input_error_rate,
            "outputErrorRate": self.output_error_rate,
            "physicalQubits": self.physical_qubits,
            "duration_ns": self.duration_ns,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "_RoundReport":
        """Inverse of :meth:`to_dict`, rebuilding the full unit definition."""
        return cls(
            round=DistillationRound(
                unit=DistillationUnit.from_dict(data["unitSpec"]),
                code_distance=data["codeDistance"],
            ),
            num_units=data["numUnits"],
            failure_probability=data["failureProbability"],
            input_error_rate=data["inputErrorRate"],
            output_error_rate=data["outputErrorRate"],
            physical_qubits=data["physicalQubits"],
            duration_ns=data["duration_ns"],
        )


@dataclass(frozen=True)
class TFactory:
    """A fully evaluated T factory (paper Sec. IV-D.4 output group)."""

    rounds: tuple[_RoundReport, ...]
    physical_qubits: int
    duration_ns: float
    output_t_states: int
    output_error_rate: float
    input_t_error_rate: float

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    @property
    def input_t_states(self) -> int:
        """Raw T states consumed per factory run."""
        first = self.rounds[0]
        return first.num_units * first.round.unit.num_input_ts

    def runs_required(self, num_t_states: int) -> int:
        """Factory invocations needed to supply ``num_t_states``."""
        if num_t_states < 0:
            raise ValueError(f"num_t_states must be >= 0, got {num_t_states}")
        return math.ceil(num_t_states / self.output_t_states)

    def to_dict(self) -> dict[str, Any]:
        return {
            "numRounds": self.num_rounds,
            "physicalQubits": self.physical_qubits,
            "duration_ns": self.duration_ns,
            "outputTStates": self.output_t_states,
            "outputErrorRate": self.output_error_rate,
            "inputTErrorRate": self.input_t_error_rate,
            "rounds": [r.to_dict() for r in self.rounds],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TFactory":
        """Inverse of :meth:`to_dict`; the round reports carry full units."""
        return cls(
            rounds=tuple(_RoundReport.from_dict(r) for r in data["rounds"]),
            physical_qubits=data["physicalQubits"],
            duration_ns=data["duration_ns"],
            output_t_states=data["outputTStates"],
            output_error_rate=data["outputErrorRate"],
            input_t_error_rate=data["inputTErrorRate"],
        )


def evaluate_pipeline(
    rounds: Sequence[DistillationRound],
    qubit: PhysicalQubitParams,
    scheme: QECScheme,
) -> TFactory | None:
    """Evaluate a pipeline into a concrete :class:`TFactory`.

    Returns ``None`` when the pipeline is infeasible at these error rates
    (a round's failure probability reaches 1, or distillation fails to
    improve the error, indicating the protocol is operating above its own
    threshold). Raises :class:`TFactoryError` for structurally invalid
    pipelines.
    """
    if not rounds:
        raise TFactoryError("a T factory needs at least one distillation round")
    for r in rounds[1:]:
        if r.is_physical:
            raise TFactoryError(
                "physical-level distillation units may only appear in round 1"
            )

    def clifford(distance: int | None) -> float:
        if distance is None:
            return qubit.clifford_error_rate
        return scheme.logical_error_rate(qubit, distance)

    shape = tuple((r.unit, r.code_distance) for r in rounds)
    solved = _distill(
        shape,
        qubit.t_gate_error_rate,
        clifford,
        DistillationUnit.evaluate,
    )
    if solved is None:
        return None
    per_round, multiplicities = solved

    footprints, physical_qubits, duration_ns = _footprint(
        shape,
        multiplicities,
        functools.partial(_round_cost, qubit=qubit, scheme=scheme),
    )
    reports = tuple(
        _RoundReport(
            round=r,
            num_units=mult,
            failure_probability=failure,
            input_error_rate=e_in,
            output_error_rate=e_out,
            physical_qubits=qubits,
            duration_ns=duration,
        )
        for r, mult, (failure, e_in, e_out), (qubits, duration) in zip(
            rounds, multiplicities, per_round, footprints
        )
    )
    return TFactory(
        rounds=reports,
        physical_qubits=physical_qubits,
        duration_ns=duration_ns,
        output_t_states=rounds[-1].unit.num_output_ts,
        output_error_rate=per_round[-1][2],
        input_t_error_rate=qubit.t_gate_error_rate,
    )


def _round_cost(
    unit: DistillationUnit,
    distance: int | None,
    qubit: PhysicalQubitParams,
    scheme: QECScheme,
) -> tuple[int, float]:
    """Physical qubits of one unit copy and the round duration in ns."""
    if distance is None:
        assert unit.physical_spec is not None
        duration = unit.physical_spec.duration.evaluate_positive(
            qubit.formula_environment(1)
        )
        return unit.physical_spec.num_qubits, duration
    assert unit.logical_spec is not None
    return (
        unit.logical_spec.num_logical_qubits * scheme.physical_qubits(qubit, distance),
        unit.logical_spec.duration_in_cycles * scheme.cycle_time_ns(qubit, distance),
    )


def _footprint(
    shape: PipelineShape,
    multiplicities: Sequence[int],
    round_cost: Callable[[DistillationUnit, int | None], tuple[int, float]],
) -> tuple[list[tuple[int, float]], int, float]:
    """Per-round ``(physical qubits, duration)`` and the factory totals.

    ``round_cost(unit, distance)`` gives :func:`_round_cost`'s pair; the
    catalog build passes a memoized version. Rounds share hardware, so
    the factory needs the largest round footprint and the summed duration.
    """
    rounds: list[tuple[int, float]] = []
    for (unit, distance), mult in zip(shape, multiplicities):
        qubits, duration = round_cost(unit, distance)
        rounds.append((mult * qubits, duration))
    return rounds, max(q for q, _ in rounds), sum(d for _, d in rounds)


def _distill(
    shape: PipelineShape,
    t_error_rate: float,
    clifford: Callable[[int | None], float],
    evaluate: Callable[[DistillationUnit, float, float], tuple[float, float]],
) -> tuple[list[tuple[float, float, float]], list[int]] | None:
    """Forward and backward pass of one pipeline.

    ``clifford(distance)`` gives a round's Clifford error rate and
    ``evaluate(unit, input error, clifford error)`` a unit's
    ``(failure, output error)``; the catalog build passes memoized
    versions of both. Returns ``(per_round, multiplicities)`` with
    ``per_round[i] = (failure, input error, output error)``, or ``None``
    when the pipeline is infeasible.
    """
    # Forward pass: propagate error rates and per-unit failure.
    error_rate = t_error_rate
    per_round: list[tuple[float, float, float]] = []
    for unit, distance in shape:
        failure, out_error = evaluate(unit, error_rate, clifford(distance))
        if failure >= 1.0:
            return None
        if out_error >= error_rate and out_error >= 1.0:
            return None
        per_round.append((failure, error_rate, out_error))
        error_rate = out_error

    # Backward pass: unit multiplicities. The final round runs one unit.
    multiplicities = [0] * len(shape)
    multiplicities[-1] = 1
    for i in range(len(shape) - 2, -1, -1):
        needed_inputs = multiplicities[i + 1] * shape[i + 1][0].num_input_ts
        produced_per_unit = shape[i][0].num_output_ts * (1.0 - per_round[i][0])
        multiplicities[i] = math.ceil(needed_inputs / produced_per_unit)
    return per_round, multiplicities
