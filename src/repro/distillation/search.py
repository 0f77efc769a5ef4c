"""T-factory design search (paper Sec. III-D).

Given the required output T-state error rate, the designer enumerates
candidate pipelines — number of rounds, unit choice per round, physical
first round or not, and per-round code distances — evaluates each, and
keeps the feasible factory minimizing physical qubits, breaking ties by
duration. This mirrors the tool's exploration of the "number of qubits
versus runtime of the factories" trade-off and exposes the full frontier
for callers that want to pick differently.

The pipeline space does not depend on the required error rate, so the
designer evaluates it once per (qubit, scheme) into a columnar
:class:`FactoryCatalog`: parallel lists of physical qubits, duration,
output error rate and output T states, plus each pipeline's shape, in
enumeration order. The build tabulates the scheme's per-distance
quantities, memoizes unit evaluations (pipelines share prefixes) and
creates no factory objects; :meth:`FactoryCatalog.factory` materializes
a :class:`TFactory` through :func:`evaluate_pipeline` only when one is
asked for. The catalog also owns the preference index that the
vectorized kernel searches.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Sequence

from ..qec import QECScheme
from ..qubits import PhysicalQubitParams
from .factory import (
    DistillationRound,
    PipelineShape,
    TFactory,
    TFactoryError,
    _distill,
    _footprint,
    _round_cost,
    evaluate_pipeline,
)
from .units import PREDEFINED_UNITS, DistillationUnit


def _odd_distances(limit: int) -> list[int]:
    return list(range(1, limit + 1, 2))


@dataclass(eq=False)
class FactoryCatalog:
    """The feasible pipelines of one (qubit, scheme), as parallel columns.

    Entry ``k`` of every column describes the ``k``-th feasible pipeline
    in the designer's enumeration order; ``shapes[k]`` is enough to
    rebuild its :class:`TFactory` with :meth:`factory`.
    """

    qubit: PhysicalQubitParams
    scheme: QECScheme
    shapes: list[PipelineShape] = field(default_factory=list)
    physical_qubits: list[int] = field(default_factory=list)
    duration_ns: list[float] = field(default_factory=list)
    output_error_rate: list[float] = field(default_factory=list)
    output_t_states: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._factories: dict[int, TFactory] = {}

    @classmethod
    def build(
        cls,
        shapes: Iterable[PipelineShape],
        qubit: PhysicalQubitParams,
        scheme: QECScheme,
    ) -> "FactoryCatalog":
        """Evaluate every shape, keeping the feasible ones.

        The numbers are those :func:`evaluate_pipeline` computes — the
        forward and backward pass and the footprint are the same helpers —
        but the scheme's formulas run once per (unit, distance) and each
        unit's distillation once per distinct (input error, Clifford
        error) pair.
        """
        catalog = cls(qubit, scheme)
        cliffords: dict[int | None, float] = {None: qubit.clifford_error_rate}
        round_costs: dict[tuple[int, int | None], tuple[int, float]] = {}
        evaluations: dict[tuple[int, float, float], tuple[float, float]] = {}

        def clifford(distance: int | None) -> float:
            rate = cliffords.get(distance)
            if rate is None:
                rate = cliffords[distance] = scheme.logical_error_rate(qubit, distance)
            return rate

        def evaluate(
            unit: DistillationUnit, input_error: float, clifford_error: float
        ) -> tuple[float, float]:
            key = (id(unit), input_error, clifford_error)
            result = evaluations.get(key)
            if result is None:
                result = evaluations[key] = unit.evaluate(input_error, clifford_error)
            return result

        def round_cost(unit: DistillationUnit, distance: int | None) -> tuple[int, float]:
            key = (id(unit), distance)
            cost = round_costs.get(key)
            if cost is None:
                cost = round_costs[key] = _round_cost(unit, distance, qubit, scheme)
            return cost

        for shape in shapes:
            solved = _distill(shape, qubit.t_gate_error_rate, clifford, evaluate)
            if solved is None:
                continue
            per_round, multiplicities = solved
            _, physical_qubits, duration_ns = _footprint(
                shape, multiplicities, round_cost
            )
            catalog.shapes.append(shape)
            catalog.physical_qubits.append(physical_qubits)
            catalog.duration_ns.append(duration_ns)
            catalog.output_error_rate.append(per_round[-1][2])
            catalog.output_t_states.append(shape[-1][0].num_output_ts)
        return catalog

    def __len__(self) -> int:
        return len(self.shapes)

    def factory(self, k: int) -> TFactory:
        """The full :class:`TFactory` of entry ``k``, built on first request."""
        factory = self._factories.get(k)
        if factory is None:
            rounds = [DistillationRound(unit, d) for unit, d in self.shapes[k]]
            factory = evaluate_pipeline(rounds, self.qubit, self.scheme)
            assert factory is not None  # only feasible shapes are kept
            self._factories[k] = factory
        return factory

    @functools.cached_property
    def preference_index(self) -> tuple[list[int], list[float]]:
        """Entries in preference order, with the running minimum error.

        The order sorts by ``(physical_qubits, duration_ns, k)``: the
        designer's tie-break replaces its pick only on a strictly smaller
        (qubits, duration), so earlier entries win ties. Along that order
        the running minimum of output error rates is non-increasing, so
        the first entry meeting a required error — the factory
        :meth:`TFactoryDesigner.design` returns — is a binary search away.
        """
        qubits, durations = self.physical_qubits, self.duration_ns
        order = sorted(range(len(self)), key=lambda k: (qubits[k], durations[k], k))
        errors = self.output_error_rate
        prefix_min = list(itertools.accumulate((errors[k] for k in order), min))
        return order, prefix_min


@dataclass
class TFactoryDesigner:
    """Searches the distillation design space for a cheapest factory.

    Parameters
    ----------
    units:
        Unit library to draw from (defaults to the predefined 15-to-1
        variants).
    max_rounds:
        Maximum pipeline length. 15-to-1 cubes the input error per round,
        so even the noisiest predefined profile converges in 3 rounds.
    max_code_distance:
        Largest per-round code distance explored.
    """

    units: Sequence[DistillationUnit] = field(
        default_factory=lambda: tuple(PREDEFINED_UNITS.values())
    )
    max_rounds: int = 3
    max_code_distance: int = 35

    def __post_init__(self) -> None:
        if self.max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {self.max_rounds}")
        if not self.units:
            raise ValueError("unit library must not be empty")
        # Feasible-factory catalog per (qubit, scheme): the pipeline space
        # does not depend on the required output error, so sweeps (Fig. 3/4)
        # evaluate it once and answer each query with a filtered minimum.
        self._catalog_cache: dict[tuple, FactoryCatalog] = {}

    def __getstate__(self) -> dict[str, Any]:
        # Catalogs are rebuilt where they are used, never shipped: a
        # pickled designer (a chunk payload) carries only its configuration.
        state = self.__dict__.copy()
        del state["_catalog_cache"]
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._catalog_cache = {}

    def _catalog(self, qubit: PhysicalQubitParams, scheme: QECScheme) -> FactoryCatalog:
        key = (qubit, scheme)
        catalog = self._catalog_cache.get(key)
        if catalog is None:
            catalog = FactoryCatalog.build(self._shapes(scheme), qubit, scheme)
            self._catalog_cache[key] = catalog
        return catalog

    def _shapes(self, scheme: QECScheme) -> Iterator[PipelineShape]:
        """Enumerate pipeline shapes in catalog order.

        Distances are constrained to be non-decreasing across rounds:
        later rounds hold better T states, which would be wasted on a
        weaker code. This prunes the space without losing good designs.
        """
        logical_units = [u for u in self.units if u.logical_spec is not None]
        physical_units = [u for u in self.units if u.physical_spec is not None]
        distances = _odd_distances(min(self.max_code_distance, scheme.max_code_distance))
        # Round-1 options: physical units, then logical ones (which take
        # a distance like every later round).
        first_round_options = [(u, False) for u in physical_units] + [
            (u, True) for u in logical_units
        ]
        for num_rounds in range(1, self.max_rounds + 1):
            for (first, logical), *rest in itertools.product(
                first_round_options, *[logical_units] * (num_rounds - 1)
            ):
                if logical:
                    units = (first, *rest)
                    for combo in itertools.combinations_with_replacement(
                        distances, num_rounds
                    ):
                        yield tuple(zip(units, combo))
                else:
                    for combo in itertools.combinations_with_replacement(
                        distances, num_rounds - 1
                    ):
                        yield ((first, None), *zip(rest, combo))

    def candidate_pipelines(
        self, qubit: PhysicalQubitParams, scheme: QECScheme
    ) -> Iterator[list[DistillationRound]]:
        """Yield structurally valid pipelines, without evaluating them,
        in catalog order."""
        for shape in self._shapes(scheme):
            yield [DistillationRound(unit, d) for unit, d in shape]

    def design(
        self,
        qubit: PhysicalQubitParams,
        scheme: QECScheme,
        required_output_error_rate: float,
    ) -> TFactory:
        """Find the cheapest feasible factory for the target error rate.

        Prefers fewer physical qubits, then shorter duration; on a tie the
        earlier catalog entry wins. Raises :class:`TFactoryError` if no
        pipeline in the search space meets the requirement.
        """
        if required_output_error_rate <= 0:
            raise TFactoryError(
                "required T-state error rate must be positive, got "
                f"{required_output_error_rate}"
            )
        scheme.check_compatible(qubit)

        catalog = self._catalog(qubit, scheme)
        qubits, durations = catalog.physical_qubits, catalog.duration_ns
        best = -1
        best_cost: tuple[int, float] = (0, 0.0)
        for k, error in enumerate(catalog.output_error_rate):
            if error > required_output_error_rate:
                continue
            cost = (qubits[k], durations[k])
            if best < 0 or cost < best_cost:
                best, best_cost = k, cost
        if best < 0:
            raise TFactoryError(
                f"no T factory in the search space reaches output error rate "
                f"{required_output_error_rate:.3e} on {qubit.name!r} with "
                f"scheme {scheme.name!r}; consider more rounds or a larger "
                "max code distance"
            )
        return catalog.factory(best)

    def frontier(
        self,
        qubit: PhysicalQubitParams,
        scheme: QECScheme,
        required_output_error_rate: float,
    ) -> list[TFactory]:
        """All Pareto-optimal feasible factories (qubits vs duration)."""
        catalog = self._catalog(qubit, scheme)
        qubits, durations = catalog.physical_qubits, catalog.duration_ns
        feasible = [
            k
            for k, error in enumerate(catalog.output_error_rate)
            if error <= required_output_error_rate
        ]
        feasible.sort(key=lambda k: (qubits[k], durations[k]))
        # Sorted by qubits, a factory is Pareto-optimal when it is faster
        # than every one kept so far, i.e. than the last one kept.
        kept: list[int] = []
        for k in feasible:
            if not kept or durations[k] < durations[kept[-1]]:
                kept.append(k)
        return [catalog.factory(k) for k in kept]


def design_t_factory(
    qubit: PhysicalQubitParams,
    scheme: QECScheme,
    required_output_error_rate: float,
    **designer_options: object,
) -> TFactory:
    """Convenience wrapper: design a factory with default search settings."""
    designer = TFactoryDesigner(**designer_options)  # type: ignore[arg-type]
    return designer.design(qubit, scheme, required_output_error_rate)
