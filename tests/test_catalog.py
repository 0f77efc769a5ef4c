"""Tests for the columnar T-factory catalog.

The catalog build evaluates the pipeline space without creating factory
objects, and design/frontier/kernel answer from its columns. The
load-bearing property: everything it reports equals the eager path —
``evaluate_pipeline`` over ``candidate_pipelines`` plus a linear scan —
kept below as the oracle, over profiles x compatible schemes x designer
configurations.
"""

from __future__ import annotations

import functools
import itertools
import pickle
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from repro import LogicalCounts
from repro.distillation import (
    LogicalUnitSpec,
    PhysicalUnitSpec,
    T15_RM_PREP,
    T15_SPACE_EFFICIENT,
    DistillationUnit,
    TFactoryDesigner,
    TFactoryError,
    evaluate_pipeline,
)
from repro.distillation.search import FactoryCatalog
from repro.estimator import batch
from repro.estimator.batch import (
    EstimateCache,
    EstimateRequest,
    _run_chunk,
    _run_serial,
)
from repro.registry import default_registry

REGISTRY = default_registry()

#: Every (profile, scheme) pair the default registry can combine.
PAIRS = []
for _qubit_name in REGISTRY.qubit_names():
    _qubit = REGISTRY.qubit(_qubit_name)
    for _scheme_name in REGISTRY.scheme_catalog():
        try:
            _scheme = REGISTRY.scheme(_scheme_name, _qubit)
            _scheme.check_compatible(_qubit)
        except Exception:
            continue
        PAIRS.append((_qubit, _scheme))

#: A 15-to-1 variant whose failure probability reaches 1 on noisy raw T
#: states, so some of its pipelines drop out of the catalog.
NOISY_UNIT = DistillationUnit(
    name="noisy 15-to-1",
    num_input_ts=15,
    num_output_ts=1,
    failure_probability="1500 * inputErrorRate + 356 * cliffordErrorRate",
    output_error_rate="35 * inputErrorRate^3 + 7.1 * cliffordErrorRate",
    physical_spec=PhysicalUnitSpec(
        num_qubits=40, duration="20 * oneQubitMeasurementTime"
    ),
    logical_spec=LogicalUnitSpec(num_logical_qubits=25, duration_in_cycles=15),
)
UNITS = (T15_RM_PREP, T15_SPACE_EFFICIENT, NOISY_UNIT)
UNIT_SUBSETS = [
    subset
    for size in range(1, len(UNITS) + 1)
    for subset in itertools.combinations(range(len(UNITS)), size)
]


def make_designer(units: tuple[int, ...], max_rounds: int, max_distance: int):
    return TFactoryDesigner(
        units=tuple(UNITS[i] for i in units),
        max_rounds=max_rounds,
        max_code_distance=max_distance,
    )


@functools.lru_cache(maxsize=4)
def oracle(pair: int, units: tuple[int, ...], max_rounds: int, max_distance: int):
    """The eager catalog: every feasible pipeline's factory, in order."""
    qubit, scheme = PAIRS[pair]
    designer = make_designer(units, max_rounds, max_distance)
    factories = (
        evaluate_pipeline(p, qubit, scheme)
        for p in designer.candidate_pipelines(qubit, scheme)
    )
    return [f for f in factories if f is not None]


def oracle_design(factories, qubit, scheme, required):
    best = None
    for f in factories:
        if f.output_error_rate > required:
            continue
        if best is None or (f.physical_qubits, f.duration_ns) < (
            best.physical_qubits,
            best.duration_ns,
        ):
            best = f
    if best is None:
        raise TFactoryError(
            f"no T factory in the search space reaches output error rate "
            f"{required:.3e} on {qubit.name!r} with "
            f"scheme {scheme.name!r}; consider more rounds or a larger "
            "max code distance"
        )
    return best


def oracle_frontier(factories, required):
    feasible = [f for f in factories if f.output_error_rate <= required]
    frontier = []
    for f in sorted(feasible, key=lambda f: (f.physical_qubits, f.duration_ns)):
        if all(f.duration_ns < g.duration_ns for g in frontier):
            frontier.append(f)
    return frontier


configs = st.tuples(
    st.integers(0, len(PAIRS) - 1),
    st.sampled_from(UNIT_SUBSETS),
    st.integers(1, 3),
    st.sampled_from([1, 5, 13, 35]),
)


class TestCatalogEquality:
    @settings(deadline=None, max_examples=20)
    @given(configs)
    def test_columns_equal_eager_evaluation(self, config):
        pair, units, max_rounds, max_distance = config
        qubit, scheme = PAIRS[pair]
        expected = oracle(*config)
        catalog = make_designer(units, max_rounds, max_distance)._catalog(qubit, scheme)
        assert len(catalog) == len(expected)
        assert catalog.physical_qubits == [f.physical_qubits for f in expected]
        assert catalog.duration_ns == [f.duration_ns for f in expected]
        assert catalog.output_error_rate == [f.output_error_rate for f in expected]
        assert catalog.output_t_states == [f.output_t_states for f in expected]
        assert catalog.shapes == [
            tuple((r.round.unit, r.round.code_distance) for r in f.rounds)
            for f in expected
        ]
        for k in range(0, len(expected), max(1, len(expected) // 7)):
            assert catalog.factory(k) == expected[k]

    @settings(deadline=None, max_examples=20)
    @given(configs, st.data())
    def test_design_and_frontier_equal_linear_scan(self, config, data):
        pair, units, max_rounds, max_distance = config
        qubit, scheme = PAIRS[pair]
        expected = oracle(*config)
        designer = make_designer(units, max_rounds, max_distance)
        errors = sorted({f.output_error_rate for f in expected})
        # Exact catalog values (ties at the boundary), values between and
        # around them, and requirements below the best reachable error.
        candidates = [1e-3, 1e-9, 1e-30]
        if errors:
            candidates += [errors[0], errors[-1], errors[len(errors) // 2]]
            candidates += [errors[0] / 2, errors[0] * (1 - 1e-12)]
        required = data.draw(
            st.sampled_from(candidates)
            | st.sampled_from(errors or [1e-6])
            | st.floats(min_value=1e-40, max_value=1e-2)
        )
        try:
            want = oracle_design(expected, qubit, scheme, required)
        except TFactoryError as exc:
            with pytest.raises(TFactoryError) as excinfo:
                designer.design(qubit, scheme, required)
            assert str(excinfo.value) == str(exc)
        else:
            assert designer.design(qubit, scheme, required) == want
        assert designer.frontier(qubit, scheme, required) == oracle_frontier(
            expected, required
        )

    @settings(deadline=None, max_examples=10)
    @given(configs)
    def test_preference_index_matches_sorted_catalog(self, config):
        # The reference is the index the kernel used to build per batch.
        np = pytest.importorskip("numpy")
        pair, units, max_rounds, max_distance = config
        qubit, scheme = PAIRS[pair]
        expected = oracle(*config)
        catalog = make_designer(units, max_rounds, max_distance)._catalog(qubit, scheme)
        order, prefix_min = catalog.preference_index
        assert order == sorted(
            range(len(expected)),
            key=lambda k: (expected[k].physical_qubits, expected[k].duration_ns, k),
        )
        errors = np.array([expected[k].output_error_rate for k in order])
        assert prefix_min == np.minimum.accumulate(errors).tolist()

    def test_infeasible_pipelines_are_dropped(self):
        qubit = REGISTRY.qubit("qubit_gate_ns_e3")
        scheme = REGISTRY.scheme("surface_code", qubit)
        designer = TFactoryDesigner()
        candidates = sum(1 for _ in designer.candidate_pipelines(qubit, scheme))
        assert (candidates, len(designer._catalog(qubit, scheme))) == (10_561, 9_045)


class TestLazyFactories:
    def test_factory_is_built_once_on_request(self):
        qubit, scheme = PAIRS[0]
        catalog = TFactoryDesigner()._catalog(qubit, scheme)
        assert catalog._factories == {}
        first = catalog.factory(3)
        assert catalog.factory(3) is first
        assert list(catalog._factories) == [3]


class TestWorkerDesigners:
    def test_pickled_designer_ships_no_catalog(self):
        qubit, scheme = PAIRS[0]
        designer = TFactoryDesigner(max_rounds=2)
        designer._catalog(qubit, scheme)
        copy = pickle.loads(pickle.dumps(designer))
        assert copy == designer
        assert copy._catalog_cache == {}

    def test_custom_designer_catalog_built_once_per_worker(self, monkeypatch):
        # Regression: every chunk of a custom designer used to rebuild the
        # catalog, because each chunk unpickled a fresh designer.
        monkeypatch.setattr(batch, "_WORKER_DESIGNERS", {})
        builds = []
        build = FactoryCatalog.build.__func__

        def counting_build(cls, shapes, qubit, scheme):
            builds.append((qubit.name, scheme.name))
            return build(cls, shapes, qubit, scheme)

        monkeypatch.setattr(FactoryCatalog, "build", classmethod(counting_build))
        qubit = REGISTRY.qubit("qubit_gate_ns_e4")
        counts = LogicalCounts(num_qubits=40, t_count=20_000, ccz_count=5_000)
        requests = [
            EstimateRequest(program=counts, qubit=qubit, budget=b)
            for b in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7)
        ]
        designer = TFactoryDesigner(max_rounds=2, max_code_distance=25)
        serial = _run_serial(requests, EstimateCache(designer=designer))
        builds.clear()

        payloads = pickle.dumps(designer), pickle.dumps(designer)
        first = _run_chunk((0, requests[:3], pickle.loads(payloads[0]), "scalar"))
        second = _run_chunk((3, requests[3:], pickle.loads(payloads[1]), "scalar"))
        assert builds == [("qubit_gate_ns_e4", "surface_code")]

        chunked = first[1] + second[1]
        assert [error for _, error in chunked] == [o.error for o in serial]
        assert [r.to_dict() if r else None for r, _ in chunked] == [
            o.result.to_dict() if o.result else None for o in serial
        ]

    def test_worker_designers_are_keyed_by_type_and_every_field(self, monkeypatch):
        # Two designers sharing (units, max_rounds, max_code_distance) but
        # differing in type, or in a field a subclass adds, must not share
        # a resident copy: each chunk runs its own designer's policy.
        monkeypatch.setattr(batch, "_WORKER_DESIGNERS", {})
        qubit = REGISTRY.qubit("qubit_gate_ns_e4")
        counts = LogicalCounts(num_qubits=40, t_count=20_000, ccz_count=5_000)
        requests = [EstimateRequest(program=counts, qubit=qubit, budget=1e-4)]
        tagged = []

        @dataclass
        class TaggedDesigner(TFactoryDesigner):
            tag: str = "a"

            def design(self, qubit, scheme, required_output_error_rate):
                tagged.append(self.tag)
                return super().design(qubit, scheme, required_output_error_rate)

        options = dict(max_rounds=2, max_code_distance=25)
        for designer in (
            TFactoryDesigner(**options),
            TaggedDesigner(**options),
            TaggedDesigner(**options, tag="b"),
            TaggedDesigner(**options, tag="b"),
        ):
            _run_chunk((0, requests, designer, "scalar"))
        assert tagged == ["a", "b", "b"]
        assert len(batch._WORKER_DESIGNERS) == 3
