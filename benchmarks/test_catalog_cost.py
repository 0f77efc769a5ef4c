"""Deterministic cost of one T-factory catalog build (counts, not timings).

The catalog build runs once per (profile, scheme) in every process that
designs a factory, so its cost is a fixed start-up cost of every cold
sweep, optimize question and service replica. Wall-clock is noisy; the
work is not. The build must tabulate the scheme's per-distance formulas
and memoize unit evaluations instead of re-evaluating formulas per
pipeline, and must not create factory objects until one is asked for.
"""

from __future__ import annotations

from repro import qubit_params
from repro.distillation import TFactory, TFactoryDesigner
from repro.formulas import Formula
from repro.registry import default_registry

#: Formula evaluations allowed for one default-designer build. The eager
#: per-pipeline evaluation made 122,835; the columnar build makes ~5,400.
MAX_FORMULA_EVALUATIONS = 10_000


def test_catalog_build_formula_evaluations_and_lazy_factories(monkeypatch):
    qubit = qubit_params("qubit_gate_ns_e4")
    scheme = default_registry().scheme("surface_code", qubit)

    evaluations = 0
    evaluate = Formula.evaluate

    def counting_evaluate(self, *args, **kwargs):
        nonlocal evaluations
        evaluations += 1
        return evaluate(self, *args, **kwargs)

    factories = 0
    init = TFactory.__init__

    def counting_init(self, *args, **kwargs):
        nonlocal factories
        factories += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Formula, "evaluate", counting_evaluate)
    monkeypatch.setattr(TFactory, "__init__", counting_init)

    designer = TFactoryDesigner()
    catalog = designer._catalog(qubit, scheme)
    assert len(catalog) == 10_561
    print(f"\ncatalog build: {evaluations} Formula.evaluate calls")
    assert evaluations <= MAX_FORMULA_EVALUATIONS
    assert factories == 0

    factory = designer.design(qubit, scheme, 1e-12)
    assert factory.output_error_rate <= 1e-12
    assert factories == 1
