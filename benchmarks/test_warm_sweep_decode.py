"""Deterministic cost of a warm stored sweep (counts, not timings).

A warm ``repro sweep --store`` answers every point from the store. Each
hit is a digest-verified result document, and the sweep's ``--json``
output is made of those same documents, so the warm run must decode
none of them and must hash each point once. Decoding, when a caller
asks for it, parses each distinct formula string once per process.
"""

from __future__ import annotations

import json

from repro.cli import main
from repro.estimator.result import PhysicalResourceEstimates
from repro.estimator.spec import EstimateSpec
from repro.estimator.store import ResultStore
from repro.formulas import parser

GRID = {
    "base": {"program": {"multiplier": {"algorithm": "schoolbook", "bits": 64}}},
    "axes": [
        {"field": "program.multiplier.algorithm", "values": ["schoolbook", "windowed"]},
        {"field": "program.multiplier.bits", "values": [64, 128]},
        {"field": "qubit", "values": ["qubit_gate_ns_e3", "qubit_maj_ns_e4"]},
        {"field": "budget", "geom": {"start": 1e-5, "factor": 2, "count": 6}},
    ],
    "frontier": {"objective": "qubits-runtime", "groupBy": ["qubit"]},
}
POINTS = 2 * 2 * 2 * 6


class _Counts:
    def __init__(self, monkeypatch) -> None:
        self.decodes = 0
        self.resolved_hashes = 0
        self.parsed: list[str] = []
        from_dict = PhysicalResourceEstimates.from_dict.__func__
        content_hash = EstimateSpec.content_hash
        tokenize = parser.tokenize

        def counting_from_dict(cls, data):
            self.decodes += 1
            return from_dict(cls, data)

        def counting_content_hash(spec, registry=None):
            if registry is not None:
                self.resolved_hashes += 1
            return content_hash(spec, registry)

        def counting_tokenize(text):
            self.parsed.append(text)
            return tokenize(text)

        monkeypatch.setattr(
            PhysicalResourceEstimates, "from_dict", classmethod(counting_from_dict)
        )
        monkeypatch.setattr(EstimateSpec, "content_hash", counting_content_hash)
        # parse() is memoized; the tokenizer runs once per real parse.
        monkeypatch.setattr(parser, "tokenize", counting_tokenize)


def _sweep(capsys, grid_path, store_path) -> str:
    argv = ["sweep", str(grid_path), "--workers", "1", "--store", str(store_path)]
    assert main(argv + ["--json", "--quiet"]) == 0
    return capsys.readouterr().out


def test_warm_sweep_decodes_nothing_and_hashes_once(tmp_path, capsys, monkeypatch):
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(GRID))
    store_path = tmp_path / "store"
    cold = _sweep(capsys, grid_path, store_path)
    assert json.loads(cold)["counts"] == {"total": POINTS, "ok": POINTS, "failed": 0}

    counts = _Counts(monkeypatch)
    parser.parse.cache_clear()
    warm = _sweep(capsys, grid_path, store_path)
    print(
        f"\nwarm sweep of {POINTS} points: {counts.decodes} decodes, "
        f"{counts.resolved_hashes} resolved hashes, {len(counts.parsed)} parses"
    )
    assert warm == cold
    assert counts.decodes == 0
    assert counts.resolved_hashes == POINTS
    assert len(counts.parsed) <= len(set(counts.parsed))

    # Decoding every stored point on demand parses each formula once.
    parser.parse.cache_clear()
    counts.parsed.clear()
    store = ResultStore(store_path)
    keys = list(store.keys())
    assert len(keys) == POINTS
    assert all(store.get(key) is not None for key in keys)
    assert counts.decodes == POINTS
    assert counts.parsed and len(counts.parsed) == len(set(counts.parsed))
