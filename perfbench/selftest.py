"""The benchmark's own checks.

    PYTHONPATH=src python -m pytest perfbench/selftest.py -q

Short runs (a few queries, two sessions) of every workload: exact counts
repeat with the same seed, block counts agree across backends, the
result checks count failures instead of aborting, and the traced run's
wiring holds — including that it notices a wrapper placed where no
caller resolves it.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from perfbench import harness, layers
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
EXACT = ("io_blocks", "device_mb", "store_growth_mb")


def _run(workdir: Path, workload: str, *, trace: bool = False,
         backend: str = "pread", queries: int = 3) -> dict:
    workdir.mkdir(parents=True, exist_ok=True)
    return harness.run(workload, 3, 0.0, trace, workdir=str(workdir),
                       backend=backend, min_queries=queries,
                       sessions=2)


def _value(result: dict, name: str) -> float:
    return result["metrics"][name]["value"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_exact_counts_repeat_with_the_same_seed(tmp_path, workload):
    first = _run(tmp_path / "a", workload)
    second = _run(tmp_path / "b", workload)
    for result in (first, second):
        assert result["correct"], result["report"]
        assert result["failed"] == 0
        assert result["report"]["error_rate"] == 0
        assert result["report"]["sessions"] == 2
    for name in EXACT:
        assert _value(first, name) == _value(second, name) > 0, name


@pytest.mark.parametrize("workload", ["chain", "ols-zstd"])
def test_io_blocks_match_on_memory_and_pread(tmp_path, workload):
    memory = _run(tmp_path / "memory", workload, backend="memory")
    pread = _run(tmp_path / "pread", workload, backend="pread")
    assert memory["correct"] and pread["correct"]
    assert _value(memory, "io_blocks") == _value(pread, "io_blocks")


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_wiring_holds(tmp_path, workload):
    result = _run(tmp_path, workload, trace=True, queries=4)
    assert result["report"]["wiring_problems"] == []
    assert result["correct"]
    assert set(result["metrics"]) == set(harness.PER_LAYER)


def test_wrapping_the_defining_module_counts_nothing(tmp_path,
                                                     monkeypatch):
    """core/evaluator.py binds the matmul kernels at import: a wrapper
    on ``repro.linalg.matmul`` is never called, and the wiring check
    must say so."""
    from repro.core import evaluator
    from repro.linalg import matmul
    real = layers.targets

    def misplaced():
        return [(layer, matmul if owner is evaluator else owner, attr)
                for layer, owner, attr in real()]

    monkeypatch.setattr(layers, "targets", misplaced)
    result = _run(tmp_path, "chain", trace=True, queries=2)
    assert not result["correct"]
    assert any(p.startswith("linalg.matmul: no calls")
               for p in result["report"]["wiring_problems"])


def test_a_failed_check_is_counted_and_the_run_goes_on(tmp_path,
                                                        monkeypatch):
    chain = WORKLOADS["chain"]
    reference = type(chain).reference
    monkeypatch.setattr(type(chain), "reference",
                        lambda self, inputs: reference(self, inputs) + 1)
    result = _run(tmp_path, "chain", queries=2)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 3


def test_declared_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == harness.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["better"] for m in spec["end_to_end"]
            if m["name"] == "setup_s"} == {"setup_s": "lower"}
