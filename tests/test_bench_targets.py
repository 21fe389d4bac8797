# Guards on what the benchmark (bench/) uses of hspan, checked against the
# package under test so that a change to hspan shows here and not only when
# the benchmark is started. The traced run (bench/tracing.py) wraps hspan
# functions by patching (module, attribute) pairs listed in its TARGETS and
# calls hspan.verify's identity functions directly; the set-up
# (bench/workloads.py) writes its files with hspan's generator and writer,
# and its set-up time is measured on exactly those bytes.
import importlib
import json
from pathlib import Path

import numpy as np

import hspan.instances as instances
import hspan.spans as spans
import hspan.subspace as subspace
import hspan.verify as verify
from hspan import MatrixFamily, ToleranceConfig

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_traced_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    assert tracing.TARGETS
    for module_name, attr, _, _ in tracing.TARGETS:
        module = importlib.import_module(f"hspan.{module_name}")
        assert callable(getattr(module, attr, None)), f"hspan.{module_name}.{attr}"


def test_direct_calls_and_set_up_names_resolve():
    """The names bench/tracing.py::_direct_calls and bench/workloads.py read
    besides TARGETS: verify's identity functions and tensor budget, the
    ToleranceConfig they take, and the loader, generator and writer."""
    for attr in ("column_identity_residual", "tensor_witness", "norm_trace_identity",
                 "orthogonality_check", "pairing_identity_residual"):
        assert callable(getattr(verify, attr, None)), f"hspan.verify.{attr}"
    assert isinstance(verify.TENSOR_ENTRY_BUDGET, int)
    assert subspace.ToleranceConfig(seed=0).seed == 0
    for attr in ("load_instance", "MatrixFamily", "generate_family", "dump_instance"):
        assert callable(getattr(instances, attr, None)), f"hspan.instances.{attr}"


def test_oracle_rank_reveals_its_matrix_in_one_range_basis_call(monkeypatch):
    """The traced run picks out the oracle's wide SVD as the spans.range_basis
    span under spans.basis_product_oracle, and reads n^k from its shape."""
    calls = []
    range_basis = spans.range_basis
    monkeypatch.setattr(spans, "range_basis",
                        lambda a, cfg: calls.append(np.shape(a)) or range_basis(a, cfg))
    for n, k in ((5, 3), (3, 1), (1, 3)):
        calls.clear()
        spans.basis_product_oracle(MatrixFamily([np.eye(n)] * k), ToleranceConfig())
        assert calls == [(n, n**k)]


def test_workload_files_match_json_reference(monkeypatch, tmp_path):
    """The benchmark's set-up writes the same bytes as the json.dumps
    reference, and those bytes load back to the members written."""
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    seed = 5
    for name, workload in sorted(workloads.WORKLOADS.items()):
        i = min(range(len(workload.specs)),
                key=lambda j: workload.specs[j].k * workload.specs[j].n ** 2)
        spec = workload.specs[i]
        path = workloads.write_files(instances, workload, seed, tmp_path, indices=[i])[i]
        family = workloads.make_family(instances, spec, workloads.file_seed(seed, name, i))
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        assert text == json.dumps(instances.instance_dict(family, spec.file_kind), indent=2) + "\n"
        loaded, kind = instances.load_instance(path)
        assert kind == spec.file_kind
        assert np.array_equal(np.stack(list(loaded)).view(np.uint64),
                              np.stack(list(family)).view(np.uint64))
