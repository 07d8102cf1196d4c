"""The traced benchmark rebinds the functions named in perfbench/spans.py;
these tests keep the package in step with that list without running it."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

import pcp

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_functions_resolve_in_pcp():
    spans = _load_spans()
    assert spans.LAYER_FUNCTIONS
    for name, (home, attr) in spans.LAYER_FUNCTIONS.items():
        module = importlib.import_module(home)
        assert callable(getattr(module, attr, None)), f"{name}: {home}.{attr} is gone"


def test_tap_sees_the_neumann_part_of_certify_instance():
    # the certify workload reads W_S by tapping the module-level function
    spans = _load_spans()
    n = 30
    S0 = np.zeros((n, n))
    S0[0, 1], S0[4, 2] = 1.0, -1.0
    with spans.tap("pcp.certificate", "neumann_component", []) as sink:
        _, W = pcp.certify_instance(np.ones((n, n)) / n, S0, 0.1, seed=0)
    assert len(sink) == 1 and sink[0].shape == W.shape
