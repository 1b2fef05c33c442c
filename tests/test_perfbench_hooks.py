"""The names the benchmark's traced run hooks into, checked without running it.

A traced run wraps each ``(owner, attr)`` of ``perfbench/workloads.TRACED``
and counts the optimizer's moment arrays at every ``Adam.step``. A rename
in the package would leave a span silently empty, so the hooks are pinned
here.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import picrypt
from picrypt import attacks, cipher, harness, imgio, pevit, rng, tensor

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_to_a_callable():
    workloads = load_workloads()
    prog = SimpleNamespace(package=picrypt, tensor=tensor, pevit=pevit, harness=harness,
                           cipher=cipher, imgio=imgio, rng=rng, attacks=attacks)
    assert set(workloads.MODULES) <= set(vars(prog))
    for owner_path, attr, _ in workloads.TRACED:
        owner = prog
        for part in owner_path.split("."):
            owner = getattr(owner, part, None)
        assert callable(getattr(owner, attr, None)), f"{owner_path}.{attr}"


def test_adam_moments_are_one_array():
    workloads = load_workloads()
    model = pevit.ModelConfig(patch_dim=12, dim=8, depth=2, heads=2, ffn_dim=16)
    opt = harness.Adam(pevit.init_params(model))
    assert isinstance(opt.m, np.ndarray) and isinstance(opt.v, np.ndarray)
    assert workloads._moment_arrays(opt) == 1  # harness.param_tensors
