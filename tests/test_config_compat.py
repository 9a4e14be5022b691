"""Persisted digests and legacy config dicts across the knob retirement.

``sim.memoize``, ``sim.kernel`` and the ``analyze`` section selected
between engines with identical results and are retired.  The digests
below were captured before the retirement; every config that can still
be expressed must keep producing them byte for byte, so on-disk caches,
portfolio/sweep/session journals and result keys stay valid.  Legacy
dicts that still carry the retired keys must load (from ``repro run
--config`` files and ``POST /v1/map`` bodies), while values those keys
never accepted must still be rejected.
"""

import json

import pytest

from repro.arch import networks
from repro.cli import main
from repro.larcs import stdlib
from repro.pipeline import RunConfig, SimConfig, pipeline_key
from repro.serve.protocol import ProtocolError, parse_map_request
from repro.sim import CostModel
from repro.util.fingerprint import stable_digest

RUNCONFIG_DEFAULT = (
    "75374e24671765f7eee1ff5da1a3d76c2e8b93236333289af1f764f64749f2ee"
)
JACOBI_MESH_KEY = (
    "13b2c16605e0d4578fca067664371f1b90c64d00be3c6cb0d35217d778e0dabb"
)
MODEL_IDENTITY = {
    "hop_latency": 1.0,
    "byte_time": 1.0,
    "exec_time": 1.0,
    "switching": "store_and_forward",
    "memoize": True,
    "kernel": "auto",
}
CUT_THROUGH_MODEL_DIGEST = (
    "63800b9260a9b0cdb7d0b28a2b6b70f752d557a51e06981c434da94cd5882509"
)

LEGACY_DICTS = [
    {"sim": {"kernel": "auto"}},
    {"sim": {"kernel": "vector"}},
    {"sim": {"kernel": "reference"}},
    {"sim": {"memoize": True}},
    {"sim": {"memoize": False}},
    {"analyze": {"kernel": "vector"}},
    {"analyze": {"kernel": "reference"}},
    {"analyze": {}},
    {"sim": {"memoize": False, "kernel": "reference"},
     "analyze": {"kernel": "reference"}},
]

GARBAGE_DICTS = [
    {"sim": {"kernel": "gpu"}},
    {"sim": {"memoize": "sometimes"}},
    {"analyze": {"kernel": "gpu"}},
    {"analyze": {"kernal": "vector"}},
]


def test_runconfig_fingerprint_pinned():
    assert RunConfig().fingerprint() == RUNCONFIG_DEFAULT


def test_pipeline_key_pinned():
    tg = stdlib.load("jacobi", rows=4, cols=4, msize=4)
    key, fingerprints = pipeline_key(tg, networks.mesh(2, 4), RunConfig())
    assert key == JACOBI_MESH_KEY
    assert fingerprints["config"] == RUNCONFIG_DEFAULT


def test_model_identity_pinned():
    # The "model" identity the portfolio, sweep and session journals key on.
    assert SimConfig.from_model(CostModel()).to_dict() == MODEL_IDENTITY
    model = CostModel(hop_latency=1.0, byte_time=0.5, exec_time=0.25,
                      switching="cut_through")
    assert (
        stable_digest(SimConfig.from_model(model).to_dict())
        == CUT_THROUGH_MODEL_DIGEST
    )


@pytest.mark.parametrize("data", LEGACY_DICTS)
def test_legacy_dicts_load(data):
    config = RunConfig.from_dict(data)
    assert config == RunConfig()
    assert config.fingerprint() == RUNCONFIG_DEFAULT


@pytest.mark.parametrize("data", GARBAGE_DICTS)
def test_garbage_retired_values_rejected(data):
    with pytest.raises(ValueError):
        RunConfig.from_dict(data)


def _post(body: dict):
    return parse_map_request(json.dumps(body).encode())


def test_legacy_and_garbage_over_the_wire():
    body = {"program": "dnc", "bind": {"m": 3}, "topology": "mesh:2x2"}
    legacy = _post(
        {**body, "config": {"sim": {"kernel": "reference", "memoize": False},
                            "analyze": {"kernel": "reference"}}}
    )
    assert legacy.config == _post(body).config
    with pytest.raises(ProtocolError, match="bad 'config'"):
        _post({**body, "config": {"sim": {"kernel": "gpu"}}})


def test_retired_knobs_are_gone():
    assert not hasattr(SimConfig(), "kernel")
    assert not hasattr(SimConfig(), "memoize")
    assert not hasattr(RunConfig(), "analyze")
    with pytest.raises(TypeError):
        SimConfig(kernel="vector")
    with pytest.raises(TypeError):
        SimConfig.from_model(CostModel(), memoize=False)


def test_cli_map_kernel_flag_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["map", "jacobi", "--bind", "rows=4", "cols=4", "msize=4",
              "--topology", "mesh:2x2", "--simulate", "--kernel", "vector"])
    assert excinfo.value.code == 2
    assert "--kernel" in capsys.readouterr().err
