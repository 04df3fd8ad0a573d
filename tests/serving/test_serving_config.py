"""ServingConfig: validation and round-trips."""

from __future__ import annotations

import argparse

import pytest

from repro.errors import EngineError
from repro.serving import ServingConfig


class TestValidation:
    def test_defaults_are_valid(self):
        config = ServingConfig()
        assert config.replicas == 1 and config.workers is None

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ServingConfig().replicas = 3  # type: ignore[misc]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"replicas": 0},
            {"workers": 0},
            {"workers": -1},
            {"restart_backoff_cap_seconds": 0.1},  # below the 0.25 s backoff
            {"start_method": "warp"},
            {"retry_budget": -1},
            {"max_restarts": -1},
            {"health_interval_seconds": 0},
            {"restart_backoff_seconds": -0.5},
            {"max_concurrent": 0},
            {"max_queue": -1},
            {"shm_threshold": -1},
            {"port": -1},
            {"port": 65536},
        ],
    )
    def test_invalid_values_raise(self, kwargs):
        with pytest.raises(EngineError):
            ServingConfig(**kwargs)


class TestRoundTrips:
    def test_to_dict_from_dict(self):
        config = ServingConfig(workers=3, replicas=2, shm_threshold=0, port=9999)
        assert ServingConfig.from_dict(config.to_dict()) == config

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(EngineError, match="unknown"):
            ServingConfig.from_dict({"warp_factor": 9})

    def test_from_cli_args(self):
        args = argparse.Namespace(
            workers=4,
            replicas=2,
            shm_threshold=None,
            max_concurrent=8,
            max_queue=16,
            host="0.0.0.0",
            port=8123,
            health_interval_seconds=0.1,
            retry_budget=3,
        )
        config = ServingConfig.from_cli_args(args)
        assert config.workers == 4 and config.replicas == 2
        assert config.max_concurrent == 8 and config.port == 8123
        assert config.health_interval_seconds == 0.1 and config.retry_budget == 3
        # and it survives the serialization round trip
        assert ServingConfig.from_dict(config.to_dict()) == config

    def test_from_cli_args_workers_zero_means_default(self):
        config = ServingConfig.from_cli_args(argparse.Namespace(workers=0))
        assert config.workers is None

    def test_with_overrides(self):
        base = ServingConfig(workers=2)
        assert base.with_overrides(replicas=3).replicas == 3
        assert base.with_overrides(replicas=3).workers == 2
        assert base.replicas == 1  # the original is untouched
