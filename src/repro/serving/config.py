"""The serving configuration: one frozen dataclass for every knob.

:class:`ServingConfig` collects every deployment decision in one place:

* **pool** — ``workers``, ``replicas``, ``mmap``, ``start_method``,
  ``shm_threshold`` (reply frames at or above it travel through shared
  memory; ``None`` means :data:`~repro.serving.shm.SHM_MIN_BYTES`);
* **self-healing** — ``restart_workers``, ``health_interval_seconds``,
  ``max_restarts``, ``restart_backoff_seconds`` (doubled per consecutive
  restart, capped at ``restart_backoff_cap_seconds``), ``retry_budget``
  (failover re-routes per request beyond the first attempt);
* **admission** — ``max_concurrent``, ``max_queue``;
* **HTTP** — ``host``, ``port``.

Every serving entry point (:class:`~repro.serving.pool.WorkerPool`,
``Engine.open_sharded``, :class:`~repro.serving.router.Router`) takes
``config=ServingConfig(...)``.  ``from_cli_args`` / ``to_dict`` /
``from_dict`` round-trip the config through the CLI and JSON.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace
from typing import Any

from repro.errors import EngineError


@dataclass(frozen=True)
class ServingConfig:
    """Every serving knob, validated once, threaded through all entry points."""

    # -- worker pool ------------------------------------------------------------
    workers: int | None = None  # base workers per replica; None = one per shard
    replicas: int = 1  # workers serving each shard (failover needs >= 2)
    mmap: bool = True
    start_method: str = "spawn"
    shm_threshold: int | None = None  # None: shm.SHM_MIN_BYTES

    # -- self-healing -----------------------------------------------------------
    restart_workers: bool = True
    health_interval_seconds: float = 0.5
    max_restarts: int = 5  # per worker slot, per pool lifetime
    restart_backoff_seconds: float = 0.25
    restart_backoff_cap_seconds: float = 10.0
    retry_budget: int = 2  # failover re-routes per request beyond the first try

    # -- router admission -------------------------------------------------------
    max_concurrent: int = 4
    max_queue: int = 64

    # -- HTTP front end ---------------------------------------------------------
    host: str = "127.0.0.1"
    port: int = 8080

    def __post_init__(self) -> None:
        if self.workers is not None and self.workers < 1:
            raise EngineError(f"workers must be >= 1 or None, got {self.workers}")
        if self.replicas < 1:
            raise EngineError(f"replicas must be >= 1, got {self.replicas}")
        if self.start_method not in ("spawn", "fork", "forkserver"):
            raise EngineError(
                f"unknown start_method {self.start_method!r}; "
                "use 'spawn', 'fork' or 'forkserver'"
            )
        if self.shm_threshold is not None and self.shm_threshold < 0:
            raise EngineError(f"shm_threshold must be >= 0, got {self.shm_threshold}")
        if self.health_interval_seconds <= 0:
            raise EngineError(
                f"health_interval_seconds must be > 0, got {self.health_interval_seconds}"
            )
        if self.max_restarts < 0:
            raise EngineError(f"max_restarts must be >= 0, got {self.max_restarts}")
        if self.restart_backoff_seconds < 0:
            raise EngineError(
                f"restart_backoff_seconds must be >= 0, got {self.restart_backoff_seconds}"
            )
        if self.restart_backoff_cap_seconds < self.restart_backoff_seconds:
            raise EngineError(
                "restart_backoff_cap_seconds must be >= restart_backoff_seconds"
            )
        if self.retry_budget < 0:
            raise EngineError(f"retry_budget must be >= 0, got {self.retry_budget}")
        if self.max_concurrent < 1:
            raise EngineError(f"max_concurrent must be >= 1, got {self.max_concurrent}")
        if self.max_queue < 0:
            raise EngineError(f"max_queue must be >= 0, got {self.max_queue}")
        if not 0 <= self.port <= 65535:
            raise EngineError(f"port must be in [0, 65535], got {self.port}")

    # -- round trips ------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """A JSON-safe dict; :meth:`from_dict` reconstructs an equal config."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "ServingConfig":
        known = {field.name for field in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise EngineError(f"unknown ServingConfig fields: {unknown}")
        return cls(**payload)

    @classmethod
    def from_cli_args(cls, args: Any) -> "ServingConfig":
        """Build a config from an argparse namespace (the ``serve`` subcommand).

        Only attributes present (and not ``None``) on the namespace override
        the defaults.
        """
        overrides: dict[str, Any] = {}
        for field in fields(cls):
            value = getattr(args, field.name, None)
            if value is not None:
                overrides[field.name] = value
        # `--workers 0` means "in-process sharded executor" on the CLI; the
        # pool itself never sees workers=0 (the CLI picks the executor kind)
        if overrides.get("workers") == 0:
            overrides["workers"] = None
        return cls(**overrides)

    def with_overrides(self, **overrides: Any) -> "ServingConfig":
        """A copy with ``overrides`` applied (re-validated)."""
        return replace(self, **overrides)
