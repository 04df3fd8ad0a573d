"""Every test here must leave no process, thread or shared-memory segment behind."""

from tests.leaks import no_leaked_resources  # noqa: F401  (autouse fixture)
