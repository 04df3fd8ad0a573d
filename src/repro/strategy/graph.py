"""The strategy graph: a validated DAG of blocks.

The graph stores blocks under unique names and directed connections from a
block's output to a named input port of another block.  Validation checks
that every required input port is connected exactly once, that connected
port kinds are compatible, and that the graph is acyclic; execution order is
a topological sort.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.errors import PortError, StrategyError
from repro.strategy.blocks import Block


@dataclass(frozen=True)
class Connection:
    """A directed edge: the output of ``source`` feeds input ``target_port`` of ``target``."""

    source: str
    target: str
    target_port: str


class StrategyGraph:
    """A DAG of named blocks."""

    def __init__(self, name: str = "strategy"):
        self.name = name
        self._blocks: dict[str, Block] = {}
        self._connections: list[Connection] = []

    # -- construction -----------------------------------------------------------------

    def add_block(self, name: str, block: Block) -> str:
        """Register ``block`` under ``name`` and return the name (for chaining)."""
        if name in self._blocks:
            raise StrategyError(f"a block named {name!r} already exists")
        self._blocks[name] = block
        return name

    def connect(self, source: str, target: str, *, port: str | None = None) -> None:
        """Connect the output of ``source`` to an input port of ``target``.

        When ``port`` is omitted the first unconnected input port of the
        target is used (matching the visual designer's "snap to next free
        slot" behaviour).
        """
        source_block = self.block(source)
        target_block = self.block(target)
        input_ports = list(target_block.input_ports())
        if not input_ports:
            raise StrategyError(f"block {target!r} has no input ports")
        if port is None:
            connected = {c.target_port for c in self._connections if c.target == target}
            free = [p.name for p in input_ports if p.name not in connected]
            if not free:
                raise StrategyError(f"all input ports of block {target!r} are already connected")
            port = free[0]
        else:
            if port not in {p.name for p in input_ports}:
                raise StrategyError(
                    f"block {target!r} has no input port {port!r}; "
                    f"available: {[p.name for p in input_ports]}"
                )
        # port-kind compatibility
        target_port_spec = next(p for p in input_ports if p.name == port)
        source_port_spec = source_block.output_port()
        if not source_port_spec.kind.compatible_with(target_port_spec.kind):
            raise PortError(
                f"cannot connect {source!r} ({source_port_spec.kind.value}) to "
                f"{target!r}.{port} ({target_port_spec.kind.value})"
            )
        duplicate = any(
            c.target == target and c.target_port == port for c in self._connections
        )
        if duplicate:
            raise StrategyError(f"input port {target!r}.{port} is already connected")
        self._connections.append(Connection(source=source, target=target, target_port=port))

    # -- accessors ----------------------------------------------------------------------

    def block(self, name: str) -> Block:
        try:
            return self._blocks[name]
        except KeyError:
            raise StrategyError(
                f"unknown block {name!r}; known blocks: {sorted(self._blocks)}"
            ) from None

    def block_names(self) -> list[str]:
        return list(self._blocks)

    def connections(self) -> list[Connection]:
        return list(self._connections)

    def inputs_of(self, name: str) -> dict[str, str]:
        """Return ``{input port: source block}`` for block ``name``."""
        return {
            connection.target_port: connection.source
            for connection in self._connections
            if connection.target == name
        }

    def sinks(self) -> list[str]:
        """Blocks whose output feeds no other block (the strategy results)."""
        sources = {connection.source for connection in self._connections}
        return [name for name in self._blocks if name not in sources]

    # -- validation and ordering ----------------------------------------------------------

    def validate(self) -> list[str]:
        """Check port completeness and acyclicity and return the execution order.

        Raises :class:`StrategyError` on problems.
        """
        for name, block in self._blocks.items():
            required = {port.name for port in block.input_ports()}
            connected = set(self.inputs_of(name))
            missing = required - connected
            if missing:
                raise StrategyError(
                    f"block {name!r} has unconnected input ports: {sorted(missing)}"
                )
        return self.execution_order()  # raises on cycles

    def execution_order(self) -> list[str]:
        """Topological order of the blocks (Kahn's algorithm)."""
        in_degree = {name: 0 for name in self._blocks}
        for connection in self._connections:
            in_degree[connection.target] += 1
        ready = deque(sorted(name for name, degree in in_degree.items() if degree == 0))
        order: list[str] = []
        remaining = dict(in_degree)
        while ready:
            name = ready.popleft()
            order.append(name)
            for connection in self._connections:
                if connection.source == name:
                    remaining[connection.target] -= 1
                    if remaining[connection.target] == 0:
                        ready.append(connection.target)
        if len(order) != len(self._blocks):
            unresolved = sorted(set(self._blocks) - set(order))
            raise StrategyError(f"the strategy graph contains a cycle involving {unresolved}")
        return order

    def __len__(self) -> int:
        return len(self._blocks)
