"""The repo-invariant lint rules.

Each rule encodes one hard-won invariant of this codebase — previously
enforced only by Hypothesis suites and code review — as a machine check.
Rules carry a *regression note* documenting the violations they caught when
first landed, so the invariant's history stays next to its enforcement.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from pathlib import Path

from repro.analysis.lint.engine import LintRule, LintViolation

_KERNEL_SCOPES = (
    "src/repro/pra/",
    "src/repro/relational/",
    "src/repro/engine/",
    "src/repro/ir/",
)


def _in_scope(path: Path, prefixes: tuple[str, ...]) -> bool:
    text = path.as_posix()
    return any(text.startswith(prefix) or text == prefix.rstrip("/") for prefix in prefixes)


def _is_self_attribute(node: ast.AST, names: set[str]) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and node.attr in names
    )


def _has_stable_kind(call: ast.Call) -> bool:
    for keyword in call.keywords:
        if keyword.arg == "kind":
            return isinstance(keyword.value, ast.Constant) and keyword.value.value == "stable"
    return False


def _init_assignments(init: ast.FunctionDef) -> Iterator[tuple[ast.expr, ast.expr]]:
    for node in ast.walk(init):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            yield node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            yield node.target, node.value


def _self_attribute_target(target: ast.expr) -> str | None:
    if (
        isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
    ):
        return target.attr
    return None


def _lock_attributes(init: ast.FunctionDef) -> set[str]:
    locks: set[str] = set()
    for target, value in _init_assignments(init):
        attr = _self_attribute_target(target)
        if attr is None:
            continue
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and isinstance(value.func.value, ast.Name)
            and value.func.value.id == "threading"
            and value.func.attr in ("Lock", "RLock")
        ):
            locks.add(attr)
    return locks


class StableSortRule(LintRule):
    """RL001: ``sort``/``argsort`` in kernel modules must pass ``kind="stable"``.

    The engine's bit-identity contract (sharded == unsharded, optimized ==
    unoptimized, ties included) rests on every NumPy sort in the kernel
    modules being stable: group numbering, merge order and top-k tie-breaks
    all inherit input row order.  NumPy's default introsort is not stable,
    so an unqualified ``np.argsort`` is a latent tie-order bug even when the
    current inputs happen to be duplicate-free.  Python's ``sorted``/
    ``list.sort`` are always stable and are not flagged.

    Regression note: when this rule first landed it caught two unqualified
    ``np.argsort(doc_indices)`` calls in ``repro/ir/statistics.py`` (postings
    reordering in statistics split/merge); both were fixed by passing
    ``kind="stable"`` — a no-op for the unique-key inputs they sort today,
    and insurance for any future caller.
    """

    name = "RL001"
    description = 'NumPy sort/argsort in kernel modules must use kind="stable"'

    def applies_to(self, path: Path) -> bool:
        return _in_scope(path, _KERNEL_SCOPES)

    def check(self, tree: ast.Module, source: str, path: Path) -> list[LintViolation]:
        violations: list[LintViolation] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
                continue
            attr = node.func.attr
            is_numpy_module = isinstance(node.func.value, ast.Name) and node.func.value.id in (
                "np",
                "numpy",
            )
            is_sort = attr in ("sort", "argsort") and is_numpy_module
            is_method_argsort = attr == "argsort" and not is_numpy_module
            if (is_sort or is_method_argsort) and not _has_stable_kind(node):
                violations.append(
                    self.violation(
                        path,
                        node,
                        f'{attr}() without kind="stable" breaks the deterministic '
                        "tie-order contract",
                    )
                )
        return violations


class OrderedGatherRule(LintRule):
    """RL002: every ``gather_*`` kernel must deterministically reorder its merge.

    Shard results arrive in shard order, not original row order; the merge
    kernels (``group_codes``/``group_segments``) downstream are
    input-row-order-sensitive.  A gather that concatenates fragments without
    re-establishing a deterministic order (stable argsort over the hidden
    row column, ``lexsort``, or the rank-aware ``top`` kernel) silently
    breaks the sharded == unsharded bit-identity contract.

    Regression note: clean at introduction — ``gather_concat``,
    ``gather_table`` and ``gather_triples`` stable-sort by original row
    index, and ``gather_top`` merges through the deterministic top-k kernel.
    The rule exists so the next gather kernel cannot forget.
    """

    name = "RL002"
    description = "gather_* kernels must reorder merged shard results deterministically"

    def applies_to(self, path: Path) -> bool:
        return path.as_posix() == "src/repro/engine/executors.py"

    def check(self, tree: ast.Module, source: str, path: Path) -> list[LintViolation]:
        violations: list[LintViolation] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef) or not node.name.startswith("gather_"):
                continue
            if not self._reorders(node):
                violations.append(
                    self.violation(
                        path,
                        node,
                        f"gather kernel {node.name}() merges shard results without a "
                        "deterministic reorder (stable argsort, lexsort, or top)",
                    )
                )
        return violations

    @staticmethod
    def _reorders(function: ast.FunctionDef) -> bool:
        for node in ast.walk(function):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Attribute):
                attr = node.func.attr
                if attr == "argsort" and _has_stable_kind(node):
                    return True
                if attr in ("lexsort", "top"):
                    return True
            if isinstance(node.func, ast.Name) and node.func.id.startswith("gather_"):
                return True  # delegates to another (checked) gather kernel
        return False


class LockedCacheMutationRule(LintRule):
    """RL003: shared dict caches of lock-owning classes mutate under their lock.

    Engine-layer objects are documented as shareable across threads; their
    classes own ``threading.Lock``/``RLock`` attributes precisely so that
    shared mutable dict caches (plan caches, searcher registries,
    materialization entries) are only touched inside ``with self.<lock>``.
    An unguarded ``self._cache[key] = ...`` races concurrent readers —
    the kind of bug that only surfaces under serving load.  Classes that
    declare no lock are exempt: they are documented single-threaded
    (e.g. per-shard executors driven by one coordinator thread).

    Regression note: when this rule first landed it caught three unguarded
    mutations in ``repro/engine/__init__.py`` — ``Engine._search_engines``
    and ``Engine._rank_blocks`` were populated (and cleared in ``close()``)
    without any lock despite Engine's documented thread-safety.  Fixed by
    introducing ``Engine._registry_lock`` and guarding every mutation and
    iteration of the two registries.
    """

    name = "RL003"
    description = "dict caches of lock-owning classes must be mutated under the lock"

    _MUTATORS = ("clear", "pop", "popitem", "setdefault", "update")

    def applies_to(self, path: Path) -> bool:
        return _in_scope(
            path,
            (
                "src/repro/engine/",
                "src/repro/serving/",
                "src/repro/relational/cache.py",
                "src/repro/workload/cache.py",
                "src/repro/ir/registry.py",
                "src/repro/strategy/executor.py",
            ),
        )

    def check(self, tree: ast.Module, source: str, path: Path) -> list[LintViolation]:
        violations: list[LintViolation] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                violations.extend(self._check_class(node, path))
        return violations

    def _check_class(self, klass: ast.ClassDef, path: Path) -> list[LintViolation]:
        init = next(
            (
                node
                for node in klass.body
                if isinstance(node, ast.FunctionDef) and node.name == "__init__"
            ),
            None,
        )
        if init is None:
            return []
        locks = self._lock_attributes(init)
        if not locks:
            return []
        caches = self._cache_attributes(init)
        if not caches:
            return []
        violations: list[LintViolation] = []
        for method in klass.body:
            if isinstance(method, ast.FunctionDef) and method.name != "__init__":
                self._check_method(method, locks, caches, path, violations)
        return violations

    def _lock_attributes(self, init: ast.FunctionDef) -> set[str]:
        return _lock_attributes(init)

    def _cache_attributes(self, init: ast.FunctionDef) -> set[str]:
        caches: set[str] = set()
        for target, value in _init_assignments(init):
            attr = _self_attribute_target(target)
            if attr is None:
                continue
            is_dict_literal = isinstance(value, (ast.Dict, ast.DictComp))
            is_dict_call = (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in ("dict", "OrderedDict", "defaultdict")
            )
            if is_dict_literal or is_dict_call:
                caches.add(attr)
        return caches

    def _check_method(
        self,
        method: ast.FunctionDef,
        locks: set[str],
        caches: set[str],
        path: Path,
        violations: list[LintViolation],
    ) -> None:
        def walk(node: ast.AST, locked: bool) -> None:
            if isinstance(node, ast.With):
                holds = locked or any(
                    _is_self_attribute(item.context_expr, locks) for item in node.items
                )
                for child in ast.iter_child_nodes(node):
                    walk(child, holds)
                return
            mutated = self._mutated_cache(node, caches)
            if mutated is not None and not locked:
                violations.append(
                    self.violation(
                        path,
                        node,
                        f"'{method.name}' mutates 'self.{mutated}' outside "
                        "'with self.<lock>'",
                    )
                )
            for child in ast.iter_child_nodes(node):
                walk(child, locked)

        walk(method, locked=False)

    def _mutated_cache(self, node: ast.AST, caches: set[str]) -> str | None:
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Subscript) and _is_self_attribute(
                    target.value, caches
                ):
                    return target.value.attr  # type: ignore[union-attr]
                if _is_self_attribute(target, caches):
                    return target.attr  # type: ignore[union-attr]
        if isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript) and _is_self_attribute(
                    target.value, caches
                ):
                    return target.value.attr  # type: ignore[union-attr]
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in self._MUTATORS
            and _is_self_attribute(node.func.value, caches)
        ):
            return node.func.value.attr  # type: ignore[union-attr]
        return None


class NoWallClockRule(LintRule):
    """RL004: benchmark code must never read the wall clock.

    Measurement bodies use ``time.perf_counter`` (monotonic, high
    resolution); ``time.time``/``datetime.now``/``datetime.utcnow`` are
    subject to NTP steps and DST jumps, which turn a benchmark delta into
    noise — or a negative number.

    Regression note: clean at introduction; the bench harness was already
    built on ``perf_counter``.  The rule pins that choice for every future
    benchmark.
    """

    name = "RL004"
    description = "benchmarks must use time.perf_counter, never wall-clock time"

    _BANNED = {("time", "time"), ("datetime", "now"), ("datetime", "utcnow")}

    def applies_to(self, path: Path) -> bool:
        return _in_scope(path, ("benchmarks/", "src/repro/bench/", "src/repro/workload/"))

    def check(self, tree: ast.Module, source: str, path: Path) -> list[LintViolation]:
        violations: list[LintViolation] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
                continue
            value = node.func.value
            base = None
            if isinstance(value, ast.Name):
                base = value.id
            elif isinstance(value, ast.Attribute):
                base = value.attr  # datetime.datetime.now(...)
            if (base, node.func.attr) in self._BANNED:
                violations.append(
                    self.violation(
                        path,
                        node,
                        f"{base}.{node.func.attr}() reads the wall clock; use "
                        "time.perf_counter() in benchmark code",
                    )
                )
        return violations


class LengthPrefixedWriteRule(LintRule):
    """RL005: wire-codec writes must go through the length-prefixed framing.

    Router↔worker messages are self-delimiting frames (4-byte big-endian
    length + payload); the pool transport additionally prefixes frames with
    a request id (``encode_tagged``).  A raw ``stream.write`` of unframed
    bytes desyncs the peer's ``read_frame`` loop permanently; a
    ``send_bytes`` of anything but an ``encode_message``/``encode_tagged``
    frame breaks the pool transport the same way.  The only raw-write site
    allowed is ``write_frame`` itself.

    Regression note: clean at introduction — ``codec.write_frame`` is the
    single raw write, and every ``send_bytes`` in the pool/worker transport
    wraps one of the two codec entry points.  The rule keeps it that way.
    """

    name = "RL005"
    description = "serving transports must only write length-prefixed frames"

    _SCOPE = (
        "src/repro/serving/codec.py",
        "src/repro/serving/pool.py",
        "src/repro/serving/worker.py",
    )

    def applies_to(self, path: Path) -> bool:
        return path.as_posix() in self._SCOPE

    def check(self, tree: ast.Module, source: str, path: Path) -> list[LintViolation]:
        violations: list[LintViolation] = []

        def walk(node: ast.AST, function: str | None) -> None:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for child in ast.iter_child_nodes(node):
                    walk(child, node.name)
                return
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr == "write" and function != "write_frame":
                    violations.append(
                        self.violation(
                            path,
                            node,
                            "raw .write() outside write_frame(); wire bytes must be "
                            "length-prefixed frames",
                        )
                    )
                if node.func.attr == "send_bytes" and not self._sends_frame(node):
                    violations.append(
                        self.violation(
                            path,
                            node,
                            ".send_bytes() payload must be encode_message(...) "
                            "or encode_tagged(...) so the frame stays "
                            "length-prefixed",
                        )
                    )
            for child in ast.iter_child_nodes(node):
                walk(child, function)

        walk(tree, None)
        return violations

    @staticmethod
    def _sends_frame(call: ast.Call) -> bool:
        if len(call.args) != 1:
            return False
        argument = call.args[0]
        return (
            isinstance(argument, ast.Call)
            and isinstance(argument.func, ast.Name)
            and argument.func.id in ("encode_message", "encode_tagged")
        )


class BoundedLogBufferRule(LintRule):
    """RL006: in-memory log/record buffers must be bounded and lock-guarded.

    The workload log (and any future event/trace buffer) is shared state on
    a long-lived engine: every query appends to it, often from serving
    threads.  Two failure modes are banned structurally:

    * **unbounded growth** — a plain ``list`` (or a ``deque`` without
      ``maxlen``) assigned to a log-like attribute grows without limit
      under sustained traffic; buffers must be ring buffers
      (``deque(maxlen=...)``).
    * **unguarded writers** — a class holding such a buffer must own a
      ``threading.Lock``/``RLock`` and only mutate the buffer inside
      ``with self.<lock>``; a bare ``self._records.append(...)`` races
      concurrent readers and other writers.

    An attribute is log-like when any ``_``-separated segment of its name
    is ``log``/``logs``/``record``/``records``/``buffer``/``buffers``/
    ``history``/``event``/``events``/``trace``/``traces`` (segment-wise, so
    ``catalog`` never matches).

    Regression note: clean at introduction — ``WorkloadLog`` was built as a
    ``deque(maxlen=capacity)`` behind a ``threading.Lock``.  The rule keeps
    every future log writer shaped the same way.
    """

    name = "RL006"
    description = "log/record buffers must be bounded ring buffers mutated under a lock"

    _SEGMENTS = {
        "log",
        "logs",
        "record",
        "records",
        "buffer",
        "buffers",
        "history",
        "event",
        "events",
        "trace",
        "traces",
    }
    _MUTATORS = (
        "append",
        "appendleft",
        "extend",
        "extendleft",
        "insert",
        "clear",
        "pop",
        "popleft",
        "remove",
    )

    def applies_to(self, path: Path) -> bool:
        return _in_scope(path, ("src/repro/",))

    def _log_like(self, attr: str) -> bool:
        return bool(self._SEGMENTS & set(attr.lower().split("_")))

    @staticmethod
    def _is_deque_call(value: ast.expr) -> bool:
        if not isinstance(value, ast.Call):
            return False
        func = value.func
        if isinstance(func, ast.Name):
            return func.id == "deque"
        return isinstance(func, ast.Attribute) and func.attr == "deque"

    @staticmethod
    def _has_maxlen(value: ast.Call) -> bool:
        if any(keyword.arg == "maxlen" for keyword in value.keywords):
            return True
        return len(value.args) >= 2  # deque(iterable, maxlen)

    def check(self, tree: ast.Module, source: str, path: Path) -> list[LintViolation]:
        violations: list[LintViolation] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                self._check_class(node, path, violations)
        return violations

    def _check_class(
        self, klass: ast.ClassDef, path: Path, violations: list[LintViolation]
    ) -> None:
        init = next(
            (
                node
                for node in klass.body
                if isinstance(node, ast.FunctionDef) and node.name == "__init__"
            ),
            None,
        )
        if init is None:
            return
        buffers: set[str] = set()
        for target, value in _init_assignments(init):
            attr = _self_attribute_target(target)
            if attr is None or not self._log_like(attr):
                continue
            is_list = isinstance(value, (ast.List, ast.ListComp)) or (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id == "list"
            )
            if is_list:
                violations.append(
                    self.violation(
                        path,
                        value,
                        f"'self.{attr}' is an unbounded list buffer; use "
                        "deque(maxlen=...) so the log cannot grow without limit",
                    )
                )
                continue
            if self._is_deque_call(value):
                if not self._has_maxlen(value):  # type: ignore[arg-type]
                    violations.append(
                        self.violation(
                            path,
                            value,
                            f"'self.{attr}' is a deque without maxlen; ring buffers "
                            "must be bounded",
                        )
                    )
                buffers.add(attr)
        if not buffers:
            return
        locks = _lock_attributes(init)
        if not locks:
            violations.append(
                self.violation(
                    path,
                    init,
                    f"class '{klass.name}' holds log buffer(s) "
                    f"{sorted(buffers)} but owns no threading.Lock/RLock to "
                    "guard writers",
                )
            )
            return
        for method in klass.body:
            if isinstance(method, ast.FunctionDef) and method.name != "__init__":
                self._check_method(method, locks, buffers, path, violations)

    def _check_method(
        self,
        method: ast.FunctionDef,
        locks: set[str],
        buffers: set[str],
        path: Path,
        violations: list[LintViolation],
    ) -> None:
        def walk(node: ast.AST, locked: bool) -> None:
            if isinstance(node, ast.With):
                holds = locked or any(
                    _is_self_attribute(item.context_expr, locks) for item in node.items
                )
                for child in ast.iter_child_nodes(node):
                    walk(child, holds)
                return
            mutated = self._mutated_buffer(node, buffers)
            if mutated is not None and not locked:
                violations.append(
                    self.violation(
                        path,
                        node,
                        f"'{method.name}' mutates log buffer 'self.{mutated}' "
                        "outside 'with self.<lock>'",
                    )
                )
            for child in ast.iter_child_nodes(node):
                walk(child, locked)

        walk(method, locked=False)

    def _mutated_buffer(self, node: ast.AST, buffers: set[str]) -> str | None:
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Subscript) and _is_self_attribute(
                    target.value, buffers
                ):
                    return target.value.attr  # type: ignore[union-attr]
                if _is_self_attribute(target, buffers):
                    return target.attr  # type: ignore[union-attr]
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in self._MUTATORS
            and _is_self_attribute(node.func.value, buffers)
        ):
            return node.func.value.attr  # type: ignore[union-attr]
        return None


class LineBudgetRule(LintRule):
    """RL007: a module under ``src/`` has at most 1,300 lines, a class 1,100.

    The tree grew by accretion: each feature landed where its caller lived,
    and the engine facade and the worker pool outgrew the shape a reader can
    hold.  The budget turns "split it" from a review comment into a gate, so
    a later change cannot regrow a module or class past it silently.  A
    class counts from its ``class`` line to its last line.

    Regression note: clean at introduction.  The largest module was
    ``repro/engine/__init__.py`` (1,245 lines) and the largest class
    ``Engine`` (1,072 lines); the budget sits just above both.
    """

    name = "RL007"
    description = "modules under src/ stay within 1,300 lines and classes within 1,100"

    MODULE_LINES = 1300
    CLASS_LINES = 1100

    def applies_to(self, path: Path) -> bool:
        return _in_scope(path, ("src/",))

    def check(self, tree: ast.Module, source: str, path: Path) -> list[LintViolation]:
        violations: list[LintViolation] = []
        lines = len(source.splitlines())
        if lines > self.MODULE_LINES:
            violations.append(
                LintViolation(
                    rule=self.name,
                    path=path.as_posix(),
                    line=1,
                    message=f"module has {lines} lines; the budget is {self.MODULE_LINES}",
                )
            )
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            size = (node.end_lineno or node.lineno) - node.lineno + 1
            if size > self.CLASS_LINES:
                violations.append(
                    self.violation(
                        path,
                        node,
                        f"class '{node.name}' has {size} lines; the budget is "
                        f"{self.CLASS_LINES}",
                    )
                )
        return violations


#: the rule set scripts/repro_lint.py runs, in report order
ALL_RULES: list[LintRule] = [
    StableSortRule(),
    OrderedGatherRule(),
    LockedCacheMutationRule(),
    NoWallClockRule(),
    LengthPrefixedWriteRule(),
    BoundedLogBufferRule(),
    LineBudgetRule(),
]
