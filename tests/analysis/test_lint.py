"""Unit tests for the repo-invariant lint engine and its rules.

Each rule is exercised on synthetic bad/good sources at in-scope paths,
plus the suppression pragma machinery, and finally the whole real repo —
the same check CI runs — which must be clean.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.lint import (
    ALL_RULES,
    BoundedLogBufferRule,
    LengthPrefixedWriteRule,
    LineBudgetRule,
    LockedCacheMutationRule,
    NoWallClockRule,
    OrderedGatherRule,
    StableSortRule,
    lint_paths,
    lint_source,
    suppressed_rules,
)

KERNEL_PATH = Path("src/repro/pra/kernels.py")
GATHER_PATH = Path("src/repro/engine/executors.py")
ENGINE_PATH = Path("src/repro/engine/registry.py")
BENCH_PATH = Path("benchmarks/bench_new.py")
CODEC_PATH = Path("src/repro/serving/codec.py")


def rule_names(violations) -> list[str]:
    return [violation.rule for violation in violations]


class TestStableSort:
    def test_flags_unqualified_numpy_argsort(self):
        source = "import numpy as np\norder = np.argsort(keys)\n"
        violations = lint_source(source, KERNEL_PATH, [StableSortRule()])
        assert rule_names(violations) == ["RL001"]
        assert violations[0].line == 2
        assert 'kind="stable"' in violations[0].message

    def test_flags_method_argsort(self):
        source = "order = values.argsort()\n"
        assert rule_names(lint_source(source, KERNEL_PATH, [StableSortRule()])) == ["RL001"]

    def test_multi_line_stable_call_is_clean(self):
        # the reason the linter is AST-based: a line-oriented grep would
        # flag (or miss) this depending on where the kwarg lands
        source = "import numpy as np\norder = np.argsort(\n    keys,\n    kind=\"stable\",\n)\n"
        assert lint_source(source, KERNEL_PATH, [StableSortRule()]) == []

    def test_python_sorted_is_not_flagged(self):
        source = "result = sorted(values)\nvalues.sort()\n"
        assert lint_source(source, KERNEL_PATH, [StableSortRule()]) == []

    def test_out_of_scope_path_is_skipped(self):
        source = "import numpy as np\norder = np.argsort(keys)\n"
        assert lint_source(source, Path("scripts/tool.py"), [StableSortRule()]) == []


class TestOrderedGather:
    def test_flags_gather_without_reorder(self):
        source = (
            "import numpy as np\n"
            "def gather_rows(pieces):\n"
            "    return np.concatenate(pieces)\n"
        )
        violations = lint_source(source, GATHER_PATH, [OrderedGatherRule()])
        assert rule_names(violations) == ["RL002"]
        assert "gather_rows" in violations[0].message

    def test_stable_argsort_in_gather_is_clean(self):
        source = (
            "import numpy as np\n"
            "def gather_rows(pieces, rowids):\n"
            "    order = np.argsort(rowids, kind=\"stable\")\n"
            "    return np.concatenate(pieces)[order]\n"
        )
        assert lint_source(source, GATHER_PATH, [OrderedGatherRule()]) == []

    def test_delegating_gather_is_clean(self):
        source = (
            "def gather_alias(pieces, rowids):\n"
            "    return gather_rows(pieces, rowids)\n"
        )
        assert lint_source(source, GATHER_PATH, [OrderedGatherRule()]) == []

    def test_only_applies_to_executors_module(self):
        source = "def gather_rows(pieces):\n    return pieces\n"
        assert lint_source(source, KERNEL_PATH, [OrderedGatherRule()]) == []


LOCKED_CLASS = """\
import threading

class Registry:
    def __init__(self):
        self._lock = threading.Lock()
        self._cache = {{}}

    def put(self, key, value):
        {body}
"""


class TestLockedCacheMutation:
    def test_flags_unguarded_subscript_assignment(self):
        source = LOCKED_CLASS.format(body="self._cache[key] = value")
        violations = lint_source(source, ENGINE_PATH, [LockedCacheMutationRule()])
        assert rule_names(violations) == ["RL003"]
        assert "'put' mutates 'self._cache'" in violations[0].message

    def test_guarded_mutation_is_clean(self):
        source = LOCKED_CLASS.format(
            body="with self._lock:\n            self._cache[key] = value"
        )
        assert lint_source(source, ENGINE_PATH, [LockedCacheMutationRule()]) == []

    def test_flags_unguarded_clear_and_pop(self):
        source = LOCKED_CLASS.format(body="self._cache.clear()\n        self._cache.pop(key)")
        violations = lint_source(source, ENGINE_PATH, [LockedCacheMutationRule()])
        assert rule_names(violations) == ["RL003", "RL003"]

    def test_lockless_class_is_exempt(self):
        source = (
            "class Local:\n"
            "    def __init__(self):\n"
            "        self._cache = {}\n"
            "    def put(self, key, value):\n"
            "        self._cache[key] = value\n"
        )
        assert lint_source(source, ENGINE_PATH, [LockedCacheMutationRule()]) == []

    def test_reads_are_not_flagged(self):
        source = LOCKED_CLASS.format(body="return self._cache.get(key)")
        assert lint_source(source, ENGINE_PATH, [LockedCacheMutationRule()]) == []


class TestNoWallClock:
    def test_flags_time_time_in_benchmarks(self):
        source = "import time\nstart = time.time()\n"
        violations = lint_source(source, BENCH_PATH, [NoWallClockRule()])
        assert rule_names(violations) == ["RL004"]
        assert "perf_counter" in violations[0].message

    def test_flags_datetime_now(self):
        source = "import datetime\nstamp = datetime.datetime.now()\n"
        assert rule_names(lint_source(source, BENCH_PATH, [NoWallClockRule()])) == ["RL004"]

    def test_perf_counter_is_clean(self):
        source = "import time\nstart = time.perf_counter()\n"
        assert lint_source(source, BENCH_PATH, [NoWallClockRule()]) == []

    def test_non_benchmark_code_may_read_the_clock(self):
        source = "import time\nstart = time.time()\n"
        assert lint_source(source, Path("src/repro/cli.py"), [NoWallClockRule()]) == []


class TestLengthPrefixedWrite:
    def test_flags_raw_write_outside_write_frame(self):
        source = "def push(stream, payload):\n    stream.write(payload)\n"
        violations = lint_source(source, CODEC_PATH, [LengthPrefixedWriteRule()])
        assert rule_names(violations) == ["RL005"]
        assert "write_frame" in violations[0].message

    def test_write_inside_write_frame_is_allowed(self):
        source = (
            "def write_frame(stream, payload):\n"
            "    stream.write(len(payload).to_bytes(4, 'big'))\n"
            "    stream.write(payload)\n"
        )
        assert lint_source(source, CODEC_PATH, [LengthPrefixedWriteRule()]) == []

    def test_send_bytes_must_wrap_encode_message(self):
        source = "def push(conn, obj):\n    conn.send_bytes(obj)\n"
        violations = lint_source(source, Path("src/repro/serving/pool.py"), [LengthPrefixedWriteRule()])
        assert rule_names(violations) == ["RL005"]

    def test_send_bytes_of_encoded_frame_is_clean(self):
        source = "def push(conn, obj):\n    conn.send_bytes(encode_message(obj))\n"
        assert (
            lint_source(source, Path("src/repro/serving/pool.py"), [LengthPrefixedWriteRule()])
            == []
        )


LOG_CLASS = """
import threading
from collections import deque

class Log:
    def __init__(self):
        self._lock = threading.Lock()
        self._records = deque(maxlen=100)

    def record(self, entry):
        {body}
"""


class TestBoundedLogBuffer:
    def test_flags_plain_list_buffer(self):
        source = (
            "class Log:\n"
            "    def __init__(self):\n"
            "        self._records = []\n"
        )
        violations = lint_source(source, ENGINE_PATH, [BoundedLogBufferRule()])
        assert rule_names(violations) == ["RL006"]
        assert "unbounded list buffer" in violations[0].message

    def test_flags_deque_without_maxlen(self):
        source = (
            "import threading\n"
            "from collections import deque\n"
            "class Log:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._event_log = deque()\n"
        )
        violations = lint_source(source, ENGINE_PATH, [BoundedLogBufferRule()])
        assert rule_names(violations) == ["RL006"]
        assert "maxlen" in violations[0].message

    def test_flags_buffer_class_without_lock(self):
        source = (
            "from collections import deque\n"
            "class Log:\n"
            "    def __init__(self):\n"
            "        self._records = deque(maxlen=10)\n"
        )
        violations = lint_source(source, ENGINE_PATH, [BoundedLogBufferRule()])
        assert rule_names(violations) == ["RL006"]
        assert "no threading.Lock" in violations[0].message

    def test_flags_unguarded_append(self):
        source = LOG_CLASS.format(body="self._records.append(entry)")
        violations = lint_source(source, ENGINE_PATH, [BoundedLogBufferRule()])
        assert rule_names(violations) == ["RL006"]
        assert "'record' mutates log buffer 'self._records'" in violations[0].message

    def test_guarded_append_is_clean(self):
        source = LOG_CLASS.format(
            body="with self._lock:\n            self._records.append(entry)"
        )
        assert lint_source(source, ENGINE_PATH, [BoundedLogBufferRule()]) == []

    def test_segment_matching_skips_catalog(self):
        # "catalog" contains "log" as a substring, but not as a "_" segment
        source = (
            "class Database:\n"
            "    def __init__(self):\n"
            "        self.catalog = []\n"
            "    def add(self, table):\n"
            "        self.catalog.append(table)\n"
        )
        assert lint_source(source, ENGINE_PATH, [BoundedLogBufferRule()]) == []

    def test_reads_are_not_flagged(self):
        source = LOG_CLASS.format(body="return list(self._records)")
        assert lint_source(source, ENGINE_PATH, [BoundedLogBufferRule()]) == []


class TestLineBudget:
    @staticmethod
    def module(lines: int) -> str:
        return "".join(f"x{number} = {number}\n" for number in range(lines))

    @staticmethod
    def klass(lines: int) -> str:
        body = "".join(f"    x{number} = {number}\n" for number in range(lines - 1))
        return "class Big:\n" + body

    def test_module_at_budget_is_clean(self):
        assert lint_source(self.module(1300), ENGINE_PATH, [LineBudgetRule()]) == []

    def test_flags_module_over_budget(self):
        violations = lint_source(self.module(1301), ENGINE_PATH, [LineBudgetRule()])
        assert rule_names(violations) == ["RL007"]
        assert violations[0].line == 1
        assert "1301 lines" in violations[0].message

    def test_class_at_budget_is_clean(self):
        assert lint_source(self.klass(1100), ENGINE_PATH, [LineBudgetRule()]) == []

    def test_flags_class_over_budget(self):
        source = "import os\n\n" + self.klass(1101)
        violations = lint_source(source, ENGINE_PATH, [LineBudgetRule()])
        assert rule_names(violations) == ["RL007"]
        assert violations[0].line == 3
        assert "class 'Big' has 1101 lines" in violations[0].message

    def test_only_applies_under_src(self):
        assert lint_source(self.module(1400), BENCH_PATH, [LineBudgetRule()]) == []
        assert lint_source(self.module(1400), Path("tests/test_big.py"), [LineBudgetRule()]) == []


class TestSuppression:
    def test_pragma_parsing(self):
        source = "x = 1  # repro-lint: disable=RL001, RL003\ny = 2\nz = 3  # repro-lint: disable=all\n"
        assert suppressed_rules(source) == {1: {"RL001", "RL003"}, 3: {"all"}}

    def test_named_pragma_suppresses_only_that_rule(self):
        source = "import numpy as np\norder = np.argsort(keys)  # repro-lint: disable=RL001\n"
        assert lint_source(source, KERNEL_PATH, [StableSortRule()]) == []

    def test_disable_all_suppresses_every_rule(self):
        source = "import numpy as np\norder = np.argsort(keys)  # repro-lint: disable=all\n"
        assert lint_source(source, KERNEL_PATH, ALL_RULES) == []

    def test_pragma_on_other_line_does_not_suppress(self):
        source = "# repro-lint: disable=RL001\nimport numpy as np\norder = np.argsort(keys)\n"
        assert rule_names(lint_source(source, KERNEL_PATH, [StableSortRule()])) == ["RL001"]


class TestRepoIsClean:
    def test_whole_repo_passes_all_rules(self):
        # the exact invocation CI runs via scripts/repro_lint.py
        root = Path(__file__).resolve().parents[2]
        targets = [root / "src", root / "benchmarks", root / "scripts"]
        violations = lint_paths([p for p in targets if p.exists()], ALL_RULES, root=root)
        assert violations == [], "\n".join(v.render() for v in violations)

    def test_violation_render_format(self):
        source = "import numpy as np\norder = np.argsort(keys)\n"
        violation = lint_source(source, KERNEL_PATH, [StableSortRule()])[0]
        assert violation.render() == (
            'src/repro/pra/kernels.py:2: RL001: argsort() without kind="stable" '
            "breaks the deterministic tie-order contract"
        )
