"""The repository lint rules (FP301-FP312) on synthetic modules."""

import pathlib

from repro.analysis.pylint_rules import lint_file, run_lint

SRC_REPRO = (
    pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
)


def lint(tmp_path, relpath: str, source: str):
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return lint_file(path)


class TestWallClockRule:
    def test_time_time_flagged(self, tmp_path):
        report = lint(
            tmp_path, "repro/core/x.py", "import time\nt = time.time()\n"
        )
        assert report.codes() == {"FP301"}
        (diagnostic,) = report
        assert diagnostic.span.line == 2

    def test_from_import_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/harness/x.py",
            "from time import perf_counter\nt = perf_counter()\n",
        )
        assert report.codes() == {"FP301"}

    def test_module_alias_flagged(self, tmp_path):
        report = lint(
            tmp_path, "repro/core/x.py", "import time as t\nx = t.monotonic()\n"
        )
        assert report.codes() == {"FP301"}

    def test_datetime_now_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/core/x.py",
            "from datetime import datetime\nd = datetime.now()\n",
        )
        assert report.codes() == {"FP301"}

    def test_obs_package_exempt(self, tmp_path):
        report = lint(
            tmp_path, "repro/obs/x.py", "import time\nt = time.time()\n"
        )
        assert len(report) == 0

    def test_simulated_clock_exempt(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/network/clock.py",
            "import time\nt = time.time()\n",
        )
        assert len(report) == 0

    def test_time_sleep_is_not_a_clock_read(self, tmp_path):
        report = lint(
            tmp_path, "repro/core/x.py", "import time\ntime.sleep(1)\n"
        )
        assert len(report) == 0


class TestFloatEqualityRule:
    def test_float_literal_equality_flagged(self, tmp_path):
        report = lint(tmp_path, "repro/core/x.py", "ok = x == 0.5\n")
        assert report.codes() == {"FP302"}

    def test_negative_float_inequality_flagged(self, tmp_path):
        report = lint(tmp_path, "repro/core/x.py", "ok = x != -0.5\n")
        assert report.codes() == {"FP302"}

    def test_integer_equality_allowed(self, tmp_path):
        report = lint(tmp_path, "repro/core/x.py", "ok = x == 1\n")
        assert len(report) == 0

    def test_float_ordering_allowed(self, tmp_path):
        report = lint(tmp_path, "repro/core/x.py", "ok = x < 0.5\n")
        assert len(report) == 0

    def test_geometry_package_exempt(self, tmp_path):
        report = lint(tmp_path, "repro/geometry/x.py", "ok = x == 0.5\n")
        assert len(report) == 0


class TestErrorHierarchyRule:
    def test_bare_builtin_raise_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/templates/x.py",
            "def f():\n    raise ValueError('nope')\n",
        )
        assert report.codes() == {"FP303"}

    def test_errors_module_import_allowed(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/templates/x.py",
            "from repro.templates.errors import TemplateError\n"
            "def f():\n    raise TemplateError('x')\n",
        )
        assert len(report) == 0

    def test_lower_layer_errors_allowed(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/templates/x.py",
            "from repro.relational.errors import ExecutionError\n"
            "def f():\n    raise ExecutionError('x')\n",
        )
        assert len(report) == 0

    def test_local_subclass_allowed(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/sqlparser/x.py",
            "from repro.sqlparser.errors import ParseError\n"
            "class Lexical(ParseError):\n    pass\n"
            "def f():\n    raise Lexical('x')\n",
        )
        assert len(report) == 0

    def test_not_implemented_allowed(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/relational/x.py",
            "def f():\n    raise NotImplementedError\n",
        )
        assert len(report) == 0

    def test_reraised_variable_allowed(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/templates/x.py",
            "def f(exc):\n    raise exc\n",
        )
        assert len(report) == 0

    def test_errors_module_itself_exempt(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/templates/errors.py",
            "class X(ValueError):\n    pass\n"
            "def f():\n    raise RuntimeError('meta')\n",
        )
        assert len(report) == 0

    def test_other_packages_unconstrained(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/core/x.py",
            "def f():\n    raise ValueError('fine here')\n",
        )
        assert len(report) == 0


class TestUnseededRandomRule:
    def test_module_level_call_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/core/x.py",
            "import random\nx = random.randrange(10)\n",
        )
        assert report.codes() == {"FP305"}

    def test_unseeded_constructor_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/core/x.py",
            "import random\nrng = random.Random()\n",
        )
        assert report.codes() == {"FP305"}

    def test_from_import_call_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/workload/x.py",
            "from random import random\nx = random()\n",
        )
        assert report.codes() == {"FP305"}

    def test_from_import_unseeded_random_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/faults/x.py",
            "from random import Random\nrng = Random()\n",
        )
        assert report.codes() == {"FP305"}

    def test_seeded_constructor_allowed(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/faults/x.py",
            "import random\nrng = random.Random(42)\n",
        )
        assert len(report) == 0

    def test_seeded_from_import_allowed(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/faults/x.py",
            "from random import Random\nrng = Random(seed)\n",
        )
        assert len(report) == 0

    def test_instance_methods_allowed(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/faults/x.py",
            "from random import Random\nrng = Random(1)\n"
            "x = rng.random()\n",
        )
        assert len(report) == 0

    def test_tests_exempt(self, tmp_path):
        report = lint(
            tmp_path,
            "tests/core/x.py",
            "import random\nx = random.random()\n",
        )
        assert len(report) == 0


class TestManualContextRule:
    def test_manual_enter_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/core/x.py",
            "span = tracer.span('serve')\nspan.__enter__()\n",
        )
        assert report.codes() == {"FP306"}
        (diagnostic,) = report
        assert diagnostic.span.line == 2
        assert "with" in diagnostic.hint

    def test_manual_exit_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/core/x.py",
            "span.__exit__(None, None, None)\n",
        )
        assert report.codes() == {"FP306"}

    def test_with_block_allowed(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/core/x.py",
            "with tracer.span('serve') as span:\n    pass\n",
        )
        assert len(report) == 0

    def test_other_dunder_calls_allowed(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/core/x.py",
            "n = xs.__len__()\n",
        )
        assert len(report) == 0

    def test_obs_package_exempt(self, tmp_path):
        # QueryObservation legitimately delegates its context-manager
        # protocol to its root span.
        report = lint(
            tmp_path,
            "repro/obs/x.py",
            "self._root.__enter__()\n",
        )
        assert len(report) == 0

    def test_tests_exempt(self, tmp_path):
        report = lint(
            tmp_path,
            "tests/obs/x.py",
            "span.__enter__()\n",
        )
        assert len(report) == 0


class TestNonAtomicWriteRule:
    def test_open_write_mode_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/harness/x.py",
            "with open(p, 'w') as h:\n    h.write(s)\n",
        )
        assert report.codes() == {"FP307"}
        (diagnostic,) = report
        assert "atomic_write_text" in diagnostic.hint

    def test_open_mode_keyword_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/core/x.py",
            "h = open(p, mode='wb')\n",
        )
        assert report.codes() == {"FP307"}

    def test_exclusive_creation_flagged(self, tmp_path):
        report = lint(tmp_path, "repro/core/x.py", "h = open(p, 'x')\n")
        assert report.codes() == {"FP307"}

    def test_path_write_text_flagged(self, tmp_path):
        report = lint(
            tmp_path, "repro/core/x.py", "path.write_text(payload)\n"
        )
        assert report.codes() == {"FP307"}

    def test_path_write_bytes_flagged(self, tmp_path):
        report = lint(
            tmp_path, "repro/core/x.py", "path.write_bytes(payload)\n"
        )
        assert report.codes() == {"FP307"}

    def test_read_mode_allowed(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/core/x.py",
            "a = open(p)\nb = open(p, 'rb')\n",
        )
        assert len(report) == 0

    def test_append_mode_allowed(self, tmp_path):
        # Appends are the journal's own idiom (obs/spans.py exports).
        report = lint(tmp_path, "repro/obs/x.py", "h = open(p, 'a')\n")
        assert len(report) == 0

    def test_update_mode_allowed(self, tmp_path):
        # In-place patches (the crash injector's bitflip) do not
        # truncate, so they cannot tear the whole file.
        report = lint(
            tmp_path, "repro/faults/x.py", "h = open(p, 'r+b')\n"
        )
        assert len(report) == 0

    def test_persistence_package_exempt(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/persistence/x.py",
            "with open(p, 'w') as h:\n    h.write(s)\n",
        )
        assert len(report) == 0

    def test_tests_exempt(self, tmp_path):
        report = lint(
            tmp_path, "tests/core/x.py", "path.write_text('x')\n"
        )
        assert len(report) == 0


class TestBenchPrintRule:
    def test_print_in_bench_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            "benchmarks/bench_demo.py",
            "print('nc response', 2081.4)\n",
        )
        assert report.codes() == {"FP308"}

    def test_non_bench_module_exempt(self, tmp_path):
        report = lint(tmp_path, "benchmarks/conftest.py", "print('x')\n")
        assert len(report) == 0

    def test_bench_without_print_clean(self, tmp_path):
        report = lint(
            tmp_path,
            "benchmarks/bench_demo.py",
            "def test_x(bench_report):\n"
            "    report = bench_report('demo')\n"
            "    report.metric('m', 1.0, unit='ms')\n"
            "    report.finish()\n",
        )
        assert len(report) == 0


class TestRawLockRule:
    def test_threading_lock_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/core/x.py",
            "import threading\nlock = threading.Lock()\n",
        )
        assert report.codes() == {"FP309"}
        (diagnostic,) = report
        assert diagnostic.span.line == 2

    def test_rlock_from_import_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/obs/x.py",
            "from threading import RLock\nlock = RLock()\n",
        )
        assert report.codes() == {"FP309"}

    def test_condition_and_semaphore_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/core/x.py",
            "import threading\n"
            "c = threading.Condition()\n"
            "s = threading.Semaphore(2)\n",
        )
        assert report.count_by_code() == {"FP309": 2}

    def test_module_alias_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/core/x.py",
            "import threading as t\nlock = t.RLock()\n",
        )
        assert report.codes() == {"FP309"}

    def test_webapp_lock_clean(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/webapp/x.py",
            "import threading\nlock = threading.Lock()\n",
        )
        assert len(report) == 0

    def test_tests_exempt(self, tmp_path):
        report = lint(
            tmp_path,
            "tests/test_x.py",
            "import threading\nlock = threading.Lock()\n",
        )
        assert len(report) == 0

    def test_serve_path_lock_flagged(self, tmp_path):
        # The serving objects are single-owner: a lock inside one of
        # them is flagged even where a lock once lived.
        report = lint(
            tmp_path,
            "repro/core/cache.py",
            "import threading\n"
            "class CacheManager:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.RLock()\n",
        )
        assert report.codes() == {"FP309"}

    def test_unrelated_lock_name_clean(self, tmp_path):
        # Only the threading module's factories count; a local helper
        # that happens to be called Lock is not this rule's business.
        report = lint(
            tmp_path,
            "repro/core/x.py",
            "from mylib import Lock\nlock = Lock()\n",
        )
        assert len(report) == 0


class TestUnboundedQueueRule:
    def test_unbounded_deque_in_serve_path_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/core/proxy.py",
            "from collections import deque\nq = deque()\n",
        )
        assert report.codes() == {"FP310"}
        (diagnostic,) = report
        assert diagnostic.span.line == 2

    def test_bounded_deque_clean(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/admission/controller.py",
            "from collections import deque\nq = deque(maxlen=64)\n",
        )
        assert len(report) == 0

    def test_positional_maxlen_clean(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/sched/loop.py",
            "import collections\nq = collections.deque([], 8)\n",
        )
        assert len(report) == 0

    def test_unbounded_queue_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/sched/frontend.py",
            "import queue\n"
            "a = queue.Queue()\n"
            "b = queue.LifoQueue(0)\n"
            "c = queue.PriorityQueue(maxsize=-1)\n",
        )
        assert report.count_by_code() == {"FP310": 3}

    def test_bounded_queue_clean(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/core/cache.py",
            "from queue import Queue\nq = Queue(maxsize=16)\n",
        )
        assert len(report) == 0

    def test_simple_queue_always_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/core/stats.py",
            "import queue\nq = queue.SimpleQueue()\n",
        )
        assert report.codes() == {"FP310"}

    def test_off_serve_path_module_exempt(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/harness/x.py",
            "from collections import deque\nq = deque()\n",
        )
        assert len(report) == 0

    def test_pragma_opts_a_module_in(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/harness/x.py",
            "# concurrency: serve-path\n"
            "from collections import deque\nq = deque()\n",
        )
        assert report.codes() == {"FP310"}

    def test_tests_exempt(self, tmp_path):
        report = lint(
            tmp_path,
            "tests/test_x.py",
            "from collections import deque\nq = deque()\n",
        )
        assert len(report) == 0

    def test_unrelated_deque_name_clean(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/core/proxy.py",
            "from mylib import deque\nq = deque()\n",
        )
        assert len(report) == 0


class TestEventCodeRule:
    """FP311: flight-recorder emissions must use pinned EV codes."""

    def test_adhoc_literal_on_emit_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/core/x.py",
            "self.events.emit('EV99', at_ms=0.0)\n",
        )
        assert report.codes() == {"FP311"}

    def test_adhoc_literal_on_telemetry_event_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/core/x.py",
            "obs.telemetry_event('bogus', at_ms=1.0)\n",
        )
        assert report.codes() == {"FP311"}

    def test_code_keyword_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/sched/x.py",
            "recorder.emit(code='EV99', at_ms=0.0)\n",
        )
        assert report.codes() == {"FP311"}

    def test_pinned_literal_clean(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/core/x.py",
            "self.events.emit('EV01', at_ms=0.0)\n",
        )
        assert len(report) == 0

    def test_name_reference_clean(self, tmp_path):
        # A code held in a variable is out of scope: only string
        # literals are judged.
        report = lint(
            tmp_path,
            "repro/core/x.py",
            "self.events.emit(EV_BREAKER_OPEN, at_ms=0.0)\n",
        )
        assert len(report) == 0

    def test_mapping_lookup_clean(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/core/x.py",
            "obs.telemetry_event("
            "BREAKER_EVENT_CODES[state.value], at_ms=now)\n",
        )
        assert len(report) == 0

    def test_diagnostics_style_emit_not_matched(self, tmp_path):
        # The diagnostics layer also has .emit() methods; without an
        # at_ms keyword or a recorder-like receiver name they are not
        # flight-recorder emissions.
        report = lint(
            tmp_path,
            "repro/analysis/x.py",
            "reporter.emit('FP102', 'message', node)\n",
        )
        assert len(report) == 0

    def test_tests_exempt(self, tmp_path):
        report = lint(
            tmp_path,
            "tests/obs/test_x.py",
            "events.emit('EV99', at_ms=0.0)\n",
        )
        assert len(report) == 0

    def test_events_module_exempt(self, tmp_path):
        # The registry module itself constructs codes freely.
        report = lint(
            tmp_path,
            "repro/obs/events.py",
            "self.emit('EV99', at_ms=0.0)\n",
        )
        assert len(report) == 0


class TestShardInternalImportRule:
    """FP312: shard internals stay behind the repro.cluster surface."""

    def test_from_import_of_submodule_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/harness/x.py",
            "from repro.cluster.handoff import export_cache\n",
        )
        assert report.codes() == {"FP312"}

    def test_plain_import_of_submodule_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/webapp/x.py",
            "import repro.cluster.router\n",
        )
        assert report.codes() == {"FP312"}

    def test_package_surface_clean(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/harness/x.py",
            "from repro.cluster import ShardRouter\n",
        )
        assert len(report) == 0

    def test_cluster_package_itself_exempt(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/cluster/router.py",
            "from repro.cluster.ring import HashRing\n",
        )
        assert len(report) == 0

    def test_tests_exempt(self, tmp_path):
        report = lint(
            tmp_path,
            "tests/cluster/test_x.py",
            "from repro.cluster.ring import HashRing\n",
        )
        assert len(report) == 0


class TestDiagnosticFormatGolden:
    """Diagnostics render compiler-style with line AND column."""

    def test_rule_diagnostic_carries_line_and_column(self, tmp_path):
        path = tmp_path / "repro" / "core" / "x.py"
        path.parent.mkdir(parents=True)
        path.write_text("import threading\nlock = threading.Lock()\n")
        report = lint_file(path)
        (diagnostic,) = report
        assert (diagnostic.span.line, diagnostic.span.column) == (2, 8)
        rendered = diagnostic.format().splitlines()[0]
        assert rendered == (
            f"{path.as_posix()}:2:8: FP309 error: threading.Lock() "
            "outside repro/webapp/; the only lock is the per-app "
            "request lock"
        )

    def test_syntax_error_diagnostic_carries_line_and_column(
        self, tmp_path
    ):
        path = tmp_path / "repro" / "core" / "x.py"
        path.parent.mkdir(parents=True)
        path.write_text("def broken(:\n")
        report = lint_file(path)
        (diagnostic,) = report
        assert diagnostic.code == "FP304"
        assert diagnostic.span is not None
        assert diagnostic.span.line == 1
        assert diagnostic.span.column >= 1
        first = diagnostic.format().splitlines()[0]
        assert first.startswith(
            f"{path.as_posix()}:1:{diagnostic.span.column}: "
            "FP304 error: cannot parse"
        )


class TestDriver:
    def test_fp304_syntax_error(self, tmp_path):
        report = lint(tmp_path, "repro/core/x.py", "def broken(:\n")
        assert report.codes() == {"FP304"}

    def test_run_lint_recurses_directories(self, tmp_path):
        (tmp_path / "repro" / "core").mkdir(parents=True)
        (tmp_path / "repro" / "core" / "a.py").write_text(
            "import time\nt = time.time()\n"
        )
        (tmp_path / "repro" / "core" / "b.py").write_text("ok = x == 0.5\n")
        report = run_lint([tmp_path])
        assert report.codes() == {"FP301", "FP302"}

    def test_the_repository_is_lint_clean(self):
        report = run_lint([SRC_REPRO])
        assert not report.has_errors, report.render()

    def test_the_benchmarks_are_lint_clean(self):
        benchmarks = SRC_REPRO.parents[1] / "benchmarks"
        report = run_lint([benchmarks])
        assert not report.has_errors, report.render()
