"""Retry policy, circuit breaker, and gateway in isolation."""

from random import Random

import pytest

from repro.faults.errors import (
    OriginQueryError,
    OriginTimeoutError,
    OriginUnavailable,
    OriginUnavailableError,
)
from repro.faults.resilience import (
    BREAKER_STATE_VALUES,
    BreakerState,
    CircuitBreaker,
    OriginGateway,
    RetryPolicy,
)
from repro.network.clock import SimulatedClock
from repro.server.origin import OriginResponse
from repro.sqlparser.errors import ParseError


class Sink:
    """A charge sink that records (step, ms) pairs."""

    def __init__(self):
        self.charges = []

    def charge(self, step, sim_ms):
        self.charges.append((step, sim_ms))

    def total(self, step):
        return sum(ms for s, ms in self.charges if s == step)


def make_gateway(
    clock=None,
    max_attempts=3,
    failure_threshold=5,
    cooldown_ms=1_000.0,
    jitter_fraction=0.0,
):
    clock = clock or SimulatedClock()
    breaker = CircuitBreaker(
        clock, failure_threshold=failure_threshold, cooldown_ms=cooldown_ms
    )
    gateway = OriginGateway(
        retry=RetryPolicy(
            max_attempts=max_attempts,
            base_backoff_ms=100.0,
            jitter_fraction=jitter_fraction,
            attempt_timeout_ms=500.0,
        ),
        breaker=breaker,
        rng=Random(0),
        failure_rtt_ms=lambda: 300.0,
    )
    return gateway, breaker, clock


def ok_response():
    return OriginResponse(result=None, server_ms=10.0)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter_fraction=2.0)
        with pytest.raises(ValueError):
            RetryPolicy(attempt_timeout_ms=0.0)

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            base_backoff_ms=100.0,
            backoff_multiplier=2.0,
            max_backoff_ms=300.0,
            jitter_fraction=0.0,
        )
        rng = Random(0)
        assert policy.backoff_ms(0, rng) == pytest.approx(100.0)
        assert policy.backoff_ms(1, rng) == pytest.approx(200.0)
        assert policy.backoff_ms(2, rng) == pytest.approx(300.0)  # capped
        assert policy.backoff_ms(9, rng) == pytest.approx(300.0)

    def test_jitter_is_deterministic_per_seed(self):
        policy = RetryPolicy(base_backoff_ms=100.0, jitter_fraction=0.5)
        a = [policy.backoff_ms(0, Random(7)) for _ in range(3)]
        assert a[0] == a[1] == a[2]
        assert 100.0 <= a[0] <= 150.0


class TestCircuitBreaker:
    def test_opens_after_threshold(self):
        clock = SimulatedClock()
        breaker = CircuitBreaker(clock, failure_threshold=3)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert breaker.opens == 1
        assert not breaker.allow()

    def test_half_open_after_cooldown_then_closes(self):
        clock = SimulatedClock()
        breaker = CircuitBreaker(
            clock, failure_threshold=1, cooldown_ms=1_000.0
        )
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(1_000.0)
        assert breaker.allow()  # the probe attempt
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_failure_reopens(self):
        clock = SimulatedClock()
        breaker = CircuitBreaker(
            clock, failure_threshold=5, cooldown_ms=1_000.0
        )
        for _ in range(5):
            breaker.record_failure()
        clock.advance(1_000.0)
        assert breaker.allow()
        breaker.record_failure()  # a single half-open failure re-opens
        assert breaker.state is BreakerState.OPEN
        assert breaker.opens == 2

    def test_success_resets_failure_streak(self):
        clock = SimulatedClock()
        breaker = CircuitBreaker(clock, failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED

    def test_state_change_hook_fires_once_per_transition(self):
        clock = SimulatedClock()
        seen = []
        breaker = CircuitBreaker(
            clock,
            failure_threshold=1,
            cooldown_ms=100.0,
            on_state_change=lambda s: seen.append(s),
        )
        breaker.record_failure()
        breaker.record_failure()  # already open: no second event
        assert seen == [BreakerState.OPEN]

    def test_gauge_encoding_is_pinned(self):
        assert BREAKER_STATE_VALUES == {
            BreakerState.CLOSED: 0,
            BreakerState.HALF_OPEN: 1,
            BreakerState.OPEN: 2,
        }

    def test_validation(self):
        clock = SimulatedClock()
        with pytest.raises(ValueError):
            CircuitBreaker(clock, failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(clock, cooldown_ms=0.0)


class TestHalfOpenProbeRace:
    """Half-open admits exactly one probe until it resolves."""

    def _allow_many(self, breaker, calls=8):
        """Call ``allow()`` ``calls`` times in a row; returns the number
        admitted."""
        return sum(1 for _ in range(calls) if breaker.allow())

    def test_single_probe_admitted_after_cooldown(self):
        clock = SimulatedClock()
        breaker = CircuitBreaker(
            clock, failure_threshold=1, cooldown_ms=1_000.0
        )
        breaker.record_failure()
        clock.advance(1_000.0)
        assert self._allow_many(breaker) == 1
        assert breaker.state is BreakerState.HALF_OPEN
        # The probe resolves; the breaker closes and admits freely.
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()

    def test_failed_probe_reopens_and_next_cooldown_admits_one(self):
        clock = SimulatedClock()
        breaker = CircuitBreaker(
            clock, failure_threshold=1, cooldown_ms=1_000.0
        )
        breaker.record_failure()
        clock.advance(1_000.0)
        assert self._allow_many(breaker) == 1
        breaker.record_failure()  # the probe failed: re-open
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()
        clock.advance(1_000.0)
        assert self._allow_many(breaker) == 1

    def test_probe_refusals_do_not_leak_the_gate(self):
        clock = SimulatedClock()
        breaker = CircuitBreaker(
            clock, failure_threshold=1, cooldown_ms=1_000.0
        )
        breaker.record_failure()
        clock.advance(1_000.0)
        assert breaker.allow()  # the probe
        # Later serves are refused while the probe is in flight...
        assert not breaker.allow()
        assert not breaker.allow()
        # ...and a resolution releases the gate exactly once.
        breaker.record_success()
        assert breaker.allow()
        assert breaker.state is BreakerState.CLOSED


class TestGateway:
    def test_success_passes_through(self):
        gateway, breaker, _ = make_gateway()
        sink = Sink()
        response, retries = gateway.call(ok_response, sink)
        assert response.server_ms == 10.0
        assert retries == 0
        assert sink.charges == []
        assert breaker.state is BreakerState.CLOSED

    def test_transient_failures_retried_with_backoff(self):
        gateway, breaker, _ = make_gateway()
        sink = Sink()
        state = {"left": 2}

        def fn():
            if state["left"]:
                state["left"] -= 1
                raise OriginUnavailableError("injected")
            return ok_response()

        response, retries = gateway.call(fn, sink)
        assert retries == 2
        # Two failed fast attempts charge one empty round trip each...
        assert sink.total("transfer") == pytest.approx(600.0)
        # ...plus two deterministic backoff waits (100, then 200 ms).
        assert sink.total("backoff") == pytest.approx(300.0)
        assert breaker.state is BreakerState.CLOSED  # success reset it

    def test_timeout_charges_full_attempt_timeout(self):
        gateway, _, _ = make_gateway(max_attempts=1)
        sink = Sink()

        def fn():
            raise OriginTimeoutError()

        with pytest.raises(OriginUnavailable) as info:
            gateway.call(fn, sink)
        assert info.value.reason == "timeout"
        assert sink.total("origin") == pytest.approx(500.0)
        assert sink.total("backoff") == 0.0  # no retry budget left

    def test_exhausted_attempts_raise_structured_unavailable(self):
        gateway, _, _ = make_gateway(max_attempts=3)
        sink = Sink()

        def fn():
            raise OriginUnavailableError("down", reason="outage")

        with pytest.raises(OriginUnavailable) as info:
            gateway.call(fn, sink)
        assert info.value.reason == "outage"
        assert info.value.retries == 2

    def test_open_breaker_fails_fast_without_attempt(self):
        gateway, breaker, _ = make_gateway(failure_threshold=1)
        calls = []

        def fn():
            calls.append(1)
            raise OriginUnavailableError("down")

        with pytest.raises(OriginUnavailable):
            gateway.call(fn, Sink())
        assert breaker.state is BreakerState.OPEN
        attempts_before = len(calls)
        with pytest.raises(OriginUnavailable) as info:
            gateway.call(fn, Sink())
        assert info.value.reason == "breaker-open"
        assert len(calls) == attempts_before  # the origin was never hit

    def test_query_error_not_retried_and_not_a_breaker_failure(self):
        gateway, breaker, _ = make_gateway()
        calls = []

        def fn():
            calls.append(1)
            raise ParseError("syntax error near FROM")

        with pytest.raises(OriginQueryError) as info:
            gateway.call(fn, Sink())
        assert len(calls) == 1  # retrying cannot fix a bad query
        assert info.value.reason == "query-error"
        assert breaker.state is BreakerState.CLOSED

    def test_listener_sees_retries_and_failures(self):
        events = []

        class Listener:
            def origin_retry(self):
                events.append("retry")

            def origin_failure(self, reason):
                events.append(f"fail:{reason}")

        clock = SimulatedClock()
        breaker = CircuitBreaker(clock, failure_threshold=10)
        gateway = OriginGateway(
            retry=RetryPolicy(max_attempts=2, jitter_fraction=0.0),
            breaker=breaker,
            rng=Random(0),
            failure_rtt_ms=lambda: 1.0,
            listener=Listener(),
        )

        def fn():
            raise OriginUnavailableError("down")

        with pytest.raises(OriginUnavailable):
            gateway.call(fn, Sink())
        assert events == ["retry", "fail:transient"]
