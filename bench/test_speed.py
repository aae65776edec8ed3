"""Tests for the speed gauge: sample filing, the clock, and the timer's removal.

Run from the repository root with ``python3 -m pytest bench/test_speed.py``.
"""
import signal
import time

import pytest

import speed


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_samples_are_filed_under_the_running_label():
    with speed.Gauge(interval_s=0.02) as gauge:
        gauge.label = "a"
        _busy(0.2)
        gauge.label = "b"
        _busy(0.2)
        gauge.label = None
    for parts in [(part,) for part in speed.PARTS] + [tuple(speed.PARTS)]:
        a = gauge.taken(parts, ("a",))
        assert a and gauge.taken(parts, ("b",))
        assert len(gauge.taken(parts)) == sum(len(s) for s in gauge.samples.values())
        assert gauge.scale(parts, ("a",)) == pytest.approx(
            speed.REFERENCE_S * len(parts) / (sum(a) / len(a)))
    both = gauge.taken(tuple(speed.PARTS))
    assert both == pytest.approx([sum(took.values()) for s in gauge.samples.values() for took in s])


def test_clock_leaves_out_kernel_time():
    gauge = speed.Gauge()
    start_clock, start_wall = gauge.clock(), time.perf_counter()
    for _ in range(3):
        gauge.sample()
    wall = time.perf_counter() - start_wall
    assert gauge.spent > 0
    assert gauge.clock() - start_clock == pytest.approx(wall - gauge.spent, abs=1e-3)


def test_exit_disarms_the_timer_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.Gauge(interval_s=0.01):
        _busy(0.05)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL == before
