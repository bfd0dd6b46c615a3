"""Unit tests for the minimum-flow bandwidth allocators."""

import math

import pytest

from repro.cluster.server import DataServer
from repro.core.schedulers import (
    ALLOCATORS,
    EFTFAllocator,
    LFTFAllocator,
    NoWorkaheadAllocator,
    ProportionalShareAllocator,
)

from conftest import make_client, make_request, make_video


def server(bandwidth=10.0):
    s = DataServer(0, bandwidth=bandwidth, disk_capacity=1e9)
    s.store_replica(make_video(video_id=0))
    return s


def attached_request(
    srv,
    remaining=100.0,
    buffer_capacity=math.inf,
    receive_bandwidth=math.inf,
    length=100.0,
):
    """An attached request with the given megabits still to send."""
    r = make_request(
        video=make_video(video_id=0, length=length),
        client=make_client(buffer_capacity, receive_bandwidth),
    )
    r.bytes_sent = r.size - remaining
    srv.attach(r)
    return r


class TestMinimumFlow:
    def test_every_live_request_gets_view_bandwidth(self):
        srv = server(bandwidth=10.0)
        reqs = [attached_request(srv) for _ in range(3)]
        rates = NoWorkaheadAllocator().allocate(srv, reqs, 0.0)
        for r in reqs:
            assert rates[r.request_id] == pytest.approx(r.view_bandwidth)

    def test_paused_request_gets_zero(self):
        srv = server(bandwidth=10.0)
        r = attached_request(srv)
        r.paused_until = 5.0
        rates = EFTFAllocator().allocate(srv, [r], 0.0)
        assert rates[r.request_id] == 0.0

    def test_pause_expiry_restores_flow(self):
        srv = server(bandwidth=10.0)
        r = attached_request(srv)
        r.paused_until = 5.0
        rates = EFTFAllocator().allocate(srv, [r], 5.0)
        assert rates[r.request_id] >= r.view_bandwidth

    def test_overcommit_raises(self):
        srv = server(bandwidth=2.0)
        reqs = [attached_request(srv) for _ in range(2)]
        extra = make_request(video=make_video(video_id=0))
        with pytest.raises(RuntimeError):
            EFTFAllocator().allocate(srv, reqs + [extra], 0.0)

    @pytest.mark.parametrize("name", sorted(ALLOCATORS))
    def test_total_never_exceeds_link(self, name):
        srv = server(bandwidth=10.0)
        reqs = [
            attached_request(srv, remaining=10.0 * (i + 1),
                             receive_bandwidth=4.0, buffer_capacity=50.0)
            for i in range(4)
        ]
        rates = ALLOCATORS[name]().allocate(srv, reqs, 0.0)
        assert sum(rates.values()) <= srv.bandwidth + 1e-9
        for r in reqs:
            assert rates[r.request_id] >= r.view_bandwidth - 1e-12


class TestEFTF:
    def test_spare_goes_to_earliest_finish(self):
        srv = server(bandwidth=5.0)
        near = attached_request(srv, remaining=10.0)
        far = attached_request(srv, remaining=90.0)
        rates = EFTFAllocator().allocate(srv, [near, far], 0.0)
        # 2 Mb/s base + 3 spare, all to the near-finished stream.
        assert rates[near.request_id] == pytest.approx(4.0)
        assert rates[far.request_id] == pytest.approx(1.0)

    def test_respects_receive_bandwidth_cap(self):
        srv = server(bandwidth=10.0)
        near = attached_request(srv, remaining=10.0, receive_bandwidth=3.0)
        far = attached_request(srv, remaining=90.0)
        rates = EFTFAllocator().allocate(srv, [near, far], 0.0)
        assert rates[near.request_id] == pytest.approx(3.0)  # capped
        # Leftover spills to the next-earliest:
        assert rates[far.request_id] == pytest.approx(7.0)

    def test_skips_full_buffers(self):
        srv = server(bandwidth=5.0)
        near = attached_request(srv, remaining=50.0, buffer_capacity=10.0)
        far = attached_request(srv, remaining=90.0, buffer_capacity=10.0)
        # Fill near's buffer: sent 50, viewed 40 at t=40 → buffer 10 = cap.
        near.bytes_sent = 50.0
        near.last_sync = 40.0
        far.bytes_sent = 50.0  # viewed 40 → buffer 10 = cap too? No: cap
        far.last_sync = 40.0   # far: sent 50 viewed 40 → also full.
        # Give far headroom by enlarging its buffer:
        far.client = make_client(buffer_capacity=30.0)
        rates = EFTFAllocator().allocate(srv, [near, far], 40.0)
        assert rates[near.request_id] == pytest.approx(1.0)
        assert rates[far.request_id] == pytest.approx(4.0)

    def test_skips_receive_capped_at_view_rate(self):
        srv = server(bandwidth=5.0)
        r = attached_request(srv, remaining=50.0, receive_bandwidth=1.0)
        rates = EFTFAllocator().allocate(srv, [r], 0.0)
        assert rates[r.request_id] == pytest.approx(1.0)

    def test_deterministic_tie_break_by_id(self):
        srv = server(bandwidth=3.0)
        a = attached_request(srv, remaining=50.0, receive_bandwidth=3.0)
        b = attached_request(srv, remaining=50.0, receive_bandwidth=3.0)
        rates = EFTFAllocator().allocate(srv, [b, a], 0.0)
        # Equal remaining → lower request id wins the spare.
        assert rates[a.request_id] > rates[b.request_id]

    def test_finished_request_not_boosted(self):
        srv = server(bandwidth=5.0)
        done = attached_request(srv, remaining=0.0)
        live = attached_request(srv, remaining=50.0)
        rates = EFTFAllocator().allocate(srv, [done, live], 0.0)
        assert rates[done.request_id] == pytest.approx(1.0)  # min flow only
        assert rates[live.request_id] == pytest.approx(4.0)


class TestLFTF:
    def test_spare_goes_to_latest_finish(self):
        srv = server(bandwidth=5.0)
        near = attached_request(srv, remaining=10.0)
        far = attached_request(srv, remaining=90.0)
        rates = LFTFAllocator().allocate(srv, [near, far], 0.0)
        assert rates[far.request_id] == pytest.approx(4.0)
        assert rates[near.request_id] == pytest.approx(1.0)


class TestProportionalShare:
    def test_even_split(self):
        srv = server(bandwidth=10.0)
        a = attached_request(srv, remaining=10.0)
        b = attached_request(srv, remaining=90.0)
        rates = ProportionalShareAllocator().allocate(srv, [a, b], 0.0)
        assert rates[a.request_id] == pytest.approx(5.0)
        assert rates[b.request_id] == pytest.approx(5.0)

    def test_water_filling_past_caps(self):
        srv = server(bandwidth=10.0)
        capped = attached_request(srv, remaining=50.0, receive_bandwidth=2.0)
        open_ = attached_request(srv, remaining=50.0)
        rates = ProportionalShareAllocator().allocate(srv, [capped, open_], 0.0)
        assert rates[capped.request_id] == pytest.approx(2.0)
        assert rates[open_.request_id] == pytest.approx(8.0)

    def test_all_capped_leaves_spare_idle(self):
        srv = server(bandwidth=100.0)
        reqs = [
            attached_request(srv, remaining=50.0, receive_bandwidth=2.0)
            for _ in range(3)
        ]
        rates = ProportionalShareAllocator().allocate(srv, reqs, 0.0)
        assert sum(rates.values()) == pytest.approx(6.0)


class TestNoWorkahead:
    def test_spare_always_idle(self):
        srv = server(bandwidth=10.0)
        reqs = [attached_request(srv, remaining=50.0) for _ in range(2)]
        rates = NoWorkaheadAllocator().allocate(srv, reqs, 0.0)
        assert sum(rates.values()) == pytest.approx(2.0)


class TestInlinedEligibilityEquivalence:
    """The allocator inlines Request.headroom for speed; pin them equal."""

    @pytest.mark.parametrize(
        "buffer_capacity,sent,now",
        [
            (10.0, 0.0, 0.0),
            (10.0, 30.0, 10.0),
            (10.0, 20.0, 10.0),   # exactly full
            (math.inf, 95.0, 50.0),
            (0.0, 5.0, 5.0),
        ],
    )
    def test_headroom_matches_inline_formula(self, buffer_capacity, sent, now):
        r = make_request(client=make_client(buffer_capacity))
        r.bytes_sent = sent
        r.last_sync = now
        vb = r.view_bandwidth
        inline_head = r.client.buffer_capacity - (
            sent - (now - r.playback_start) * vb
        )
        data_head = r.size - sent
        expected = max(0.0, min(inline_head, data_head))
        assert r.headroom(now) == pytest.approx(expected)


class TestObsHook:
    """The obs hook fires at the end of every allocation pass, after
    each ``r.rate`` is written, for minimum-flow and intermittent
    allocators alike."""

    def _populate(self, srv, now=10.0):
        reqs = []
        # Plain stream, lots remaining.
        reqs.append(attached_request(srv, remaining=90.0))
        # Nearly finished (earliest finish under EFTF).
        reqs.append(attached_request(srv, remaining=5.0))
        # Buffer-limited (small headroom caps its boost).
        reqs.append(attached_request(srv, remaining=60.0,
                                     buffer_capacity=12.0))
        # Migration-paused until beyond `now`.
        paused = attached_request(srv, remaining=50.0)
        paused.paused_until = now + 5.0
        reqs.append(paused)
        for r in reqs:
            r.last_sync = now
        return reqs

    def test_obs_hook_still_fires_through_allocate_into(self):
        for name in ("eftf", "intermittent"):
            srv = server()
            reqs = self._populate(srv)
            for r in reqs:
                r.rate = -1.0  # stale value the pass must overwrite
            alloc = ALLOCATORS[name]()
            seen = []
            alloc.obs_hook = lambda server, requests, now: seen.append(
                (server, [r.rate for r in requests], now)
            )
            alloc.allocate_into(srv, reqs, 10.0)
            assert seen == [(srv, [r.rate for r in reqs], 10.0)]
            assert all(r.rate >= 0.0 for r in reqs)
            assert reqs[1].rate > reqs[1].view_bandwidth  # boosted
            assert reqs[3].rate == 0.0  # paused
