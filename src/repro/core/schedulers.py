"""Minimum-flow bandwidth allocators, chiefly EFTF (Figure 2).

A *minimum-flow* algorithm gives every unfinished request at least its
view bandwidth; allocators differ only in how they hand out the spare.
The paper's **Earliest Finishing Time First** picks "the active request
with the earliest projected finishing time whose client also has
available buffer space and allocates as much bandwidth to that request
as can be handled by the receiving client" — i.e. spare goes, greedily,
to the stream with the least data left.

Theorem 1: with no receive-bandwidth limit and no pausing, EFTF is
optimal among minimum-flow algorithms.  The alternatives here exist to
*ablate* that choice empirically:

* :class:`NoWorkaheadAllocator` — never uses spare (pure continuous
  transmission; equivalent to a zero staging buffer).
* :class:`ProportionalShareAllocator` — splits spare evenly among
  eligible streams.
* :class:`LFTFAllocator` — anti-EFTF (latest finish first), a straw man
  that shows the greedy direction matters.

Allocators receive requests whose state is already synced to ``now``.
A paused stream (mid-migration switch gap) gets rate 0 — its playback
is covered by the staging buffer, which the migration eligibility check
guarantees.

Performance note: this is the simulator's innermost loop (profiled at
>50 % of wall time before optimisation), so the eligibility test is
inlined arithmetic on request attributes rather than the readable
``Request.headroom`` helper — the two are kept equivalent by tests.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.request import EPS_MB, Request
from repro.cluster.server import DataServer
from repro.registry import Registry

#: Rate tolerance (Mb/s) below which spare bandwidth is considered spent.
EPS_RATE: float = 1e-9

#: A spare-bandwidth candidate: (remaining Mb, request id, request,
#: extra rate the client can take).  The first two fields are the EFTF
#: sort key (ascending remaining = earliest projected finish).
Candidate = Tuple[float, int, Request, float]


class BandwidthAllocator:
    """Base minimum-flow allocator: set every synced unfinished
    request's rate for *now*.  Subclasses choose who gets the spare by
    overriding :meth:`_distribute_spare`."""

    name: str = "abstract"

    #: Minimum-flow algorithms guarantee every unpaused unfinished
    #: stream at least its view bandwidth; the transmission manager
    #: relies on this to rule out buffer-empty boundaries.  Intermittent
    #: allocators (repro.core.intermittent) set this False.
    minimum_flow: bool = True

    #: Optional observability hook, called as ``obs_hook(server,
    #: requests, now)`` at the end of each allocation pass, after every
    #: ``r.rate`` is written — the obs tracer turns these into
    #: ``sched.realloc`` records.  This is the simulator's hottest call
    #: site, so the off-path cost is kept to one ``is None`` check.
    obs_hook = None

    #: Scratch list reused across :meth:`allocate_into` calls (the
    #: simulator is single-threaded and allocators never retain the
    #: list beyond one ``_distribute_spare`` call, so reuse is safe and
    #: avoids one list allocation per event).
    _scratch: Optional[List[Candidate]] = None

    def allocate(
        self, server: DataServer, requests: Sequence[Request], now: float
    ) -> Dict[int, float]:
        """Run :meth:`allocate_into` and return ``{request_id: rate}``."""
        self.allocate_into(server, requests, now)
        return {r.request_id: r.rate for r in requests}

    def allocate_into(
        self, server: DataServer, requests: Sequence[Request], now: float
    ) -> None:
        """Set ``r.rate`` on every request in place.

        The boundary-event hot path: one update of the whole schedule,
        with no per-stream rate dict.  Guarantees (enforced here, not in
        subclasses):

        * paused streams get 0;
        * all other streams get >= view bandwidth (minimum flow);
        * the sum never exceeds the server link.
        """
        base = 0.0
        live: List[Request] = []
        live_append = live.append
        for r in requests:
            if now < r.paused_until:
                r.rate = 0.0
                continue
            vb = r.view_bandwidth
            if r.playback_pause_time <= now:
                # Viewer hit pause (VCR): nothing drains, so the floor
                # is exempt once the staging buffer cannot absorb it —
                # pumping on would overflow the client.
                viewed = (r.playback_pause_time - r.playback_start) * vb
                head = min(
                    r.client.buffer_capacity - (r.bytes_sent - viewed),
                    r.video.size - r.bytes_sent,
                )
                if head <= EPS_MB:
                    r.rate = 0.0
                    continue
            r.rate = vb
            base += vb
            live_append(r)
        if base > server.bandwidth + EPS_MB:
            raise RuntimeError(
                f"minimum-flow violated on server {server.server_id}: "
                f"floor {base:.3f} > link {server.bandwidth:.3f} Mb/s"
            )
        spare = server.bandwidth - base
        if spare > EPS_RATE and live:
            candidates = self._scratch
            if candidates is None:
                candidates = []
            else:
                self._scratch = None  # guard against re-entrant use
                candidates.clear()
            append = candidates.append
            for r in live:
                vb = r.view_bandwidth
                client = r.client
                extra_cap = client.receive_bandwidth - vb
                if extra_cap <= EPS_RATE:
                    continue
                sent = r.bytes_sent
                remaining = r.video.size - sent
                if remaining <= EPS_MB:
                    continue
                # Inline of Request.headroom: capacity-side headroom;
                # the data side is covered by the `remaining` check.
                # `played_until` freezes consumption during VCR pauses.
                pause = r.playback_pause_time
                played_until = now if now < pause else pause
                head = client.buffer_capacity - (
                    sent - (played_until - r.playback_start) * vb
                )
                if head <= EPS_MB:
                    continue
                append((remaining, r.request_id, r, extra_cap))
            if candidates:
                self._distribute_spare(candidates, spare)
            candidates.clear()  # drop Request refs before parking
            self._scratch = candidates
        hook = self.obs_hook
        if hook is not None:
            hook(server, requests, now)

    def _distribute_spare(
        self, candidates: List[Candidate], spare: float
    ) -> None:
        """Add *spare* bandwidth onto ``r.rate`` among eligible
        *candidates*.  The default leaves the spare idle."""


class EFTFAllocator(BandwidthAllocator):
    """Earliest Finishing Time First (the paper's Figure 2).

    Iterates eligible streams by ascending remaining data (equivalently
    ascending projected finish), giving each as much as the client can
    take until the spare is gone.  Ties break on request id, making
    allocation deterministic.
    """

    name = "eftf"

    def _distribute_spare(self, candidates, spare):
        candidates.sort()
        for _remaining, _rid, r, extra_cap in candidates:
            extra = spare if spare < extra_cap else extra_cap
            r.rate += extra
            spare -= extra
            if spare <= EPS_RATE:
                break


class LFTFAllocator(BandwidthAllocator):
    """Latest Finishing Time First — the adversarial mirror of EFTF.

    Boosting the stream with the *most* data left keeps every stream
    unfinished for as long as possible, which is exactly what a
    minimum-flow algorithm should avoid.  Exists for ablation.
    """

    name = "lftf"

    def _distribute_spare(self, candidates, spare):
        candidates.sort(key=lambda c: (-c[0], c[1]))
        for _remaining, _rid, r, extra_cap in candidates:
            extra = spare if spare < extra_cap else extra_cap
            r.rate += extra
            spare -= extra
            if spare <= EPS_RATE:
                break


class ProportionalShareAllocator(BandwidthAllocator):
    """Split spare evenly among eligible streams (water-filling).

    Repeatedly divides the spare equally, capping at each client's
    receive limit, until the spare is spent or no stream can take more.
    """

    name = "proportional"

    def _distribute_spare(self, candidates, spare):
        # Water-filling: loop because capping one stream frees share for
        # the others.  Terminates in <= len(candidates) rounds.  Each
        # pool slot is [request, remaining cap].
        pool = [[r, cap] for _rem, _rid, r, cap in candidates]
        while spare > EPS_RATE and pool:
            share = spare / len(pool)
            next_round: List[list] = []
            for slot in pool:
                r, cap = slot
                extra = share if share < cap else cap
                if extra > EPS_RATE:
                    r.rate += extra
                    spare -= extra
                    slot[1] = cap - extra
                    if cap - extra > EPS_RATE:
                        next_round.append(slot)
            if len(next_round) == len(pool):
                break  # nobody capped; share was fully dealt
            pool = next_round


class NoWorkaheadAllocator(BandwidthAllocator):
    """Pure continuous transmission: spare bandwidth is never used.

    Equivalent to every client having a zero staging buffer; the
    baseline the paper's staging curves start from.
    """

    name = "none"


#: Scheduler registry used by the simulation config layer; unknown keys
#: raise an actionable :class:`repro.registry.UnknownKeyError`.
ALLOCATORS: Registry[type] = Registry("scheduler")
ALLOCATORS.register(
    "eftf", EFTFAllocator,
    help="Earliest Finishing Time First (the paper's Figure 2; optimal "
         "minimum-flow allocator under Theorem 1)",
)
ALLOCATORS.register(
    "lftf", LFTFAllocator,
    help="Latest Finishing Time First — adversarial EFTF mirror (ablation)",
)
ALLOCATORS.register(
    "proportional", ProportionalShareAllocator,
    help="split spare bandwidth evenly among eligible streams "
         "(water-filling)",
)
ALLOCATORS.register(
    "none", NoWorkaheadAllocator,
    help="pure continuous transmission: spare bandwidth stays idle",
)

# The intermittent allocator subclasses BandwidthAllocator, so it is
# imported at the end of this module to close the cycle and register
# itself alongside the minimum-flow family.
from repro.core.intermittent import IntermittentAllocator  # noqa: E402

ALLOCATORS.register(
    "intermittent", IntermittentAllocator,
    help="intermittent (non-minimum-flow) scheduling; pairs with "
         "overbooked admission",
)
