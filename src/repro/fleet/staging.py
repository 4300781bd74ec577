"""Delta staging and per-client rate accounting for the fleet service.

The service's hot accept path does only three things with a publish
frame: validate its edge and receiver rows, append them to this
staging buffer, and ack.  A background drain task later takes whole
fingerprints out of the buffer, coalesces their deltas into per-epoch
lumps (:func:`repro.fleet.merge.coalesce_validated`) and merges each
lump in one pass — merge commutativity makes the coalesced result
identical to one-at-a-time merging, so early acks never change what
the fleet eventually sees.

Backpressure has two sources, both answered with a ``busy`` reply
carrying ``retry_after`` (never a dropped connection):

* the buffer's global high-water mark (``max_staged_rows``), which
  bounds worst-case memory and the latency of a drain pass;
* per-client :class:`TokenBucket` rate limits (``rate``/``burst``),
  keyed by ``run_id``, which stop one runaway publisher from starving
  the rest of the fleet.
"""

from __future__ import annotations

import time


def _check_limits(rate: float, burst: float) -> None:
    if not rate > 0:
        raise ValueError(f"rate must be positive, not {rate!r}")
    if not burst >= 1:
        raise ValueError(f"burst must be >= 1, not {burst!r}")


class TokenBucket:
    """A classic token bucket: ``rate`` tokens/second, ``burst`` deep."""

    __slots__ = ("rate", "burst", "tokens", "updated")

    def __init__(self, rate: float, burst: float, now: float | None = None):
        _check_limits(rate, burst)
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.updated = time.monotonic() if now is None else now

    def take(self, now: float | None = None) -> float:
        """Take one token; returns 0.0 on success, else seconds until
        the next token accrues (the ``retry_after`` to send)."""
        if now is None:
            now = time.monotonic()
        elapsed = now - self.updated
        if elapsed > 0:
            self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
        self.updated = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return 0.0
        return (1.0 - self.tokens) / self.rate


class RateLimiter:
    """Per-client token buckets, lazily created and bounded in number.

    Keyed by ``run_id``; a publisher with no ``run_id`` shares the
    anonymous bucket.  The table is capped so a fleet of short-lived
    run ids cannot grow it without bound — when full, the stalest
    bucket (oldest ``updated``) is evicted.
    """

    MAX_CLIENTS = 4096

    def __init__(self, rate: float, burst: float | None = None):
        self.rate = float(rate)
        self.burst = float(burst) if burst is not None else max(2.0 * rate, 8.0)
        # Here, not at the first publish: a bad limit would otherwise
        # raise inside the service's publish handler on every frame.
        _check_limits(self.rate, self.burst)
        self._buckets: dict[str, TokenBucket] = {}

    def check(self, run_id, now: float | None = None) -> float:
        """0.0 = admit; positive = busy, retry after that many seconds."""
        key = run_id if isinstance(run_id, str) else ""
        bucket = self._buckets.get(key)
        if bucket is None:
            if len(self._buckets) >= self.MAX_CLIENTS:
                stalest = min(self._buckets, key=lambda k: self._buckets[k].updated)
                del self._buckets[stalest]
            bucket = self._buckets[key] = TokenBucket(self.rate, self.burst, now=now)
        return bucket.take(now)


class StagingBuffer:
    """Validated publish deltas awaiting their coalesced merge.

    Rows are stored pre-validated — ``(key, weight)`` tuples, the exact
    shape :func:`repro.fleet.merge.coalesce_validated` consumes — so a
    malformed delta is rejected synchronously on the accept path and
    the drain task can never fail validation halfway through a lump.
    """

    def __init__(self, max_staged_rows: int = 200_000):
        if max_staged_rows < 1:
            raise ValueError("max_staged_rows must be >= 1")
        self.max_staged_rows = max_staged_rows
        #: fingerprint -> [(epoch, edge_pairs, receiver_pairs)]
        self._deltas: dict[str, list] = {}
        #: fingerprint -> {run_id} staged since the last drain
        self._run_ids: dict[str, set] = {}
        #: fingerprint -> [span] for deltas staged with trace coordinates
        self._spans: dict[str, list] = {}
        self.staged_rows = 0
        self.staged_deltas = 0
        #: Lifetime counters (survive drains) for the coalesce ratio.
        self.total_staged = 0
        self.total_lumps = 0

    def __len__(self) -> int:
        return self.staged_deltas

    @property
    def full(self) -> bool:
        return self.staged_rows >= self.max_staged_rows

    def stage(
        self, fingerprint: str, epoch: int, edges, receivers, paths, run_id, span=None
    ) -> int:
        """Append one validated delta; returns the new queue depth.

        ``span`` is whatever the caller wants back from
        :meth:`take_spans` when the delta merges — the service stages
        the publish's trace coordinates so its telemetry can emit one
        merge event per absorbed delta.  ``paths`` stays only because the
        measurement spine passes ``[]`` there until its re-cut (ROADMAP
        item 1); anything non-empty raises ValueError.
        """
        if paths:
            raise ValueError("path rows are not staged: paths must be empty")
        self._deltas.setdefault(fingerprint, []).append((epoch, edges, receivers))
        if run_id is not None:
            self._run_ids.setdefault(fingerprint, set()).add(str(run_id))
        if span is not None:
            self._spans.setdefault(fingerprint, []).append(span)
        self.staged_rows += len(edges) + len(receivers)
        self.staged_deltas += 1
        self.total_staged += 1
        return self.staged_deltas

    def take_all(self) -> list[tuple[str, list, set, int]]:
        """Drain the buffer: ``[(fingerprint, deltas, run_ids, count)]``.

        One entry per staged fingerprint — each is one coalesced merge
        lump.  The buffer is empty afterwards.
        """
        taken = []
        for fingerprint, deltas in self._deltas.items():
            taken.append(
                (
                    fingerprint,
                    deltas,
                    self._run_ids.get(fingerprint, set()),
                    len(deltas),
                )
            )
            self.total_lumps += 1
        self._deltas = {}
        self._run_ids = {}
        self.staged_rows = 0
        self.staged_deltas = 0
        return taken

    def take_one(self, fingerprint: str) -> tuple[list, set, int] | None:
        """Drain one fingerprint (the fetch-after-publish barrier)."""
        deltas = self._deltas.pop(fingerprint, None)
        if not deltas:
            return None
        run_ids = self._run_ids.pop(fingerprint, set())
        for _epoch, edges, receivers in deltas:
            self.staged_rows -= len(edges) + len(receivers)
        self.staged_deltas -= len(deltas)
        self.total_lumps += 1
        return deltas, run_ids, len(deltas)

    def take_spans(self, fingerprint: str) -> list:
        """The spans staged for ``fingerprint`` since they were last taken."""
        return self._spans.pop(fingerprint, [])

    def coalesce_ratio(self) -> float:
        """Mean deltas absorbed per coalesced merge lump (>= 1.0)."""
        if not self.total_lumps:
            return 0.0
        return round(self.total_staged / self.total_lumps, 3)
