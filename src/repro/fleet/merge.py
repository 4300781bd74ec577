"""Order-independent weighted-decay merging of DCG deltas.

The fleet server receives deltas from many concurrent VM runs with no
ordering guarantees, yet the aggregate must be a pure function of *what*
was published, not *when* it arrived — otherwise two servers fed the
same fleet would disagree, and tests could never compare aggregates.

The trick is to make decay a function of the delta's **epoch** (an age
stamp the client chooses — e.g. a build number or day counter), not of
arrival order.  An aggregate at epoch ``E`` holds, for every edge, the
sum over all merged deltas of ``weight · decay^(E − epoch(delta))``
where ``E`` is the maximum epoch seen.  Summation is commutative and
the scale factor depends only on the delta's own stamp and the final
maximum, so any arrival order yields the same aggregate.  (With the
default ``decay=1.0`` this degenerates to plain summation.)  Decay
factors that are negative powers of two — 0.5, 0.25 — are exact in
binary floating point, which the determinism tests exploit.

A delta carries two kinds of row, call-graph edges and inline-cache
receiver counts, and both fold the same way.  Edges are keyed
symbolically (``caller name, pc, callee name``) exactly like serialized
profiles, so an aggregate outlives any single build of the program;
:meth:`AggregateProfile.to_dict` emits a version-2 profile dict
(resolvable by :func:`repro.profiling.serialize.dcg_from_dict`) with a
``"fleet"`` metadata key.  Snapshots that older servers wrote with a
``paths`` section of Ball-Larus rows load without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.profiling.serialize import FORMAT_VERSION

#: Symbolic edge key: (caller qualified name, callsite pc, callee qualified name).
NamedEdge = tuple[str, int, str]

#: Symbolic receiver key: (caller qualified name, callsite pc, receiver class name).
NamedReceiver = tuple[str, int, str]


class MergeError(Exception):
    """A delta or snapshot could not be merged (malformed edges)."""


@dataclass(frozen=True)
class MergePolicy:
    """How deltas fold into an aggregate.

    ``decay`` is applied per *epoch* of age difference (1.0 disables
    aging).  ``max_edges`` bounds a persisted snapshot: the lightest
    edges are pruned deterministically at serialization time only, so
    pruning never makes in-memory merging order-dependent.
    """

    decay: float = 1.0
    max_edges: int | None = None

    def __post_init__(self):
        if not 0.0 < self.decay <= 1.0:
            raise ValueError("decay must be in (0, 1]")
        if self.max_edges is not None and self.max_edges < 1:
            raise ValueError("max_edges must be >= 1")


def _validate_row(entry, what: str) -> tuple[tuple, float]:
    """Validate one ``[name, pc, name, weight]`` wire row."""
    try:
        first, pc, second, weight = entry
        key = (str(first), int(pc), str(second))
        weight = float(weight)
    except (TypeError, ValueError) as error:
        raise MergeError(f"malformed {what} {entry!r}") from error
    if not math.isfinite(weight) or weight < 0:
        raise MergeError(f"bad weight in {what} {entry!r}")
    return key, weight


def validate_rows(rows, what: str) -> list[tuple[tuple, float]]:
    """Validate wire rows (edges or receiver rows) into ``(key, weight)``
    pairs, dropping zero weights; raises :class:`MergeError` on the
    first malformed row."""
    return [
        (key, weight)
        for key, weight in (_validate_row(entry, what) for entry in rows)
        if weight
    ]


def coalesce_validated(deltas) -> list[tuple[int, dict, dict]]:
    """Sum validated deltas into per-epoch lumps ready for merging.

    ``deltas`` is an iterable of ``(epoch, edge_pairs, receiver_pairs)``
    where each pair list is what :func:`validate_rows` returns (the
    shape the staging buffer holds).  Returns ``[(epoch, edge_sums,
    receiver_sums), ...]`` in ascending epoch order — deterministic,
    and equivalent to any other order by merge commutativity.
    """
    by_epoch: dict[int, tuple[dict, dict]] = {}
    for epoch, edges, receivers in deltas:
        group = by_epoch.get(epoch)
        if group is None:
            group = by_epoch[epoch] = ({}, {})
        edge_sums, receiver_sums = group
        for key, weight in edges:
            edge_sums[key] = edge_sums.get(key, 0.0) + weight
        for key, count in receivers:
            receiver_sums[key] = receiver_sums.get(key, 0.0) + count
    return [
        (epoch, *by_epoch[epoch]) for epoch in sorted(by_epoch)
    ]


class AggregateProfile:
    """The fleet-wide profile for one program fingerprint."""

    def __init__(self, fingerprint: str, policy: MergePolicy | None = None):
        self.fingerprint = fingerprint
        self.policy = policy if policy is not None else MergePolicy()
        self.epoch = 0
        self.publishes = 0
        self._edges: dict[NamedEdge, float] = {}
        self._receivers: dict[NamedReceiver, float] = {}
        self._run_ids: set[str] = set()
        #: Runs folded into snapshots this aggregate was loaded from
        #: (their ids are not retained; see :meth:`from_dict`).
        self._base_runs = 0

    # -- merging ------------------------------------------------------------------

    def merge_delta(
        self,
        edges: list,
        epoch: int = 0,
        run_id: str | None = None,
        receivers: list | None = None,
    ) -> None:
        """Fold one published delta into the aggregate.

        No serving path calls this (the service stages and drains
        through :meth:`merge_coalesced`); it stays as the
        one-delta-at-a-time reference that ``test_coalesce.py`` /
        ``test_service.py`` compare the staging/drain path against, that
        the measurement spine times, and that the in-process
        ``harness fleet`` experiment folds its runs with.

        ``edges`` is a list of ``[caller, pc, callee, weight]`` entries
        (the wire shape); ``receivers``, when present, is a list of
        ``[caller, pc, class_name, count]`` inline-cache receiver rows
        folded the same way (same decay, same commutativity).  Raises
        :class:`MergeError` on malformed entries without mutating the
        aggregate.
        """
        validated = validate_rows(edges, "edge")
        validated_receivers = validate_rows(receivers or (), "receiver row")

        scale = self._rebase(int(epoch))
        for key, weight in validated:
            self._edges[key] = self._edges.get(key, 0.0) + weight * scale
        for key, count in validated_receivers:
            self._receivers[key] = self._receivers.get(key, 0.0) + count * scale
        self.publishes += 1
        if run_id is not None:
            self._run_ids.add(str(run_id))

    def merge_coalesced(
        self, groups, run_ids=(), publishes: int = 0
    ) -> None:
        """Fold pre-coalesced per-epoch lumps into the aggregate.

        ``groups`` is what :func:`coalesce_validated` returns: for each
        epoch, row weights already summed per key.  Because the scale
        factor a delta receives depends only on its own epoch stamp and
        the final maximum epoch — never on arrival order — summing
        same-epoch weights before scaling distributes over the merge,
        so a coalesced lump yields the same aggregate as merging its
        deltas one at a time (``tests/fleet/test_coalesce.py`` holds
        this bit-exactly for integral weights under power-of-two
        decay).  ``publishes`` and ``run_ids`` carry the per-delta
        accounting the lump absorbed.
        """
        for epoch, edges, receivers in groups:
            scale = self._rebase(int(epoch))
            for key, weight in edges.items():
                self._edges[key] = self._edges.get(key, 0.0) + weight * scale
            for key, count in receivers.items():
                self._receivers[key] = self._receivers.get(key, 0.0) + count * scale
        self.publishes += publishes
        for run_id in run_ids:
            self._run_ids.add(str(run_id))

    def clone_for_snapshot(self) -> "AggregateProfile":
        """A detached copy safe to serialize off the event loop.

        Shallow dict copies (keys are tuples, values are floats) taken
        while the loop owns the aggregate; the clone never changes, so
        a writer thread can sort and serialize it while merging
        continues on the original.
        """
        clone = AggregateProfile(self.fingerprint, self.policy)
        clone.epoch = self.epoch
        clone.publishes = self.publishes
        clone._edges = dict(self._edges)
        clone._receivers = dict(self._receivers)
        clone._run_ids = set(self._run_ids)
        clone._base_runs = self._base_runs
        return clone

    def _rebase(self, epoch: int) -> float:
        """Advance the aggregate to ``max(self.epoch, epoch)`` and return
        the scale factor for a delta stamped ``epoch``."""
        decay = self.policy.decay
        if decay == 1.0:
            self.epoch = max(self.epoch, epoch)
            return 1.0
        if epoch > self.epoch:
            aging = decay ** (epoch - self.epoch)
            for key in self._edges:
                self._edges[key] *= aging
            for key in self._receivers:
                self._receivers[key] *= aging
            self.epoch = epoch
            return 1.0
        return decay ** (self.epoch - epoch)

    # -- queries ------------------------------------------------------------------

    @property
    def runs(self) -> int:
        """Distinct runs merged (including those baked into a loaded snapshot)."""
        return self._base_runs + len(self._run_ids)

    @property
    def total_weight(self) -> float:
        return sum(self._edges.values())

    def __len__(self) -> int:
        return len(self._edges)

    def edges(self) -> dict[NamedEdge, float]:
        """The raw symbolic edge→weight mapping (do not mutate)."""
        return self._edges

    def receivers(self) -> dict[NamedReceiver, float]:
        """The raw symbolic receiver→count mapping (do not mutate)."""
        return self._receivers

    def receiver_distribution(self, caller: str, pc: int) -> dict[str, float]:
        """{class name: aggregated count} at one symbolic call site."""
        return {
            rclass: count
            for (c, p, rclass), count in self._receivers.items()
            if c == caller and p == pc
        }

    # -- snapshots ----------------------------------------------------------------

    def to_dict(self) -> dict:
        """A version-2 profile dict plus fleet metadata.

        Deterministic: edges sort by key; pruning (``max_edges``) keeps
        the heaviest edges with key order breaking ties.
        """
        items = list(self._edges.items())
        limit = self.policy.max_edges
        if limit is not None and len(items) > limit:
            items.sort(key=lambda item: (-item[1], item[0]))
            items = items[:limit]
        items.sort(key=lambda item: item[0])
        snapshot = {
            "version": FORMAT_VERSION,
            "fingerprint": self.fingerprint,
            "edges": [
                {"caller": caller, "pc": pc, "callee": callee, "weight": weight}
                for (caller, pc, callee), weight in items
            ],
            "fleet": {
                "runs": self.runs,
                "publishes": self.publishes,
                "epoch": self.epoch,
                "total_weight": self.total_weight,
            },
        }
        if self._receivers:
            snapshot["receivers"] = [
                [caller, pc, rclass, count]
                for (caller, pc, rclass), count in sorted(
                    self._receivers.items()
                )
            ]
        return snapshot

    @classmethod
    def from_dict(cls, data: dict, policy: MergePolicy | None = None) -> "AggregateProfile":
        """Rebuild an aggregate from a persisted snapshot (a ``paths``
        section is ignored)."""
        if not isinstance(data, dict) or not isinstance(data.get("edges"), list):
            raise MergeError("snapshot is not a profile dict")
        fingerprint = data.get("fingerprint")
        if not isinstance(fingerprint, str):
            raise MergeError("snapshot has no fingerprint")
        aggregate = cls(fingerprint, policy)
        fleet = data.get("fleet", {})
        if not isinstance(fleet, dict):
            raise MergeError("malformed fleet metadata")
        aggregate.epoch = int(fleet.get("epoch", 0))
        aggregate.publishes = int(fleet.get("publishes", 0))
        aggregate._base_runs = int(fleet.get("runs", 0))
        for entry in data["edges"]:
            try:
                key = (str(entry["caller"]), int(entry["pc"]), str(entry["callee"]))
                weight = float(entry["weight"])
            except (KeyError, TypeError, ValueError) as error:
                raise MergeError(f"malformed snapshot edge {entry!r}") from error
            if not math.isfinite(weight) or weight < 0:
                raise MergeError(f"bad weight in snapshot edge {entry!r}")
            aggregate._edges[key] = aggregate._edges.get(key, 0.0) + weight
        receivers = data.get("receivers", [])
        if not isinstance(receivers, list):
            raise MergeError("malformed snapshot receivers")
        for entry in receivers:
            key, count = _validate_row(entry, "snapshot receiver row")
            aggregate._receivers[key] = (
                aggregate._receivers.get(key, 0.0) + count
            )
        return aggregate
