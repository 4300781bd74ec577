"""Fleet profiling: aggregate DCG profiles across VM runs.

The paper makes high-accuracy DCG collection cheap enough to run
*everywhere*; this package closes the production-PGO loop that cheapness
enables.  Many concurrent VM runs publish DCG deltas (non-blocking, via
:class:`~repro.fleet.client.FleetPublisher`) to one aggregation service
(:class:`~repro.fleet.service.FleetService`, ``repro-mini serve``) that
merges them per program fingerprint with order-independent weighted
decay and persists crash-safe snapshots.  A later run warm-starts its
adaptive optimizer from the aggregate (``repro-mini run --publish ADDR
--warm-start``), so short-running programs — the paper's motivating
failure mode for sampled profiles — reach full optimization without
waiting to re-learn what the fleet already knows.

See docs/FLEET.md for the protocol, repository layout, warm-start
semantics, and failure modes.
"""

from repro._lazy import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "FleetPublisher": ".client",
        "fetch_snapshot": ".client",
        "parse_address": ".client",
        "AggregateProfile": ".merge",
        "MergeError": ".merge",
        "MergePolicy": ".merge",
        "MAX_MESSAGE_BYTES": ".protocol",
        "PROTOCOL_VERSION": ".protocol",
        "ProtocolError": ".protocol",
        "encode_message": ".protocol",
        "decode_payload": ".protocol",
        "ProfileRepository": ".repository",
        "RepositoryError": ".repository",
        "FleetService": ".service",
        "run_service": ".service",
    },
)
