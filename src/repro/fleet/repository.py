"""On-disk snapshot repository for fleet aggregates.

Layout: one JSON file per program fingerprint under the repository
root — ``<root>/<fingerprint>.json`` — each a version-2 profile dict
(so ``repro-mini run --load-profile <root>/<fp>.json`` works on a
snapshot directly).

Durability contract:

* **Atomic writes.**  Snapshots are written to a temporary file in the
  repository directory and ``os.replace``d into place; a reader (or a
  crash) never observes a torn snapshot.
* **Corruption recovery.**  A snapshot that fails to parse (or nests
  too deeply to parse) is quarantined (renamed to
  ``<fingerprint>.json.corrupt``) and treated as absent, so one bad
  file — a truncated disk, a partial copy — never takes the service
  down or blocks future aggregation for that program.
"""

from __future__ import annotations

import json
import os
import re
import tempfile

from repro.fleet.merge import AggregateProfile, MergeError, MergePolicy

_FINGERPRINT_RE = re.compile(r"^[0-9a-f]{8,64}$")


class RepositoryError(Exception):
    """The repository root is unusable or a fingerprint is invalid."""


def _check_fingerprint(fingerprint: str) -> str:
    if not _FINGERPRINT_RE.match(fingerprint or ""):
        raise RepositoryError(f"invalid fingerprint {fingerprint!r}")
    return fingerprint


class ProfileRepository:
    """Stores one :class:`AggregateProfile` snapshot per fingerprint."""

    def __init__(self, root: str, policy: MergePolicy | None = None):
        self.root = os.path.abspath(root)
        self.policy = policy if policy is not None else MergePolicy()
        self.quarantined = 0
        try:
            os.makedirs(self.root, exist_ok=True)
        except OSError as error:
            raise RepositoryError(f"cannot create repository at {root}: {error}")

    def path_for(self, fingerprint: str) -> str:
        return os.path.join(self.root, _check_fingerprint(fingerprint) + ".json")

    def fingerprints(self) -> list[str]:
        """Fingerprints with a (non-quarantined) snapshot on disk, sorted."""
        found = []
        for name in os.listdir(self.root):
            stem, ext = os.path.splitext(name)
            if ext == ".json" and _FINGERPRINT_RE.match(stem):
                found.append(stem)
        return sorted(found)

    def load(self, fingerprint: str) -> AggregateProfile | None:
        """Load a snapshot; ``None`` if absent or quarantined as corrupt."""
        path = self.path_for(fingerprint)
        try:
            with open(path) as handle:
                data = json.load(handle)
            return AggregateProfile.from_dict(data, self.policy)
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError, RecursionError, MergeError, ValueError):
            self._quarantine(path)
            return None

    def store(self, aggregate: AggregateProfile) -> str:
        """Atomically persist ``aggregate``; returns the snapshot path."""
        path = self.path_for(aggregate.fingerprint)
        fd, tmp_path = tempfile.mkstemp(
            prefix=aggregate.fingerprint[:12] + ".", suffix=".tmp", dir=self.root
        )
        try:
            with os.fdopen(fd, "w") as handle:
                # dumps, not dump: dump streams through the pure-Python
                # encoder, dumps uses the C one — same bytes, under half
                # the time for the whole store.
                handle.write(json.dumps(aggregate.to_dict(), separators=(",", ":")))
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        return path

    def _quarantine(self, path: str) -> None:
        try:
            os.replace(path, path + ".corrupt")
            self.quarantined += 1
        except OSError:
            pass
