"""DCG serialization: save a profile from one run, reuse it in another.

The paper's comparison point (Suganuma et al.) validated online
profiling against systems using *perfect offline* profiles; this module
provides the offline side: profiles serialize to JSON keyed by qualified
function names (not indices), so a profile collected against one build
of a program can be applied to another as long as the names resolve.

Format (version 3)::

    {
      "version": 3,
      "fingerprint": "<sha256 of the program's code, optional>",
      "edges": [
        {"caller": "Network.assert", "pc": 14,
         "callee": "ModNode.test", "weight": 123.0},
        ...
      ]
    }

Version 1 files (no ``fingerprint``) and version 2 files still load.
Version 3 files written before path profiling was removed may carry a
``paths`` section of Ball-Larus rows; it is ignored.  When a
fingerprint is
present and does not match the program the profile is being resolved
against, lenient mode warns (:class:`ProfileMismatchWarning`) and
resolves by name anyway — profiles are allowed to be stale — while
strict mode raises :class:`ProfileFormatError`.

Writes are crash-safe: :func:`save_profile` writes to a temporary file
in the destination directory and atomically renames it into place, so a
reader never observes a half-written profile.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import warnings
from typing import TYPE_CHECKING

from repro.profiling.dcg import DCG

if TYPE_CHECKING:
    from repro.bytecode.program import Program

FORMAT_VERSION = 3

#: Versions :func:`dcg_from_dict` accepts (v1 predates fingerprints,
#: v2 predates the optional path rows v3 loads and ignores).
SUPPORTED_VERSIONS = (1, 2, 3)


class ProfileFormatError(Exception):
    """Raised when a serialized profile cannot be parsed or resolved."""


class ProfileMismatchWarning(UserWarning):
    """A profile's fingerprint does not match the resolving program."""


def dcg_to_dict(dcg: DCG, program: Program) -> dict:
    """Serialize ``dcg`` to a JSON-compatible dict with symbolic names."""
    edges = []
    for (caller, pc, callee), weight in sorted(dcg.edges().items()):
        edges.append(
            {
                "caller": program.functions[caller].qualified_name,
                "pc": pc,
                "callee": program.functions[callee].qualified_name,
                "weight": weight,
            }
        )
    return {
        "version": FORMAT_VERSION,
        "fingerprint": program.fingerprint(),
        "edges": edges,
    }


def dcg_from_dict(
    data: dict, program: Program, strict: bool = False
) -> DCG:
    """Resolve a serialized profile against ``program``.

    Edges naming functions the program does not define are skipped
    (``strict=False``, the default — profiles may be stale) or rejected
    (``strict=True``).  A ``fingerprint`` field, when present, is
    checked against ``program.fingerprint()``: mismatches warn in
    lenient mode and raise in strict mode.
    """
    if not isinstance(data, dict) or data.get("version") not in SUPPORTED_VERSIONS:
        raise ProfileFormatError(
            f"unsupported profile format (expected version in {SUPPORTED_VERSIONS})"
        )
    fingerprint, entries = data.get("fingerprint"), data.get("edges", [])
    if not isinstance(fingerprint, (str, type(None))):
        raise ProfileFormatError("profile 'fingerprint' is not a string")
    if not isinstance(entries, list):
        raise ProfileFormatError("profile 'edges' is not a list")
    if fingerprint is not None and fingerprint != program.fingerprint():
        if strict:
            raise ProfileFormatError(
                "profile fingerprint does not match the program "
                f"({fingerprint} vs {program.fingerprint()})"
            )
        warnings.warn(
            "profile was collected against a different build of the "
            "program; resolving by name anyway",
            ProfileMismatchWarning,
            stacklevel=2,
        )
    index_by_name = {f.qualified_name: f.index for f in program.functions}
    dcg = DCG()
    for entry in entries:
        try:
            caller_name = entry["caller"]
            callee_name = entry["callee"]
            pc = int(entry["pc"])
            weight = float(entry["weight"])
            if not (isinstance(caller_name, str) and isinstance(callee_name, str)):
                raise TypeError("function names must be strings")
        except (KeyError, TypeError, ValueError, OverflowError) as error:
            raise ProfileFormatError(f"malformed edge entry {entry!r}") from error
        caller = index_by_name.get(caller_name)
        callee = index_by_name.get(callee_name)
        if caller is None or callee is None:
            if strict:
                missing = caller_name if caller is None else callee_name
                raise ProfileFormatError(f"unknown function {missing!r} in profile")
            continue
        if not math.isfinite(weight):
            raise ProfileFormatError(f"non-finite weight in edge {entry!r}")
        if weight < 0:
            raise ProfileFormatError(f"negative weight in edge {entry!r}")
        dcg.record(caller, pc, callee, weight)
    return dcg


def save_profile(dcg: DCG, program: Program, path: str) -> None:
    """Atomically write ``dcg`` to ``path``.

    The profile is written to a temporary file in the same directory
    and renamed into place, so a crash mid-write never leaves a
    truncated profile at ``path``.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(dcg_to_dict(dcg, program), handle, indent=1)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def load_profile(path: str, program: Program, strict: bool = False) -> DCG:
    """Read a profile written by :func:`save_profile`."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    # ValueError covers JSONDecodeError and UnicodeDecodeError.
    except (OSError, ValueError, RecursionError) as error:
        raise ProfileFormatError(f"cannot load profile from {path}: {error}")
    return dcg_from_dict(data, program, strict)
