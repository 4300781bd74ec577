"""The served process of ``fleet_mixed``: ``run_service`` with its defaults.

Prints ``host port`` once listening and serves until its stdin closes,
which is how the load generator stops it in-band (no signals, so the
service's own shutdown path — drain, persist, close — always runs).
"""

from __future__ import annotations

import asyncio
import sys


async def serve(root: str) -> None:
    from repro.fleet.service import run_service

    def ready(address) -> None:
        print(address[0], address[1], flush=True)

    task = asyncio.ensure_future(run_service(root, ready=ready))
    await asyncio.to_thread(sys.stdin.read)
    task.cancel()
    try:
        await task
    except asyncio.CancelledError:
        pass


if __name__ == "__main__":
    asyncio.run(serve(sys.argv[1]))
