"""Serve one ``GatewayService`` for the gateway workload, in its own process.

Protocol over stdin/stdout, one JSON object per line:

1. stdin: ``{"sizes": [...], "trace": bool, "spans": path-or-null}``;
2. stdout: ``{"port": n}`` once the service is listening;
3. stdin: any line (or end of file) stops the service;
4. stdout: ``{"peak_rss_kb", "summary", "values", "handle"}``, where
   ``handle`` lists ``[session, index, seconds]`` of every traced
   ``POST /v1/access`` decision, keyed by the request id the generator
   knows too.

Run it as ``python3 perfbench/gateway_server.py`` from the repository root.
"""

from __future__ import annotations

import asyncio
import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from layers import install_core, install_gateway  # noqa: E402
from spans import Patches, SpanRecorder  # noqa: E402


async def serve(config: dict) -> dict:
    from repro.gateway.service import GatewayConfig, GatewayService

    gateway = GatewayConfig(sizes=np.asarray(config["sizes"]))
    recorder = patches = None
    if config["trace"]:
        recorder = SpanRecorder()
        patches = Patches(recorder)
        install_core(patches, gateway.session.predictor)
        install_gateway(patches)

        def tag_request(index, args, _kwargs, result) -> None:
            if args[2] == "/v1/access" and result[0] == 200:
                advice = json.loads(result[2])
                recorder.requests[index] = (advice["session"], advice["index"])

        patches.wrap(GatewayService, "handle", "gateway.handle", tag_request)
    service = GatewayService(gateway)
    server = await service.start("127.0.0.1", 0)
    print(json.dumps({"port": server.sockets[0].getsockname()[1]}), flush=True)
    await asyncio.get_running_loop().run_in_executor(None, sys.stdin.readline)
    server.close()
    await server.wait_closed()
    # Let connection handlers whose peers already hung up finish, rather
    # than be cancelled when the loop shuts down.
    handlers = asyncio.all_tasks() - {asyncio.current_task()}
    if handlers:
        await asyncio.wait(handlers, timeout=5)

    out = {
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "summary": {},
        "values": {},
        "handle": [],
    }
    if recorder is not None:
        patches.restore()
        out["summary"] = recorder.summary()
        out["values"] = {k: list(v) for k, v in recorder.values.items()}
        out["handle"] = [
            [*rid, recorder.end[i] - recorder.start[i]] for i, rid in recorder.requests.items()
        ]
        if config.get("spans"):
            recorder.save(config["spans"])
    return out


def main() -> int:
    config = json.loads(sys.stdin.readline())
    result = asyncio.run(serve(config))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
