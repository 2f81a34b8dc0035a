"""A traced stand-in for ``repro serve``: same server, probed session.

Builds the session ``repro serve --dataset rotowire`` builds, but out of
:mod:`perfbench.probes` parts, and serves it with the same
:class:`~repro.serve.app.QueryServer`.  The benchmark talks to it over
HTTP like any server, and over stdin/stdout for the recorder::

    reset   → zero every probe total, answers "ok"
    dump    → one JSON line: the recorder export

SIGTERM drains and exits, as ``repro serve`` does.

Lanes and LLM latency are the workload's (:data:`~perfbench.serve_load.LANES`,
:data:`~perfbench.serve_load.LLM_LATENCY_MS`).

Usage: ``python -m perfbench.serve_child --seed N [--scale S]`` from the
repository root with ``src`` and the root on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import threading

from repro.datasets import load_lake
from repro.llm.brain import SimulatedBrain
from repro.serve.app import QueryServer, ServeConfig
from repro.session import Session

from perfbench import probes
from perfbench.serve_load import LANES, LLM_LATENCY_MS


def _control(recorder: probes.Recorder) -> None:
    for line in sys.stdin:
        command = line.strip()
        if command == "reset":
            recorder.reset()
            reply = "ok"
        elif command == "dump":
            reply = json.dumps(recorder.export())
        else:
            reply = json.dumps({"error": f"unknown command {command!r}"})
        print(reply, flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.serve_child")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)

    recorder = probes.Recorder()
    lake = load_lake("rotowire", seed=args.seed, scale=args.scale)
    brain = SimulatedBrain(latency_seconds=LLM_LATENCY_MS / 1000.0)
    session = Session(lake, **probes.session_parts(brain, recorder))
    config = ServeConfig(port=0, workers=LANES)

    async def serve() -> None:
        server = QueryServer(session, config)
        await server.start()
        server.install_signal_handlers(asyncio.get_running_loop())
        print(f"serving rotowire lake on http://{config.host}:{server.port} ",
              flush=True)
        await server.wait_stopped()

    threading.Thread(target=_control, args=(recorder,), daemon=True).start()
    with probes.patched_modules(recorder):
        asyncio.run(serve())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
