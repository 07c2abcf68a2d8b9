"""Deterministic request tracing: span trees and Chrome trace export.

Serves a few requests against a sharded, streaming index with the tracer
on (sample rate 1.0), prints one request's span tree — admission, queue
wait, batch ride, plan compile, per-shard scans, delta scans, merge —
and exports every retained trace as Chrome trace-event JSON for
chrome://tracing or https://ui.perfetto.dev.

Because every timestamp comes from the server's virtual clock and every
duration from the simulated device/host models, re-running this script
produces byte-identical traces.

Run:  python examples/trace_request.py
"""

from repro.api import GenieSession
from repro.serve import BatchPolicy, GenieServer
from repro.stream import StreamConfig

OUT = "trace_request.json"


def main():
    session = GenieSession()
    session.create_index(
        [[i, i + 1] for i in range(64)], model="raw", name="events",
        shards=2, stream_config=StreamConfig(auto_compact=False),
    )
    # Mutate the index so the trace shows the streaming stages too.
    session.index("events").insert([[3, 50], [40, 50]])
    session.index("events").delete([0])

    server = GenieServer(
        session, policy=BatchPolicy.micro(max_batch=8, max_wait=1e-3),
        cache_size=None, trace_sample=1,  # trace every request
    )
    futures = [server.submit("events", (3, 40), k=5) for _ in range(3)]
    server.drain()

    root = futures[0].metadata.trace
    print("One request's span tree (simulated milliseconds):\n")
    print(root.render())

    plan = root.find("plan")
    print(f"\nplan: {plan.attrs['merge']} merge (cache_hit={plan.attrs['cache_hit']})")

    server.tracer.export_chrome_trace(OUT)
    print(f"\n{server.tracer.total_traces} traces exported to {OUT}")
    print("open chrome://tracing or https://ui.perfetto.dev and load the file")
    server.close()


if __name__ == "__main__":
    main()
