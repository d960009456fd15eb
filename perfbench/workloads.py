"""The benchmark's workloads: what each feeds the program and why.

Kept free of program imports so the orchestrator can read it in a
directory that holds only the benchmark.
"""

from __future__ import annotations

#: name -> input kind, engine spec, jobs and why.  ``dense`` and ``sparse``
#: inputs are generated traces written into a sharded store; ``ingest`` runs
#: applications under the collector.
WORKLOADS: dict[str, dict] = {
    "dense": {
        "input": "dense",
        "engine": "serial",
        "jobs": 1,
        "why": "findings-dense 500k-event synth trace in 4 shards, serial engine: finalize, materialisation, potential and render dominate",
    },
    "sparse": {
        "input": "sparse",
        "engine": "serial",
        "jobs": 1,
        "why": "findings-sparse 400k-event trace in 49 small shards, serial engine: the fold and per-shard loads dominate",
    },
    "partitioned": {
        "input": "sparse",
        "engine": "process",
        "jobs": 2,
        "why": "the sparse store on the process engine with 2 workers: pool, carry codec and carry merge",
    },
    "ingest": {
        "input": "ingest",
        "engine": None,
        "jobs": 1,
        "why": "lud (event-heavy) and resize-omp (byte-heavy) run under the OMPT collector into stores: callbacks, hashing, store writes",
    },
}

#: (application, variant) legs of the ingest workload, at ``INGEST_SIZE``.
INGEST_LEGS = (("lud", "synthetic"), ("resize-omp", "baseline"))
INGEST_SIZE = "medium"
#: Shard size of the stores the ingest workload writes.
INGEST_SHARD_EVENTS = 4096
