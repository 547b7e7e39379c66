"""The one run-manifest schema the tooling validates.

`dlouvain-run-manifest/8` is what `Result::to_json()`, `dlouvain_cli
--metrics-out` and every `dlouvaind` reply emit (core/metrics.hpp). The
validators -- tools/validate_trace.py, tools/check_bench_regression.py
--manifest and tools/service_smoke.py -- all call problems() below, so the
schema id, the counter catalog and the section keys live in one place. Keep
them in sync with util/metrics.hpp, core/metrics.cpp and
docs/OBSERVABILITY.md.
"""

SCHEMA = "dlouvain-run-manifest/8"

# The named-counter catalog every manifest carries (util/metrics.hpp
# counter_name() plus the pool busy-seconds gauge).
COUNTERS = (
    "comm.messages", "comm.bytes", "comm.duplicates_dropped",
    "ghost.bytes_dense", "ghost.bytes_delta", "ghost.records_shipped",
    "ledger.refresh_records", "ledger.delta_records",
    "checkpoint.messages", "checkpoint.bytes", "checkpoint.file_bytes",
    "arq.nacks", "arq.retransmits", "arq.backoff_ms", "arq.escalations",
    "heartbeat.slow_extensions",
    "pool.busy_seconds",
)

BREAKDOWN_KEYS = (
    "ghost_exchange", "community_info", "compute", "delta_exchange",
    "allreduce", "rebuild", "compute_busy", "comm_hidden",
)

PHASE_KEYS = (
    "phase", "iterations", "seconds", "breakdown", "load_lambda", "discarded",
)

# The optional per-response "service" section of manifests replied by
# dlouvaind (core/metrics.hpp ServiceTelemetry; docs/SERVICE.md).
SERVICE_KEYS = (
    "job_id", "cache_hit", "queue_depth", "jobs_served", "cache_hits",
    "cache_misses", "rejected", "sessions_open", "drain",
)
DRAIN_STATES = ("none", "draining", "clean")


def _missing(obj, keys, where):
    if not isinstance(obj, dict):
        return [f"{where} is not an object"]
    return [f"{where} missing '{key}'" for key in keys if key not in obj]


def problems(manifest):
    """Every way `manifest` (parsed JSON) departs from the schema."""
    schema = manifest.get("schema")
    if schema != SCHEMA:
        return [f"schema '{schema}' is not '{SCHEMA}'"]
    out = _missing(manifest, ("engine", "modularity", "num_communities",
                              "phases", "total_iterations", "seconds",
                              "updates", "recovery"), "manifest")
    out += _missing(manifest.get("updates"), ("batches_applied",), "updates")
    out += _missing(manifest.get("recovery", {}).get("ladder"),
                    ("retransmits", "final_ranks"), "recovery.ladder")
    if "service" in manifest:
        service = manifest["service"]
        out += _missing(service, SERVICE_KEYS, "service section")
        if isinstance(service, dict) and service.get("drain") not in DRAIN_STATES:
            out.append(f"service drain state '{service.get('drain')}' is not "
                       f"one of {'/'.join(DRAIN_STATES)}")
    if "engine" in manifest and manifest["engine"] != "distributed":
        out.append(f"engine '{manifest['engine']}' is not 'distributed'")
    counters = manifest.get("counters", {})
    out += _missing(counters, COUNTERS, "counters")
    out += _missing(manifest.get("breakdown"), BREAKDOWN_KEYS, "breakdown")
    for ph in manifest.get("phases_detail", []):
        out += _missing(ph, PHASE_KEYS, "phases_detail entry")
    restored = manifest.get("restored", {}).get("messages", 0)
    executed = counters.get("comm.messages", 0)
    total = manifest.get("messages", 0)
    if restored + executed != total:
        out.append(f"messages {total} != restored {restored} + executed "
                   f"{executed} (counter-semantics contract broken)")
    return out
