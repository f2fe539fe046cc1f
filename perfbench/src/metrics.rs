//! Every metric the benchmark prints: name, unit and where its value
//! comes from. `perfbench/README.md` defines each one and maps each
//! per-layer metric to the end-to-end metric it should move.

/// Where a metric's value comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Host time or memory: the median over the command's runs.
    Host,
    /// Simulated and deterministic for a seed: the first untraced run's
    /// value, which every other run reproduces.
    Sim,
    /// Simulated, but only the traced run can see it.
    Traced,
}

impl Kind {
    /// Label printed next to the value.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Host => "host",
            Kind::Sim => "sim",
            Kind::Traced => "sim/traced",
        }
    }
}

use Kind::{Host, Sim, Traced};

/// End-to-end metrics (`--trace 0`). `get_p999_us` is printed only when
/// the run completed at least 10,000 GETs and `set_*` only for workloads
/// that write; every workload completes 10,000 GETs (an output check).
pub const END_TO_END: &[(&str, &str, Kind)] = &[
    ("setup_s", "s", Host),
    ("run_s", "s", Host),
    ("peak_rss_mb", "MiB", Host),
    ("get_p50_us", "us", Sim),
    ("get_p99_us", "us", Sim),
    ("get_p999_us", "us", Sim),
    ("set_p50_us", "us", Sim),
    ("set_p99_us", "us", Sim),
    ("cpu_us_per_op", "us", Sim),
    ("wire_bytes_per_op", "B", Sim),
    ("op_error_ratio", "ratio", Sim),
    ("bench.calibration_s", "s", Host),
];

/// The end-to-end metrics in the JSON result line: those every workload
/// reports and that are never 0 (`set_*` exist only on the writing
/// workloads and `op_error_ratio` is 0 on all four; both are printed
/// above the result line, and failures also count in its `failed`).
pub const DECLARED_END_TO_END: &[&str] = &[
    "setup_s",
    "run_s",
    "peak_rss_mb",
    "get_p50_us",
    "get_p99_us",
    "get_p999_us",
    "cpu_us_per_op",
    "wire_bytes_per_op",
];

/// Layers whose public functions the traced run replays; each yields
/// `<name>_ns` (host ns per call), `<name>_calls` (calls in the run) and
/// `<name>_share` (their product as a share of `run_s`).
pub const REPLAYS: &[&str] = &[
    "simnet.queue_push_pop",
    "rma.codec",
    "rma.serve",
    "rpc.codec",
    "cliquemap.store.fetch",
    "cliquemap.store.set",
    "cliquemap.layout.validate",
    "durable.flush_prefix",
    "durable.append",
];

/// Per-layer metrics (`--trace 1`), all of them in the JSON result line.
pub const PER_LAYER: &[(&str, &str, Kind)] = &[
    ("bench.build_s", "s", Host),
    ("bench.populate_s", "s", Host),
    ("bench.get_samples", "count", Sim),
    ("bench.set_samples", "count", Sim),
    ("bench.trace_overhead", "ratio", Host),
    ("bench.calibration_s", "s", Host),
    ("bench.unattributed_share", "share", Host),
    ("workloads.ops_issued", "count", Sim),
    ("workloads.keys_issued", "count", Sim),
    ("workloads.next_ns", "ns", Host),
    ("workloads.next_share", "share", Host),
    ("simnet.events", "count", Sim),
    ("simnet.events_per_op", "count", Sim),
    ("simnet.host_ns_per_event", "ns", Host),
    ("simnet.queue_push_pop_ns", "ns", Host),
    ("simnet.queue_push_pop_share", "share", Host),
    ("simnet.queue_hwm", "count", Sim),
    ("simnet.pending_pool_len", "count", Sim),
    ("simnet.rss_after_setup_mb", "MiB", Host),
    ("simnet.cpu_busy_ms.client", "ms", Sim),
    ("simnet.cpu_busy_ms.backend", "ms", Sim),
    ("simnet.cpu_busy_ms.config", "ms", Sim),
    ("simnet.fabric_bytes", "B", Sim),
    ("simnet.dropped_dead", "count", Sim),
    ("simnet.dropped_stale", "count", Sim),
    ("simnet.device_busy_ms", "ms", Sim),
    ("simnet.device_fsyncs", "count", Sim),
    ("simnet.device_write_mb", "MiB", Sim),
    ("rma.client_frames", "count", Sim),
    ("rma.backend_ops", "count", Sim),
    ("rma.rtt_p50_us", "us", Sim),
    ("rma.rtt_p99_us", "us", Sim),
    ("rma.timeouts", "count", Sim),
    ("rma.engines_max", "count", Traced),
    ("rma.engine_ms", "ms", Traced),
    ("rma.codec_ns", "ns", Host),
    ("rma.codec_share", "share", Host),
    ("rma.serve_ns", "ns", Host),
    ("rma.serve_share", "share", Host),
    ("rpc.bytes", "B", Sim),
    ("rpc.timeouts", "count", Sim),
    ("rpc.retries", "count", Sim),
    ("rpc.codec_ns", "ns", Host),
    ("rpc.codec_share", "share", Host),
    ("cliquemap.client.cpu_ms", "ms", Sim),
    ("cliquemap.get.retry_ratio", "ratio", Sim),
    ("cliquemap.set.superseded", "count", Sim),
    ("cliquemap.ccache.hit_ratio", "ratio", Sim),
    ("cliquemap.client.config_refreshes", "count", Sim),
    ("cliquemap.client.overload_drops", "count", Sim),
    ("cliquemap.backend.data_growths", "count", Sim),
    ("cliquemap.backend.index_resizes", "count", Sim),
    ("cliquemap.store.fetch_ns", "ns", Host),
    ("cliquemap.store.fetch_share", "share", Host),
    ("cliquemap.store.set_ns", "ns", Host),
    ("cliquemap.store.set_share", "share", Host),
    ("cliquemap.layout.validate_ns", "ns", Host),
    ("cliquemap.layout.validate_share", "share", Host),
    ("durable.wal_appends", "count", Sim),
    ("durable.fsyncs", "count", Sim),
    ("durable.group_size", "records", Sim),
    ("durable.wal_mb_end", "MiB", Sim),
    ("durable.snapshot_entries", "count", Sim),
    ("durable.truncated_mb", "MiB", Sim),
    ("durable.flush_prefix_ns", "ns", Host),
    ("durable.flush_prefix_share", "share", Host),
    ("durable.append_ns", "ns", Host),
    ("durable.append_share", "share", Host),
    ("obs.get.client_cpu_share_p50", "share", Traced),
    ("obs.get.client_cpu_share_p99", "share", Traced),
    ("obs.get.ser_share_p50", "share", Traced),
    ("obs.get.ser_share_p99", "share", Traced),
    ("obs.get.fabric_share_p50", "share", Traced),
    ("obs.get.fabric_share_p99", "share", Traced),
    ("obs.get.queue_share_p50", "share", Traced),
    ("obs.get.queue_share_p99", "share", Traced),
    ("obs.get.engine_share_p50", "share", Traced),
    ("obs.get.engine_share_p99", "share", Traced),
    ("obs.get.server_cpu_share_p50", "share", Traced),
    ("obs.get.server_cpu_share_p99", "share", Traced),
    ("obs.get.retry_share_p50", "share", Traced),
    ("obs.get.retry_share_p99", "share", Traced),
    ("obs.set.server_cpu_share_p99", "share", Traced),
    ("obs.set.wal_share_p99", "share", Traced),
    ("obs.recorder_overwritten", "count", Traced),
];
