//! One run of one workload in this process: build, populate, simulate the
//! span in windows, harvest the completion logs between windows, and turn
//! what the cell exposes into named metrics.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cliquemap::cell::Cell;
use cliquemap::client::{trace_aux, ClientNode};
use cliquemap::workload::OpOutcome;
use obs::{attribute, kind, stage, OpTrace};
use simnet::{HostId, SimDuration};

use crate::clock::cpu_seconds;
use crate::replay;
use crate::spans::SpanLog;
use crate::workloads::{self, Class, Spec, Tap, Timing};

/// `cliquemap::client`'s completion log keeps at most this many entries
/// per client between harvests; a client that reaches it has lost
/// samples, which fails the run.
pub const COMPLETION_LOG_CAP: usize = 100_000;

/// Simulated time between harvests in the untraced run.
const WINDOW: SimDuration = SimDuration::from_millis(20);

/// Simulated time between harvests in the traced run: short enough that
/// no host's flight-recorder ring wraps between drains.
const TRACED_WINDOW: SimDuration = SimDuration::from_millis(5);

/// Named metric values of one run.
pub type Metrics = BTreeMap<String, f64>;

/// What one run reports.
pub struct RunOut {
    /// Every metric this run measured.
    pub metrics: Metrics,
    /// FNV-1a over every client's (outcome, latency) stream.
    pub fingerprint: u64,
    /// Top-level ops due inside the span.
    pub attempted: u64,
    /// Ops that ended in `Error` or were refused at `max_in_flight`.
    pub failed: u64,
    /// Failed output checks, one line each.
    pub check_failures: Vec<String>,
    /// Every completed op's latency (ns), ascending, by [`Class`].
    pub lat: [Vec<u64>; 2],
}

/// FNV-1a state, fed incrementally.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    const NEW: Fnv = Fnv(0xcbf2_9ce4_8422_2325);

    fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Per-op latency attribution, grouped by end-to-end latency into
/// log-spaced buckets 1% wide so the stage mix of the ops around a
/// percentile can be read without keeping every trace.
#[derive(Default)]
struct ShareHist {
    buckets: BTreeMap<u32, (u64, u64, [u64; stage::COUNT])>,
    count: u64,
}

impl ShareHist {
    fn add(&mut self, e2e: u64, stages: &[u64; stage::COUNT]) {
        let key = ((e2e.max(1) as f64).ln() / 0.01f64.ln_1p()) as u32;
        let b = self.buckets.entry(key).or_default();
        b.0 += 1;
        b.1 += e2e;
        for (acc, s) in b.2.iter_mut().zip(stages) {
            *acc += s;
        }
        self.count += 1;
    }

    /// Stage shares of the ops in the bucket holding rank `p` (`tail`
    /// false), or of every op from that bucket up (`tail` true).
    fn shares(&self, p: f64, tail: bool) -> [f64; stage::COUNT] {
        let mut out = [0.0; stage::COUNT];
        if self.count == 0 {
            return out;
        }
        let rank = ((p * self.count as f64).ceil() as u64).max(1);
        let (mut seen, mut e2e, mut sums) = (0u64, 0u64, [0u64; stage::COUNT]);
        for b in self.buckets.values() {
            seen += b.0;
            if seen >= rank {
                e2e += b.1;
                for (acc, s) in sums.iter_mut().zip(&b.2) {
                    *acc += s;
                }
                if !tail {
                    break;
                }
            }
        }
        for (o, s) in out.iter_mut().zip(&sums) {
            *o = *s as f64 / e2e.max(1) as f64;
        }
        out
    }
}

/// Everything harvested from the completion logs and traces.
#[derive(Default)]
struct Harvest {
    lat: [Vec<u64>; 2],
    errors: [u64; 2],
    fnv: Vec<Fnv>,
    shares: [ShareHist; 2],
    engines_max: u32,
    engine_ns: u64,
}

fn vm_kib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0.0)
}

/// Run `spec` once with simulation seed `seed`. A traced run turns on the
/// flight recorder, times every `Workload::next`, replays each layer's
/// public functions afterwards, and writes its spans to `spans_out`.
pub fn run(spec: Spec, seed: u64, traced: bool, spans_out: Option<&str>) -> RunOut {
    // First, on a fresh heap, so nothing the program allocates can move it.
    let calibration_s = crate::clock::calibrate();
    let origin = Instant::now();
    let mut log = SpanLog::new(origin);
    let next_spans = Arc::new(Mutex::new(Vec::new()));
    let timing = traced.then(|| Timing {
        origin,
        spans: next_spans.clone(),
    });
    let root = log.open(format!("run {} seed={seed}", spec.name), None);
    let built = workloads::build(spec, seed, timing);
    let [t0, t1, t2] = built.wall;
    log.record("build", t0, t1, Some(root));
    log.record("populate", t1, t2, Some(root));
    let rss_after_setup_mb = vm_kib("VmRSS:") / 1024.0;
    let (mut cell, taps) = (built.cell, built.taps);
    if traced {
        cell.sim.enable_tracing();
    }

    let window = if traced { TRACED_WINDOW } else { WINDOW };
    let windows = spec.span.nanos() / window.nanos();
    assert_eq!(
        windows * window.nanos(),
        spec.span.nanos(),
        "span is whole windows"
    );
    let mut h = Harvest {
        fnv: vec![Fnv::NEW; taps.len()],
        ..Harvest::default()
    };
    let mut failures = Vec::new();
    let mut run_s = 0.0;
    for w in 0..windows {
        let t = Instant::now();
        let (cpu_s, ()) = cpu_seconds(|| cell.run_for(window));
        let t_ran = Instant::now();
        run_s += cpu_s;
        log.record(format!("window {w}"), t, t_ran, Some(root));
        harvest(&mut cell, &taps, &mut h, &mut failures);
        if traced {
            for host in cell.pony_pools.keys() {
                let engines = cell.engines_on(*host);
                h.engines_max = h.engines_max.max(engines);
                h.engine_ns += engines as u64 * window.nanos();
            }
            let traces = cell.sim.drain_traces();
            attribute_traces(&traces, &mut h);
        }
        log.record(format!("harvest {w}"), t_ran, Instant::now(), Some(root));
    }
    let peak_rss_mb = vm_kib("VmHWM:") / 1024.0;

    let mut m = Metrics::new();
    m.insert("setup_s".into(), built.build_s + built.populate_s);
    m.insert("bench.build_s".into(), built.build_s);
    m.insert("bench.populate_s".into(), built.populate_s);
    m.insert("run_s".into(), run_s);
    m.insert("bench.calibration_s".into(), calibration_s);
    m.insert("peak_rss_mb".into(), peak_rss_mb);
    m.insert("simnet.rss_after_setup_mb".into(), rss_after_setup_mb);
    let (attempted, failed) = end_to_end(&cell, &taps, &mut h, &mut m, &mut failures);
    layer_counters(&cell, &taps, &h, traced, &mut m);
    check_workload(spec, &taps, &mut failures);

    let mut fp = Fnv::NEW;
    for f in &h.fnv {
        fp.feed(&f.0.to_le_bytes());
    }
    if traced {
        replay::all(&mut cell, &mut m, &mut log, root);
        log.close(root);
        let samples = next_spans
            .lock()
            .expect("no panics while holding the span log")
            .clone();
        log.adopt("workload.next", &samples, "window ");
        if let Some(path) = spans_out {
            write_spans(path, &log);
        }
    }
    RunOut {
        metrics: m,
        fingerprint: fp.0,
        attempted,
        failed,
        check_failures: failures,
        lat: h.lat,
    }
}

fn write_spans(path: &str, log: &SpanLog) {
    let p = std::path::Path::new(path);
    if let Some(dir) = p.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(p, log.chrome_json()) {
        eprintln!("perfbench: could not write spans to {path}: {e}");
    }
}

/// Move every client's completion log into `h` (latency samples by the
/// client's op class, error counts and the stream fingerprint).
fn harvest(cell: &mut Cell, taps: &[Arc<Tap>], h: &mut Harvest, failures: &mut Vec<String>) {
    for (i, &id) in cell.clients.iter().enumerate() {
        let log = cell
            .sim
            .with_node::<ClientNode, _>(id, |c| std::mem::take(&mut c.completions))
            .expect("every client is a ClientNode");
        if log.is_empty() {
            continue;
        }
        if log.len() >= COMPLETION_LOG_CAP {
            failures.push(format!(
                "client {i} reached the completion log cap ({COMPLETION_LOG_CAP}) between harvests"
            ));
        }
        let class = match taps[i].class() {
            Ok(Some(c)) => c,
            Ok(None) => {
                failures.push(format!("client {i} completed ops it never issued"));
                continue;
            }
            Err(()) => {
                failures.push(format!("client {i} issued both GETs and SETs"));
                continue;
            }
        };
        let c = class as usize;
        for &(outcome, lat) in &log {
            h.fnv[i].feed(&[trace_aux::outcome_code(outcome) as u8]);
            h.fnv[i].feed(&lat.to_le_bytes());
            if outcome == OpOutcome::Error {
                h.errors[c] += 1;
            }
            h.lat[c].push(lat);
        }
    }
}

/// Attribute drained traces into the per-class stage histograms.
fn attribute_traces(traces: &[OpTrace], h: &mut Harvest) {
    for t in traces {
        let class = t
            .events
            .iter()
            .find(|e| e.kind == kind::OPEN)
            .map(|e| e.aux);
        let c = match class {
            Some(trace_aux::GET) => Class::Get,
            Some(trace_aux::SET) => Class::Set,
            _ => continue,
        };
        let a = attribute(t);
        h.shares[c as usize].add(a.e2e, &a.stages);
    }
}

fn counter(cell: &Cell, name: &str) -> u64 {
    cell.sim.metrics().counter(name)
}

fn total_keys(taps: &[Arc<Tap>]) -> u64 {
    taps.iter()
        .map(|t| t.keys(Class::Get) + t.keys(Class::Set))
        .sum()
}

/// The end-to-end metrics and the completion-log checks. Returns
/// (attempted, failed).
fn end_to_end(
    cell: &Cell,
    taps: &[Arc<Tap>],
    h: &mut Harvest,
    m: &mut Metrics,
    failures: &mut Vec<String>,
) -> (u64, u64) {
    for lat in &mut h.lat {
        lat.sort_unstable();
    }
    let [gets, sets] = &h.lat;
    m.insert("bench.get_samples".into(), gets.len() as f64);
    m.insert("bench.set_samples".into(), sets.len() as f64);

    let keys = total_keys(taps).max(1) as f64;
    let (mut cpu_ns, mut tx) = (0u64, 0u64);
    for host in 0..cell.sim.host_count() {
        let s = cell.sim.host(HostId(host as u32));
        cpu_ns += s.cpu_busy_ns;
        tx += s.tx_bytes;
    }
    m.insert("cpu_us_per_op".into(), cpu_ns as f64 / 1e3 / keys);
    m.insert("wire_bytes_per_op".into(), tx as f64 / keys);

    let ops: u64 = taps
        .iter()
        .map(|t| t.ops(Class::Get) + t.ops(Class::Set))
        .sum();
    // A refused batch member also fails its container, so this counts
    // such a container twice: it errs toward reporting failure.
    let refused = counter(cell, "cm.client.overload_drops");
    let failed = h.errors[0] + h.errors[1] + refused;

    for (class, name, done, batches) in [
        (Class::Get, "GET", "cm.get.completed", "cm.get.batches"),
        (Class::Set, "SET", "cm.set.completed", "cm.set.batches"),
    ] {
        let issued: u64 = taps.iter().map(|t| t.ops(class)).sum();
        let logged = h.lat[class as usize].len() as u64;
        let counted = counter(cell, done) + counter(cell, batches);
        if issued > 0 && logged == 0 {
            failures.push(format!("{name} ops were issued but none completed"));
        }
        if logged != counted {
            failures.push(format!(
                "{name} completion logs hold {logged} ops but the cell counted {counted}"
            ));
        }
        if logged > issued {
            failures.push(format!(
                "{logged} {name} ops completed but only {issued} were due"
            ));
        }
    }
    (ops, failed)
}

/// Per-layer counters read through the cell's public accessors.
fn layer_counters(cell: &Cell, taps: &[Arc<Tap>], h: &Harvest, traced: bool, m: &mut Metrics) {
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };
    let c = |name: &str| counter(cell, name) as f64;
    let sum = |f: &dyn Fn(&Tap) -> u64| taps.iter().map(|t| f(t)).sum::<u64>() as f64;
    let ops = sum(&|t| t.ops(Class::Get) + t.ops(Class::Set));
    let keys = total_keys(taps) as f64;
    let key_gets = sum(&|t| t.keys(Class::Get));
    put("workloads.ops_issued", ops);
    put("workloads.keys_issued", keys);
    put("workloads.get_keys", key_gets);
    put("workloads.set_keys", sum(&|t| t.keys(Class::Set)));
    let calls = sum(&|t| t.calls.load(std::sync::atomic::Ordering::Relaxed));
    put("workloads.next_calls", calls);
    if traced {
        let ns = sum(&|t| t.next_ns.load(std::sync::atomic::Ordering::Relaxed));
        put("workloads.next_ns", ns / calls.max(1.0));
    }

    // simnet
    let events = cell.sim.events_processed() as f64;
    put("simnet.events", events);
    put("simnet.events_per_op", events / keys.max(1.0));
    put("simnet.queue_hwm", cell.sim.queue_high_water() as f64);
    put(
        "simnet.pending_pool_len",
        cell.sim.pending_pool_len() as f64,
    );
    let config_host = cell.sim.host_of(cell.config_store);
    let (mut cpu, mut fabric) = ([0u64; 3], 0u64);
    let (mut dev_busy, mut dev_fsyncs, mut dev_bytes) = (0u64, 0u64, 0u64);
    for i in 0..cell.sim.host_count() {
        let host = HostId(i as u32);
        let s = cell.sim.host(host);
        let role = if host == config_host {
            2
        } else if cell.backend_hosts.contains(&host) {
            1
        } else {
            0
        };
        cpu[role] += s.cpu_busy_ns;
        fabric += s.tx_bytes;
        let d = cell.sim.device_stats(host);
        dev_busy += d.busy_ns;
        dev_fsyncs += d.fsyncs;
        dev_bytes += d.write_bytes;
    }
    put("simnet.cpu_busy_ms.client", cpu[0] as f64 / 1e6);
    put("simnet.cpu_busy_ms.backend", cpu[1] as f64 / 1e6);
    put("simnet.cpu_busy_ms.config", cpu[2] as f64 / 1e6);
    put("simnet.fabric_bytes", fabric as f64);
    put("simnet.dropped_dead", c("simnet.dropped_dead"));
    put("simnet.dropped_stale", c("simnet.dropped_stale"));
    put("simnet.device_busy_ms", dev_busy as f64 / 1e6);
    put("simnet.device_fsyncs", dev_fsyncs as f64);
    put(
        "simnet.device_write_mb",
        dev_bytes as f64 / (1 << 20) as f64,
    );

    // rma
    put("rma.client_frames", c("cm.client.rma_frames"));
    put("rma.backend_ops", c("cm.backend.rma_ops"));
    put("rma.timeouts", c("cm.client.rma_timeouts"));
    // The RTT histogram is the only per-frame record the cell keeps; its
    // log buckets make these two diagnostic (steps of about 3%).
    if let Some(rtt) = cell.sim.metrics().hist_ref("cm.rma.rtt_ns") {
        put("rma.rtt_p50_us", rtt.quantile(0.50) as f64 / 1e3);
        put("rma.rtt_p99_us", rtt.quantile(0.99) as f64 / 1e3);
    } else {
        put("rma.rtt_p50_us", 0.0);
        put("rma.rtt_p99_us", 0.0);
    }
    if traced {
        put("rma.engines_max", h.engines_max as f64);
        put("rma.engine_ms", h.engine_ns as f64 / 1e6);
    }

    // rpc
    put("rpc.bytes", c("cm.rpc_bytes"));
    put(
        "rpc.timeouts",
        c("cm.client.rpc_timeouts") + c("cm.backend.rpc_timeouts"),
    );
    put("rpc.retries", c("cm.retries"));

    // cliquemap
    put("cliquemap.client.cpu_ms", c("cm.client.cpu_ns") / 1e6);
    let wasted =
        c("cm.get.torn_reads") + c("cm.get.hash_collisions") + c("cm.get.overflow_fallbacks");
    put("cliquemap.get.retry_ratio", wasted / key_gets.max(1.0));
    put("cliquemap.set.superseded", c("cm.set.superseded"));
    let (hits, misses, stale) = (
        c("cm.ccache.hits"),
        c("cm.ccache.misses"),
        c("cm.ccache.stale"),
    );
    put(
        "cliquemap.ccache.hit_ratio",
        hits / (hits + misses + stale).max(1.0),
    );
    put(
        "cliquemap.client.config_refreshes",
        c("cm.client.config_refreshes"),
    );
    put(
        "cliquemap.client.overload_drops",
        c("cm.client.overload_drops"),
    );
    put(
        "cliquemap.backend.data_growths",
        c("cm.backend.data_growths"),
    );
    put(
        "cliquemap.backend.index_resizes",
        c("cm.backend.index_resizes"),
    );

    // durable
    put("durable.wal_appends", c("cm.backend.wal_appends"));
    put("durable.fsyncs", c("cm.backend.wal_fsyncs"));
    put(
        "durable.group_size",
        c("cm.backend.wal_committed") / c("cm.backend.wal_fsyncs").max(1.0),
    );
    let (mut wal, mut snap, mut trunc) = (0u64, 0u64, 0u64);
    for media in &cell.media {
        let media = media.borrow();
        wal += media.wal_bytes();
        snap += media.snapshot_entries();
        trunc += media.truncated_bytes();
    }
    let mib = (1u64 << 20) as f64;
    put("durable.wal_mb_end", wal as f64 / mib);
    put("durable.snapshot_entries", snap as f64);
    put("durable.truncated_mb", trunc as f64 / mib);

    // obs
    if traced {
        const GET_STAGES: [(u8, &str); 7] = [
            (stage::CLIENT_CPU, "client_cpu"),
            (stage::SER, "ser"),
            (stage::FABRIC, "fabric"),
            (stage::QUEUE, "queue"),
            (stage::ENGINE, "engine"),
            (stage::SERVER_CPU, "server_cpu"),
            (stage::RETRY, "retry"),
        ];
        let [get, set] = &h.shares;
        let (p50, p99) = (get.shares(0.50, false), get.shares(0.99, true));
        for (s, name) in GET_STAGES {
            put(&format!("obs.get.{name}_share_p50"), p50[s as usize]);
            put(&format!("obs.get.{name}_share_p99"), p99[s as usize]);
        }
        let set99 = set.shares(0.99, true);
        put(
            "obs.set.server_cpu_share_p99",
            set99[stage::SERVER_CPU as usize],
        );
        put("obs.set.wal_share_p99", set99[stage::WAL as usize]);
        put("obs.get.traced_ops", get.count as f64);
        put("obs.set.traced_ops", set.count as f64);
        let overwritten = cell.sim.recorder().map_or(0, |r| r.overwritten());
        put("obs.recorder_overwritten", overwritten as f64);
    }
}

/// Checks on what a workload must look like to measure what its docs say.
fn check_workload(spec: Spec, taps: &[Arc<Tap>], failures: &mut Vec<String>) {
    if spec.name == "ads_write_wal" {
        let set: u64 = taps.iter().map(|t| t.keys(Class::Set)).sum();
        let all = total_keys(taps);
        if 3 * set < all {
            failures.push(format!(
                "keys written ({set}) are under a third of keys touched ({all})"
            ));
        }
    }
}
