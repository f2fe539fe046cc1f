//! The four benchmark workloads and the wrapper the benchmark puts around
//! every client's [`Workload`].
//!
//! Each cell mirrors one of `bench::simcore`'s macro cells (or, for
//! `ads_write_wal`, its batched topology with durability on), rebuilt here
//! so the simulation seed comes from `--seed` and every client's generator
//! is wrapped. All four are open loop: clients issue on timers whatever
//! the cell's state.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::clock::cpu_seconds;
use bench::experiments::base_spec;
use bench::populate_cell;
use cliquemap::cell::{Cell, CellSpec, DurabilitySpec};
use cliquemap::client::LookupStrategy;
use cliquemap::client_cache::ClientCacheCfg;
use cliquemap::config::ReplicationMode;
use cliquemap::workload::{ClientOp, Workload};
use rma::PonyCfg;
use simnet::{SimDuration, SimRng, SimTime};
use workloads::{ProductionGets, ProductionMultiSets, ProductionSets, RampWorkload, SizeDist};

/// Every workload's key population (`k0..k3999`, as in `bench::simcore`).
pub const KEYS: u64 = 4_000;

/// One benchmark workload: how to build it and how long to drive it.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Seed used when `--seed` is not given.
    pub default_seed: u64,
    /// Simulated span one run drives.
    pub span: SimDuration,
    /// Runs (each its own seed) whose samples one command pools for the
    /// simulated end-to-end metrics.
    pub seeds_per_sample: u64,
}

/// All workloads, in the order the docs list them.
pub const ALL: [Spec; 4] = [
    Spec {
        name: "ads_read",
        default_seed: 31,
        span: SimDuration::from_millis(1_200),
        seeds_per_sample: 6,
    },
    Spec {
        name: "ads_write_wal",
        default_seed: 61,
        span: SimDuration::from_millis(800),
        seeds_per_sample: 6,
    },
    Spec {
        name: "pony_ramp",
        default_seed: 43,
        span: SimDuration::from_millis(500),
        seeds_per_sample: 2,
    },
    Spec {
        name: "cell950",
        default_seed: 53,
        span: SimDuration::from_millis(120),
        seeds_per_sample: 2,
    },
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<Spec> {
    ALL.iter().copied().find(|s| s.name == name)
}

/// Op class a client's generator issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `Get` / `MultiGet`.
    Get,
    /// `Set` / `MultiSet` (the only mutations these workloads issue).
    Set,
}

/// Counters one [`Tapped`] workload shares with the harness. Atomics
/// because [`Workload`] must be `Send`; the simulator is single-threaded,
/// so every access is uncontended.
#[derive(Debug, Default)]
pub struct Tap {
    /// Ops due inside the span, per class.
    pub ops: [AtomicU64; 2],
    /// Keys those ops carry, per class (a MultiGet of n keys counts n).
    pub keys: [AtomicU64; 2],
    /// Calls to the wrapped `next`.
    pub calls: AtomicU64,
    /// Host nanoseconds spent inside the wrapped `next` (timed runs only).
    pub next_ns: AtomicU64,
}

impl Tap {
    /// Ops of `class` due inside the span.
    pub fn ops(&self, class: Class) -> u64 {
        self.ops[class as usize].load(Relaxed)
    }

    /// Keys of `class` due inside the span.
    pub fn keys(&self, class: Class) -> u64 {
        self.keys[class as usize].load(Relaxed)
    }

    /// The one class this client issued, or `None` for an idle client.
    /// `Err` if it issued both (the harness classifies completions by
    /// client, so that would be a benchmark bug).
    pub fn class(&self) -> Result<Option<Class>, ()> {
        match (self.ops(Class::Get) > 0, self.ops(Class::Set) > 0) {
            (true, true) => Err(()),
            (true, false) => Ok(Some(Class::Get)),
            (false, true) => Ok(Some(Class::Set)),
            (false, false) => Ok(None),
        }
    }
}

/// Host-time samples of wrapped `next` calls, kept as trace spans (start
/// and end in ns since the span log's origin).
pub type NextSpans = Arc<Mutex<Vec<(u64, u64)>>>;

/// Timing options for a traced run.
#[derive(Clone)]
pub struct Timing {
    /// Origin the span timestamps count from.
    pub origin: Instant,
    /// Sampled `next` spans (every [`NEXT_SPAN_EVERY`]th call per client).
    pub spans: NextSpans,
}

/// Every `NEXT_SPAN_EVERY`th wrapped `next` call of a client is kept as a
/// span in the traced run; all calls are timed into [`Tap::next_ns`].
pub const NEXT_SPAN_EVERY: u64 = 1024;

/// The wrapper around one client's generator: counts what it issues and,
/// in the traced run, times each call.
pub struct Tapped {
    inner: Box<dyn Workload>,
    tap: Arc<Tap>,
    span_end: SimTime,
    timing: Option<Timing>,
}

impl Workload for Tapped {
    fn next(&mut self, now: SimTime, rng: &mut SimRng) -> Option<(SimDuration, ClientOp)> {
        let t0 = self.timing.as_ref().map(|_| Instant::now());
        let out = self.inner.next(now, rng);
        let calls = self.tap.calls.fetch_add(1, Relaxed);
        if let (Some(t0), Some(timing)) = (t0, &self.timing) {
            let t1 = Instant::now();
            self.tap
                .next_ns
                .fetch_add(t1.duration_since(t0).as_nanos() as u64, Relaxed);
            if calls.is_multiple_of(NEXT_SPAN_EVERY) {
                let at = |t: Instant| t.duration_since(timing.origin).as_nanos() as u64;
                timing
                    .spans
                    .lock()
                    .expect("no panics while holding the span log")
                    .push((at(t0), at(t1)));
            }
        }
        if let Some((gap, op)) = &out {
            if now.nanos() + gap.nanos() <= self.span_end.nanos() {
                let (class, keys) = match op {
                    ClientOp::Get { .. } => (Class::Get, 1),
                    ClientOp::MultiGet { keys } => (Class::Get, keys.len()),
                    ClientOp::MultiSet { entries } => (Class::Set, entries.len()),
                    ClientOp::Set { .. } | ClientOp::Erase { .. } | ClientOp::Cas { .. } => {
                        (Class::Set, 1)
                    }
                };
                self.tap.ops[class as usize].fetch_add(1, Relaxed);
                self.tap.keys[class as usize].fetch_add(keys as u64, Relaxed);
            }
        }
        out
    }
}

/// A built cell plus the taps of its clients (parallel to `cell.clients`).
pub struct Built {
    /// The cell.
    pub cell: Cell,
    /// One tap per client.
    pub taps: Vec<Arc<Tap>>,
    /// Host (thread CPU) seconds in `Cell::build`.
    pub build_s: f64,
    /// Host (thread CPU) seconds populating the corpus.
    pub populate_s: f64,
    /// Wall-clock start of build, end of build, end of populate (spans).
    pub wall: [Instant; 3],
}

/// Build and populate `spec`'s cell with simulation seed `seed`.
pub fn build(spec: Spec, seed: u64, timing: Option<Timing>) -> Built {
    let (mut cell_spec, gens, sizes) = match spec.name {
        "ads_read" => ads_read(),
        "ads_write_wal" => ads_write_wal(),
        "pony_ramp" => pony_ramp(spec.span),
        "cell950" => cell950(),
        other => unreachable!("unknown workload {other}"),
    };
    cell_spec.seed = seed;
    let span_end = SimTime::ZERO + spec.span;
    let taps: Vec<Arc<Tap>> = gens.iter().map(|_| Arc::new(Tap::default())).collect();
    let wrapped: Vec<Box<dyn Workload>> = gens
        .into_iter()
        .zip(&taps)
        .map(|(inner, tap)| {
            Box::new(Tapped {
                inner,
                tap: tap.clone(),
                span_end,
                timing: timing.clone(),
            }) as Box<dyn Workload>
        })
        .collect();
    let t0 = Instant::now();
    let (build_s, mut cell) = cpu_seconds(|| Cell::build(cell_spec, wrapped));
    let t1 = Instant::now();
    let (populate_s, ()) = cpu_seconds(|| populate_cell(&mut cell, "k", KEYS, &sizes));
    Built {
        cell,
        taps,
        build_s,
        populate_s,
        wall: [t0, t1, Instant::now()],
    }
}

type Parts = (CellSpec, Vec<Box<dyn Workload>>, SizeDist);

/// Ads value sizes: log-normal around 700 B.
fn ads_sizes() -> SizeDist {
    SizeDist {
        mu: (700f64).ln(),
        sigma: 1.0,
        min: 64,
        max: 64 << 10,
    }
}

/// One simulated Ads "day" (the diurnal period of the GET stream).
const ADS_DAY: SimDuration = SimDuration::from_millis(150);

/// `bench::simcore::ads_cell`: six Ads MultiGet clients and two steady SET
/// clients with 6x backfill bursts, R=3.2 SCAR over 8 backends.
fn ads_read() -> Parts {
    let mut spec = base_spec(LookupStrategy::Scar, ReplicationMode::R32, 8);
    spec.clients_per_host = 2;
    spec.client.max_in_flight = 2048;
    let mut gens: Vec<Box<dyn Workload>> = Vec::new();
    for _ in 0..6 {
        gens.push(Box::new(ProductionGets::ads("k", KEYS, 2_500.0, ADS_DAY)));
    }
    for _ in 0..2 {
        let mut w = ProductionSets::steady("k", KEYS, ads_sizes(), 1_500.0);
        w.backfill_multiplier = 6.0;
        w.backfill_period = SimDuration::from_millis(150);
        w.backfill_len = SimDuration::from_millis(15);
        gens.push(Box::new(w));
    }
    (spec, gens, ads_sizes())
}

/// MultiSet batches per second per writer in `ads_write_wal`: enough that
/// keys written are at least a third of keys touched.
pub const WAL_MULTISET_RATE: f64 = 4_500.0;

/// `bench::simcore::batched_cell` topology with doorbell batching and
/// durability on (4 ms fsync), and the MultiSet rate raised to
/// [`WAL_MULTISET_RATE`].
fn ads_write_wal() -> Parts {
    let mut spec = base_spec(LookupStrategy::Scar, ReplicationMode::R32, 8);
    spec.clients_per_host = 2;
    spec.client.max_in_flight = 2048;
    spec.doorbell_batching = true;
    spec.durability = Some(DurabilitySpec::default());
    let mut gens: Vec<Box<dyn Workload>> = Vec::new();
    for _ in 0..6 {
        gens.push(Box::new(ProductionGets::ads("k", KEYS, 2_500.0, ADS_DAY)));
    }
    for _ in 0..2 {
        gens.push(Box::new(ProductionMultiSets::ads(
            "k",
            KEYS,
            ads_sizes(),
            WAL_MULTISET_RATE,
            ADS_DAY,
        )));
    }
    (spec, gens, ads_sizes())
}

/// The Pony engine model of `bench::simcore::pony_ramp_cell`.
fn ramp_pony() -> PonyCfg {
    PonyCfg {
        min_engines: 1,
        max_engines: 4,
        op_cost: SimDuration::from_micros(3),
        per_kb: SimDuration::from_nanos(500),
        window: SimDuration::from_millis(1),
        ..PonyCfg::default()
    }
}

/// `bench::simcore::pony_ramp_cell`: 20 clients each ramping 2K -> 100K
/// GET/s over the whole span, R=1 SCAR, 4 KB values.
fn pony_ramp(span: SimDuration) -> Parts {
    let mut spec = base_spec(LookupStrategy::Scar, ReplicationMode::R1, 10);
    spec.colocate_fraction = 0.5;
    spec.clients_per_host = 1;
    spec.client.max_in_flight = 4096;
    spec.backend.pony = ramp_pony();
    spec.client.pony = ramp_pony();
    let gens = (0..20)
        .map(|_| {
            Box::new(RampWorkload {
                prefix: "k".into(),
                keys: KEYS,
                rate0: 2_000.0,
                rate1: 100_000.0,
                duration: span,
                stop_at_end: false,
            }) as Box<dyn Workload>
        })
        .collect();
    (spec, gens, SizeDist::fixed(4096))
}

/// `bench::simcore::cell950`: 950 hosts, 10K clients ramping 20 -> 200
/// GET/s, lease cache and config-read coalescing on.
fn cell950() -> Parts {
    let mut spec = base_spec(LookupStrategy::Scar, ReplicationMode::R32, 115);
    spec.clients_per_host = 12;
    spec.client.max_in_flight = 64;
    spec.config_read_coalescing = true;
    spec.client.cache = Some(ClientCacheCfg {
        capacity: 128,
        lease_ttl: SimDuration::from_millis(5),
        max_value_len: 64 << 10,
    });
    let gens = (0..10_000)
        .map(|_| {
            Box::new(RampWorkload {
                prefix: "k".into(),
                keys: KEYS,
                rate0: 20.0,
                rate1: 200.0,
                duration: SimDuration::from_millis(450),
                stop_at_end: false,
            }) as Box<dyn Workload>
        })
        .collect();
    (spec, gens, SizeDist::fixed(1024))
}
