//! The simulator-core macro workloads shared by the `simperf` perf
//! harness and the determinism regression tests.
//!
//! Both cells are fixed-seed, fixed-topology scenarios chosen to stress
//! the simulator's hot paths end to end: the Ads cell drives the batched
//! GET + bursty SET mix through SCAR at R=3.2, and the Pony ramp pushes
//! 20 clients through a 50x offered-load ramp so host engine pools scale
//! out under pressure. Same seeds ⇒ same events ⇒ same metrics, so any
//! divergence between runs (or across refactors that claim to be
//! behaviour-preserving, like the pooled wire buffers) is a bug.

use cliquemap::cell::{Cell, CellSpec};
use cliquemap::client::LookupStrategy;
use cliquemap::client_cache::ClientCacheCfg;
use cliquemap::config::ReplicationMode;
use cliquemap::workload::Workload;
use rma::PonyCfg;
use simnet::SimDuration;
use workloads::{ProductionGets, ProductionMultiSets, ProductionSets, RampWorkload, SizeDist};

use crate::experiments::base_spec;
use crate::populate_cell;

/// Simulated span `simperf` drives the Ads cell for. Long enough that a
/// rep takes several wall seconds — short reps put run-to-run scheduler
/// noise above the regression gate's tolerance.
pub const ADS_SPAN: SimDuration = SimDuration::from_millis(4060);

/// Simulated span `simperf` drives the Pony ramp cell for.
pub const PONY_SPAN: SimDuration = SimDuration::from_millis(2010);

/// Simulated span `simperf` drives the doorbell-batched Ads cell for.
pub const BATCHED_SPAN: SimDuration = SimDuration::from_millis(2030);

/// Simulated span `simperf` drives the 950-host macro cell for. Most of
/// this window is the cold-start herd: 10K clients fetching configs and
/// connecting while the workload ramp is still near its floor, which is
/// exactly the regime that used to livelock the config store (see
/// `ConfigStoreNode` read coalescing). ~660K events, about a second per
/// rep on a small CI box; the per-event cost is much higher than the
/// small cells (a lone cell950 process holds ~116 MiB after setup and
/// peaks near 240 MiB over this span, far past any CPU cache), which is
/// the point of gating on it.
pub const CELL950_SPAN: SimDuration = SimDuration::from_millis(50);

/// F8-style Ads cell: batched production GETs + steady SETs with backfill
/// bursts against an R=3.2 SCAR cell, run for a fixed simulated span.
pub fn ads_cell() -> Cell {
    let keys = 4_000u64;
    let day = SimDuration::from_millis(150);
    let sizes = SizeDist {
        mu: (700f64).ln(),
        sigma: 1.0,
        min: 64,
        max: 64 << 10,
    };
    let mut spec: CellSpec = base_spec(LookupStrategy::Scar, ReplicationMode::R32, 8);
    spec.seed = 31;
    spec.clients_per_host = 2;
    spec.client.max_in_flight = 2048;
    let mut wls: Vec<Box<dyn Workload>> = Vec::new();
    for _ in 0..6 {
        wls.push(Box::new(ProductionGets::ads("k", keys, 2_500.0, day)));
    }
    for _ in 0..2 {
        let mut w = ProductionSets::steady("k", keys, sizes.clone(), 1_500.0);
        w.backfill_multiplier = 6.0;
        w.backfill_period = SimDuration::from_millis(150);
        w.backfill_len = SimDuration::from_millis(15);
        wls.push(Box::new(w));
    }
    let mut cell = Cell::build(spec, wls);
    populate_cell(&mut cell, "k", keys, &sizes);
    cell
}

/// Doorbell-batched Ads cell: the same batched production GET stream as
/// [`ads_cell`] plus MultiSet update batches, with the coalesced wire path
/// on. This is the cell that keeps the batching hot paths honest at macro
/// scale: container expansion, the per-destination coalescing accumulator,
/// batch frame encode/decode, and vectored backend serves all run millions
/// of times here, so the simperf alloc gate holds them to the same
/// near-zero allocations per event as the unbatched cells.
pub fn batched_cell() -> Cell {
    let keys = 4_000u64;
    let day = SimDuration::from_millis(150);
    let sizes = SizeDist {
        mu: (700f64).ln(),
        sigma: 1.0,
        min: 64,
        max: 64 << 10,
    };
    let mut spec: CellSpec = base_spec(LookupStrategy::Scar, ReplicationMode::R32, 8);
    spec.seed = 61;
    spec.clients_per_host = 2;
    spec.client.max_in_flight = 2048;
    spec.doorbell_batching = true;
    let mut wls: Vec<Box<dyn Workload>> = Vec::new();
    for _ in 0..6 {
        wls.push(Box::new(ProductionGets::ads("k", keys, 2_500.0, day)));
    }
    for _ in 0..2 {
        wls.push(Box::new(ProductionMultiSets::ads(
            "k",
            keys,
            sizes.clone(),
            400.0,
            day,
        )));
    }
    let mut cell = Cell::build(spec, wls);
    populate_cell(&mut cell, "k", keys, &sizes);
    cell
}

/// F15-style Pony ramp: 20 clients ramp offered load 50x against an R=1
/// SCAR cell, pushing host engine pools through scale-out.
pub fn pony_ramp_cell() -> Cell {
    let keys = 4_000u64;
    let mut spec: CellSpec = base_spec(LookupStrategy::Scar, ReplicationMode::R1, 10);
    spec.seed = 43;
    spec.colocate_fraction = 0.5;
    spec.clients_per_host = 1;
    spec.client.max_in_flight = 4096;
    let pony = PonyCfg {
        min_engines: 1,
        max_engines: 4,
        op_cost: SimDuration::from_micros(3),
        per_kb: SimDuration::from_nanos(500),
        window: SimDuration::from_millis(1),
        ..PonyCfg::default()
    };
    spec.backend.pony = pony.clone();
    spec.client.pony = pony;
    let wls: Vec<Box<dyn Workload>> = (0..20)
        .map(|_| {
            Box::new(RampWorkload {
                prefix: "k".into(),
                keys,
                rate0: 2_000.0,
                rate1: 100_000.0,
                duration: SimDuration::from_secs(2),
                stop_at_end: false,
            }) as Box<dyn Workload>
        })
        .collect();
    let mut cell = Cell::build(spec, wls);
    populate_cell(&mut cell, "k", keys, &SizeDist::fixed(4096));
    cell
}

/// Paper-scale macro cell: 950 hosts (1 config store + 115 backends + 834
/// client hosts), 10,000 client tasks ramping offered load 10x. This is
/// the topology class the paper validated on (950-host testbeds) and the
/// cell that makes event-queue and host-state scaling visible: thousands
/// of concurrent same-window events, a node table an order of magnitude
/// past the other cells, and enough in-flight ops to exercise the pending
/// pool. Per-client rates are low — aggregate load is what matters here.
/// A modest client-side lease cache is on so the perf + allocation gates
/// exercise the local-hit path at scale (hits must stay allocation-free).
pub fn cell950() -> Cell {
    let keys = 4_000u64;
    let mut spec: CellSpec = base_spec(LookupStrategy::Scar, ReplicationMode::R32, 115);
    spec.seed = 53;
    spec.clients_per_host = 12;
    spec.client.max_in_flight = 64;
    // 10K clients cold-starting against one config store: without read
    // coalescing the attempt-timeout retransmit herd outruns the store's
    // serve rate and exhausts its deferred-response namespace.
    spec.config_read_coalescing = true;
    spec.client.cache = Some(ClientCacheCfg {
        capacity: 128,
        lease_ttl: SimDuration::from_millis(5),
        max_value_len: 64 << 10,
    });
    let wls: Vec<Box<dyn Workload>> = (0..10_000)
        .map(|_| {
            Box::new(RampWorkload {
                prefix: "k".into(),
                keys,
                rate0: 20.0,
                rate1: 200.0,
                duration: SimDuration::from_millis(450),
                stop_at_end: false,
            }) as Box<dyn Workload>
        })
        .collect();
    let mut cell = Cell::build(spec, wls);
    populate_cell(&mut cell, "k", keys, &SizeDist::fixed(1024));
    cell
}
