//! The CliqueMap client library, as a simulation node.
//!
//! The client owns the paper's read path end to end:
//!
//! * **2×R GETs** (§3): bucket fetch → client-side scan → data fetch →
//!   self-validation (checksum, full-key compare, config id);
//! * **SCAR GETs** (§6.3): one Scan-and-Read per replica, single RTT;
//! * **R=3.2 quoruming** (§5.1): index fetch from all three replicas, data
//!   from the *first responder* (preferred backend), hit iff ≥2 replicas
//!   agree on VersionNumber and the data came from a quorum member;
//! * **mutations** (§5.2): SET/ERASE/CAS RPCs to every replica with a
//!   client-nominated `{TrueTime, ClientId, Seq}` version, success on a
//!   write quorum, retried with a *fresh, higher* version;
//! * **layered retries** (§3, §9): checksum failures retry the RMA ops,
//!   failed RMAs re-CONNECT (geometry refresh), config-id mismatches
//!   refresh the cell config from the config store;
//! * **batched access records** (§4.2) so backends can run LRU/ARC without
//!   seeing the reads.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::rc::Rc;
use std::sync::Arc;

use bytes::{Bytes, Pool};

use rma::{PonyCfg, RmaOpTable, RmaStatus, Transport, TransportKind, WindowId};
use rpc::{CallTable, RetryPolicy, RetryState, RpcCostModel, Status};
use simnet::{Ctx, Deferred, Event, MetricId, Metrics, Node, NodeId, SimDuration, SimTime};

use adaptive::{Controller, ControllerCfg};

use crate::client_cache::{ClientCache, ClientCacheCfg, Lookup};
use crate::config::{CellConfig, ReplicationMode};
use crate::hash::{place, DefaultHasher, KeyHash, KeyHasher};
use crate::layout::{self, bucket_size, parse_data_entry, Pointer};
use crate::messages::{self, method, Geometry};
use crate::policy::{HotKeyTracker, HotReplCfg};
use crate::shim::ShimSpec;
use crate::version::{VersionGen, VersionNumber};
use crate::workload::{ClientOp, OpOutcome, Pacing, VersionMemo, Workload};

/// How the client performs lookups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupStrategy {
    /// Two sequential one-sided reads (index, then data).
    TwoR,
    /// Scan-and-Read: one programmable-NIC op per replica.
    Scar,
    /// Two-sided messaging (the MSG comparison point / WAN fallback).
    Msg,
    /// Full-framework RPC lookups (the RPC comparison point of the batch
    /// crossover figure): same wire shape as MSG but served at full RPC
    /// cost, so per-op framework overhead dominates until batching
    /// amortizes it.
    Rpc,
}

/// Controller arm -> client wire strategy.
fn arm_to_lookup(s: adaptive::Strategy) -> LookupStrategy {
    match s {
        adaptive::Strategy::TwoR => LookupStrategy::TwoR,
        adaptive::Strategy::Scar => LookupStrategy::Scar,
        adaptive::Strategy::Msg => LookupStrategy::Msg,
        adaptive::Strategy::Rpc => LookupStrategy::Rpc,
    }
}

/// Client wire strategy -> controller arm.
fn lookup_to_arm(s: LookupStrategy) -> adaptive::Strategy {
    match s {
        LookupStrategy::TwoR => adaptive::Strategy::TwoR,
        LookupStrategy::Scar => adaptive::Strategy::Scar,
        LookupStrategy::Msg => adaptive::Strategy::Msg,
        LookupStrategy::Rpc => adaptive::Strategy::Rpc,
    }
}

/// Which health path a GET strategy's responses travel: one-sided RMA ops
/// are served by the remote NIC, MSG/RPC lookups by the remote CPU.
fn strategy_path(s: LookupStrategy) -> adaptive::Path {
    match s {
        LookupStrategy::TwoR | LookupStrategy::Scar => adaptive::Path::Rma,
        LookupStrategy::Msg | LookupStrategy::Rpc => adaptive::Path::Rpc,
    }
}

/// Client configuration.
#[derive(Clone)]
pub struct ClientCfg {
    /// Identity baked into nominated versions.
    pub client_id: u32,
    /// Lookup strategy.
    pub strategy: LookupStrategy,
    /// Client-side RMA transport (engine model for Pony).
    pub transport: TransportKind,
    /// Pony engine configuration.
    pub pony: PonyCfg,
    /// Full RPC cost model (mutations, control RPCs).
    pub rpc_cost: RpcCostModel,
    /// Lean messaging cost model (MSG lookups).
    pub msg_cost: RpcCostModel,
    /// Retry budget shared by all op types.
    pub retry: RetryPolicy,
    /// Per-attempt sub-op timeout (RMA and RPC).
    pub attempt_timeout: SimDuration,
    /// The cell's config store.
    pub config_store: NodeId,
    /// Key hasher (must match the backends').
    pub hasher: Arc<dyn KeyHasher>,
    /// Fixed client-library CPU per GET attempt.
    pub get_cpu: SimDuration,
    /// Fixed client-library CPU per mutation attempt.
    pub set_cpu: SimDuration,
    /// Per-RMA-op client CPU (issue + completion handling).
    pub rma_op_cpu: SimDuration,
    /// Per-key client CPU for a sub-op inside a coalesced container. A
    /// standalone GET/SET pays `get_cpu`/`set_cpu` — API entry, pacing,
    /// and completion arming included — but a doorbell-batched container
    /// pays that boundary cost once at expansion; each member only
    /// marshals its key/entry into the shared frame.
    pub batched_key_cpu: SimDuration,
    /// Access-record flush period (`None` disables recency reporting).
    pub access_flush: Option<SimDuration>,
    /// Open- or closed-loop issue pacing.
    pub pacing: Pacing,
    /// Maximum concurrently outstanding logical ops (open loop).
    pub max_in_flight: usize,
    /// RPC fallback on overflowed buckets (§4.2).
    pub rpc_fallback_on_overflow: bool,
    /// Fetch data from the first replica whose index response arrives
    /// (§5.1 preferred-backend selection). Disabling it always fetches
    /// from the key's primary replica — the ablation showing why the
    /// paper chose quoruming over primary/backup.
    pub prefer_first_responder: bool,
    /// Client-side lease cache in front of the RMA path (`None` disables
    /// it; see [`crate::client_cache`]).
    pub cache: Option<ClientCacheCfg>,
    /// Load-aware hot-key replication: track the client's own op stream
    /// and route promoted keys across an extended replica set (`None`
    /// disables it; see [`HotReplCfg`]).
    pub hot_repl: Option<HotReplCfg>,
    /// Doorbell batching: coalesce a MultiGet/MultiSet's sub-ops by
    /// destination host and ship each group as one wire frame with one
    /// transport issue admission, one SER/FABRIC traversal, and one
    /// completion admission. Per-sub-op quorum resolution is unchanged;
    /// only the wire path is batched. Retries always go unbatched.
    pub doorbell_batching: bool,
    /// Language-shim cost model (`None` = native C++ client).
    pub shim: Option<ShimSpec>,
    /// Host-level Pony engine pool shared with co-located nodes.
    pub shared_pony: Option<std::rc::Rc<std::cell::RefCell<rma::PonyHost>>>,
    /// Adaptive dataplane controller (`None` = fixed `strategy`, no
    /// demotion — the pre-controller client, byte for byte).
    pub adaptive: Option<ControllerCfg>,
    /// Seed for the controller's explorer; the cell forks it off the sim
    /// RNG only when `adaptive` is set.
    pub adaptive_seed: u64,
}

impl Default for ClientCfg {
    fn default() -> Self {
        ClientCfg {
            client_id: 1,
            strategy: LookupStrategy::TwoR,
            transport: TransportKind::PonyExpress,
            pony: PonyCfg::default(),
            rpc_cost: RpcCostModel::default(),
            msg_cost: RpcCostModel::default().scaled(0.06),
            retry: RetryPolicy::default(),
            attempt_timeout: SimDuration::from_millis(2),
            config_store: NodeId(0),
            hasher: Arc::new(DefaultHasher),
            get_cpu: SimDuration::from_nanos(900),
            set_cpu: SimDuration::from_micros(2),
            rma_op_cpu: SimDuration::from_nanos(350),
            batched_key_cpu: SimDuration::from_nanos(350),
            access_flush: Some(SimDuration::from_millis(50)),
            pacing: Pacing::Open,
            max_in_flight: 256,
            rpc_fallback_on_overflow: false,
            prefer_first_responder: true,
            doorbell_batching: false,
            cache: None,
            hot_repl: None,
            shim: None,
            shared_pony: None,
            adaptive: None,
            adaptive_seed: 0,
        }
    }
}

impl std::fmt::Debug for ClientCfg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientCfg")
            .field("client_id", &self.client_id)
            .field("strategy", &self.strategy)
            .finish()
    }
}

/// An index-fetch result from one replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Vote {
    /// The bucket holds the key at this version.
    Entry(VersionNumber, Pointer),
    /// The bucket does not hold the key.
    Absent,
    /// The replica failed (RMA error, timeout, torn bucket).
    Failed,
}

#[derive(Debug)]
struct GetState {
    key: Bytes,
    hash: KeyHash,
    batch: Option<u64>,
    retry: RetryState,
    attempt: u64,
    replicas: Vec<NodeId>,
    /// Index-fetch results in arrival order (first responder first).
    votes: Vec<(NodeId, Vote)>,
    data_requested: bool,
    data: Option<(NodeId, VersionNumber, Bytes)>,
    /// Preferred-backend speculation failed last attempt; avoid this node.
    avoid: Option<NodeId>,
    /// Bucket overflow observed (RPC-fallback candidate).
    saw_overflow: bool,
    /// Waiting for geometry (re-CONNECT in flight) before the next attempt.
    waiting_geometry: bool,
    /// Outstanding overflow-fallback RPCs (one per replica).
    fallback_pending: u8,
    /// Stale lease-cache version: if a read quorum agrees on it, the
    /// cached value is validated and served without a data fetch.
    cached_version: Option<VersionNumber>,
    /// Prefix of `replicas` that is the base (quorum-bearing) set; any
    /// suffix beyond it is extended hot-key copies that absorb load but
    /// never count toward miss quorums.
    n_base: u8,
    /// Replicas actually consulted this attempt (hot-routed GETs consult
    /// a subset of the extended set).
    consulted: u8,
    /// The wire strategy resolved for this op at issue (fixed
    /// `cfg.strategy` without the adaptive controller).
    strategy: LookupStrategy,
}

impl GetState {
    /// A blank state for the recycling freelist (no capacity yet; it
    /// accrues on first use and is retained across reuses).
    fn blank() -> GetState {
        GetState {
            key: Bytes::new(),
            hash: 0,
            batch: None,
            retry: RetryState {
                attempts: 1,
                started_at: SimTime(0),
            },
            attempt: 0,
            replicas: Vec::new(),
            votes: Vec::new(),
            data_requested: false,
            data: None,
            avoid: None,
            saw_overflow: false,
            waiting_geometry: false,
            fallback_pending: 0,
            cached_version: None,
            n_base: 0,
            consulted: 0,
            strategy: LookupStrategy::TwoR,
        }
    }

    /// Reset for reuse, keeping the `replicas`/`votes` allocations.
    fn clear_for_reuse(&mut self) {
        self.key = Bytes::new();
        self.batch = None;
        self.attempt = 0;
        self.replicas.clear();
        self.votes.clear();
        self.data_requested = false;
        self.data = None;
        self.avoid = None;
        self.saw_overflow = false;
        self.waiting_geometry = false;
        self.fallback_pending = 0;
        self.cached_version = None;
        self.n_base = 0;
        self.consulted = 0;
        self.strategy = LookupStrategy::TwoR;
    }
}

/// Completed [`GetState`]s kept for reuse; beyond this they are dropped.
const FREE_GETS_CAP: usize = 8192;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MutationKind {
    Set,
    Erase,
    Cas,
}

#[derive(Debug)]
struct MutationState {
    kind: MutationKind,
    key: Bytes,
    hash: KeyHash,
    value: Bytes,
    expected: Option<VersionNumber>,
    version: VersionNumber,
    batch: Option<u64>,
    retry: RetryState,
    attempt: u64,
    replicas: Vec<NodeId>,
    /// Base (quorum-bearing) prefix of `replicas`; extended hot-key
    /// copies receive the mutation but don't count toward quorums.
    n_base: u8,
    acks: u32,
    rejects: u32,
    /// Acks/rejects from base replicas only (quorum inputs).
    acks_base: u32,
    rejects_base: u32,
    failures: u32,
    completed: bool,
}

#[derive(Debug)]
enum OpState {
    /// Waiting for config and/or geometry.
    Parked(ClientOp, Option<u64>),
    Get(GetState),
    Mutation(MutationState),
}

#[derive(Debug)]
struct BatchState {
    remaining: usize,
    started: SimTime,
    failed: bool,
    /// A sub-op write lost to a newer version (mutation batches).
    superseded: bool,
    /// A sub-op GET found its key (lookup batches).
    any_hit: bool,
    /// True for MultiGet containers, false for MultiSet (selects the
    /// latency/throughput metric family the finished batch reports to).
    gets: bool,
    /// Strategy chosen once per container (adaptive mode decides at
    /// expansion; members inherit so a coalesced frame is never mixed).
    strategy: LookupStrategy,
}

/// One destination's pending MULTI_SET frame: member sub tags plus the
/// (key, value, nominated version) triples travelling in it.
type SetFrame = (Vec<u64>, Vec<(Bytes, Bytes, VersionNumber)>);

/// Accumulates one MultiGet/MultiSet's wire traffic per destination host
/// while its sub-ops issue synchronously; flushed as one frame per
/// `(host, kind)` pair. BTreeMaps keyed by `NodeId.0` make the flush order
/// deterministic (std HashMap iteration order is not).
#[derive(Debug, Default)]
struct BatchAccum {
    /// Sub-op issue hooks divert into the accumulator while set.
    active: bool,
    /// 2xR index/data reads per destination.
    reads: BTreeMap<u32, Vec<rma::BatchReadEntry>>,
    /// SCAR scans per destination: frame-level (index window, generation)
    /// plus per-sub-op entries.
    scars: BTreeMap<u32, (u32, u32, Vec<rma::BatchScarEntry>)>,
    /// MSG/RPC lookups per `(destination, rpcish)` — split by cost model
    /// so an adaptive client can never mix MSG and RPC sub-ops into one
    /// mislabelled frame.
    lookups: BTreeMap<(u32, bool), (Vec<u64>, Vec<Bytes>)>,
    /// Mutations per destination: (sub tags, (key, value, version)).
    sets: BTreeMap<u32, SetFrame>,
}

impl BatchAccum {
    fn is_empty(&self) -> bool {
        self.reads.is_empty()
            && self.scars.is_empty()
            && self.lookups.is_empty()
            && self.sets.is_empty()
    }
}

/// One outstanding batched RPC frame (lookup or mutation vector).
#[derive(Debug)]
struct RpcBatch {
    /// Member sub-op tags, for timeout fan-out.
    subs: Vec<u64>,
    /// Mutation batch (MULTI_SET) vs lookup batch (MULTI_GET variants).
    mutation: bool,
    /// Lookup frames only: served at full RPC cost (vs lean MSG cost).
    rpcish: bool,
}

/// Distinguishes batch-frame user tags from per-sub-op tags. Control tags
/// (`CONFIG_TAG` etc.) also carry this bit, so they are always matched
/// exactly *before* the bit is tested.
const BATCH_TAG_BIT: u64 = 1 << 63;

/// Client-internal deferred work.
#[derive(Debug)]
enum Work {
    /// Pacing timer: pull the next op from the workload.
    NextOp,
    /// Issue a parked/new logical op (after shim ingress).
    Start(u64),
    /// Retry a logical op after backoff.
    Retry(u64),
    /// Flush batched access records.
    AccessFlush,
    /// Send pre-encoded bytes (after transport issue delay), stamped with
    /// the issuing op's trace id (0 = untraced).
    SendWire(NodeId, Bytes, u64),
    /// Client-library CPU for a GET attempt finished; issue its sub-ops.
    IssueAttempt(u64),
}

/// The client node.
pub struct ClientNode {
    cfg: ClientCfg,
    workload: Box<dyn Workload>,
    /// Client-side transport (public for harness engine sampling).
    pub transport: Transport,
    rma: RmaOpTable,
    calls: CallTable,
    work: Deferred<Work>,
    versions: VersionGen,
    memo: VersionMemo,
    /// Rc: cloned on every op issue (the config must outlive the borrow of
    /// `self.ops`), so a deep copy here would put two `Vec` clones on the
    /// per-op hot path.
    config: Option<Rc<CellConfig>>,
    config_refreshing: bool,
    geometry: HashMap<NodeId, Geometry>,
    connecting: HashSet<NodeId>,
    pending_start: HashMap<u64, ClientOp>,
    ops: BTreeMap<u64, OpState>,
    /// Recycled [`GetState`]s: completed GETs return here so steady-state
    /// issue reuses their `replicas`/`votes` capacity (no allocation).
    free_gets: Vec<GetState>,
    /// Client-side lease cache (`cfg.cache`).
    ccache: Option<ClientCache>,
    /// Hot-key detector driving extended-replica routing (`cfg.hot_repl`).
    hot: Option<HotKeyTracker>,
    /// Adaptive dataplane controller (`cfg.adaptive`).
    adaptive: Option<Controller>,
    batches: HashMap<u64, BatchState>,
    /// Doorbell-batching accumulator (active only inside a MultiGet /
    /// MultiSet expansion or a batch-completion demux).
    coalesce: BatchAccum,
    /// Outstanding batched RMA frames: batch tag -> member sub tags.
    rma_batches: HashMap<u64, Vec<u64>>,
    /// Outstanding batched RPC frames: batch tag -> members.
    rpc_batches: HashMap<u64, RpcBatch>,
    /// Monotonic batch-frame counter (tag allocator).
    next_batch_frame: u64,
    next_op_id: u64,
    in_flight: usize,
    workload_done: bool,
    access_buffer: BTreeMap<NodeId, Vec<KeyHash>>,
    /// Completed-op log for tests (bounded).
    pub completions: Vec<(OpOutcome, u64)>,
    /// Interned metric handles; resolved on [`Event::Start`].
    mids: Option<ClientMetricIds>,
    /// Frame-buffer pool bodies are encoded into; swapped for the
    /// host-shared pool at [`Event::Start`].
    pool: Pool,
}

impl std::fmt::Debug for ClientNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientNode")
            .field("cfg", &self.cfg)
            .field("in_flight", &self.in_flight)
            .finish()
    }
}

const COMPLETION_LOG_CAP: usize = 100_000;

/// Why an attempt failed (per-reason retry counters).
#[derive(Debug, Clone, Copy)]
enum RetryReason {
    Inquorate,
    Speculation,
    ConfigMismatch,
    TornRead,
    MsgDecode,
    MsgError,
    MsgTimeout,
    FallbackDecode,
    FallbackError,
    FallbackTimeout,
    MutationFailures,
}

const RETRY_REASONS: [(RetryReason, &str); 11] = [
    (RetryReason::Inquorate, "cm.retry.inquorate"),
    (RetryReason::Speculation, "cm.retry.speculation"),
    (RetryReason::ConfigMismatch, "cm.retry.config_mismatch"),
    (RetryReason::TornRead, "cm.retry.torn_read"),
    (RetryReason::MsgDecode, "cm.retry.msg_decode"),
    (RetryReason::MsgError, "cm.retry.msg_error"),
    (RetryReason::MsgTimeout, "cm.retry.msg_timeout"),
    (RetryReason::FallbackDecode, "cm.retry.fallback_decode"),
    (RetryReason::FallbackError, "cm.retry.fallback_error"),
    (RetryReason::FallbackTimeout, "cm.retry.fallback_timeout"),
    (RetryReason::MutationFailures, "cm.retry.mutation_failures"),
];

/// Interned handles for every metric the client writes per-op; resolved
/// once at [`Event::Start`] so the GET/SET hot paths never touch a name.
#[derive(Clone, Copy)]
struct ClientMetricIds {
    overload_drops: MetricId,
    cpu_ns: MetricId,
    op_errors: MetricId,
    get_hits: MetricId,
    get_misses: MetricId,
    get_overflow_fallbacks: MetricId,
    get_overflow_hits: MetricId,
    get_torn_reads: MetricId,
    get_hash_collisions: MetricId,
    get_batches: MetricId,
    get_completed: MetricId,
    set_batches: MetricId,
    set_completed: MetricId,
    rma_frames: MetricId,
    set_acked: MetricId,
    set_superseded: MetricId,
    retries: MetricId,
    rpc_bytes: MetricId,
    config_refreshes: MetricId,
    config_mismatches: MetricId,
    stale_backend_config: MetricId,
    geometry_invalidations: MetricId,
    access_flushes: MetricId,
    rma_timeouts: MetricId,
    rpc_timeouts: MetricId,
    rma_rtt_ns: MetricId,
    getkey_latency_ns: MetricId,
    get_latency_ns: MetricId,
    set_latency_ns: MetricId,
    ccache_hits: MetricId,
    ccache_stale: MetricId,
    ccache_misses: MetricId,
    ccache_validations: MetricId,
    ccache_invalidations: MetricId,
    hot_promotions: MetricId,
    hot_demotions: MetricId,
    hot_routed: MetricId,
    retry: [MetricId; RETRY_REASONS.len()],
}

impl ClientMetricIds {
    fn resolve(m: &mut Metrics) -> ClientMetricIds {
        let mut retry = [m.handle(RETRY_REASONS[0].1); RETRY_REASONS.len()];
        for (i, (_, name)) in RETRY_REASONS.iter().enumerate() {
            retry[i] = m.handle(name);
        }
        ClientMetricIds {
            overload_drops: m.handle("cm.client.overload_drops"),
            cpu_ns: m.handle("cm.client.cpu_ns"),
            op_errors: m.handle("cm.op_errors"),
            get_hits: m.handle("cm.get.hits"),
            get_misses: m.handle("cm.get.misses"),
            get_overflow_fallbacks: m.handle("cm.get.overflow_fallbacks"),
            get_overflow_hits: m.handle("cm.get.overflow_hits"),
            get_torn_reads: m.handle("cm.get.torn_reads"),
            get_hash_collisions: m.handle("cm.get.hash_collisions"),
            get_batches: m.handle("cm.get.batches"),
            get_completed: m.handle("cm.get.completed"),
            set_batches: m.handle("cm.set.batches"),
            set_completed: m.handle("cm.set.completed"),
            rma_frames: m.handle("cm.client.rma_frames"),
            set_acked: m.handle("cm.set.acked"),
            set_superseded: m.handle("cm.set.superseded"),
            retries: m.handle("cm.retries"),
            rpc_bytes: m.handle("cm.rpc_bytes"),
            config_refreshes: m.handle("cm.client.config_refreshes"),
            config_mismatches: m.handle("cm.client.config_mismatches"),
            stale_backend_config: m.handle("cm.client.stale_backend_config"),
            geometry_invalidations: m.handle("cm.client.geometry_invalidations"),
            access_flushes: m.handle("cm.client.access_flushes"),
            rma_timeouts: m.handle("cm.client.rma_timeouts"),
            rpc_timeouts: m.handle("cm.client.rpc_timeouts"),
            rma_rtt_ns: m.handle("cm.rma.rtt_ns"),
            getkey_latency_ns: m.handle("cm.getkey.latency_ns"),
            get_latency_ns: m.handle("cm.get.latency_ns"),
            set_latency_ns: m.handle("cm.set.latency_ns"),
            ccache_hits: m.handle("cm.ccache.hits"),
            ccache_stale: m.handle("cm.ccache.stale"),
            ccache_misses: m.handle("cm.ccache.misses"),
            ccache_validations: m.handle("cm.ccache.validations"),
            ccache_invalidations: m.handle("cm.ccache.invalidations"),
            hot_promotions: m.handle("cm.client.hot_promotions"),
            hot_demotions: m.handle("cm.client.hot_demotions"),
            hot_routed: m.handle("cm.client.hot_routed_gets"),
            retry,
        }
    }

    fn retry_reason(&self, reason: RetryReason) -> MetricId {
        self.retry[reason as usize]
    }
}

impl ClientNode {
    /// Build a client that will drive `workload`.
    pub fn new(cfg: ClientCfg, workload: Box<dyn Workload>) -> ClientNode {
        let transport = match (cfg.transport, cfg.shared_pony.clone()) {
            (TransportKind::PonyExpress, Some(pool)) => Transport::pony_shared(pool),
            (TransportKind::PonyExpress, None) => Transport::pony(cfg.pony.clone()),
            (TransportKind::OneRma, _) => Transport::one_rma(),
            (TransportKind::Rdma, _) => Transport::rdma(),
        };
        ClientNode {
            versions: VersionGen::new(cfg.client_id),
            calls: CallTable::new(cfg.client_id as u64),
            ccache: cfg.cache.clone().map(ClientCache::new),
            hot: cfg.hot_repl.clone().map(HotKeyTracker::new),
            adaptive: cfg.adaptive.clone().map(|a| {
                let mut ctl = Controller::new(a, cfg.adaptive_seed);
                // SCAR needs the programmable Pony Express NIC; on the
                // hardware transports the server bounces every scan with
                // Unsupported. Mask the arm rather than learn that from a
                // stream of doomed ops.
                if cfg.transport != TransportKind::PonyExpress {
                    ctl.set_arm_enabled(adaptive::Strategy::Scar, false);
                }
                ctl
            }),
            cfg,
            workload,
            transport,
            rma: RmaOpTable::new(),
            work: Deferred::aux1(),
            memo: VersionMemo::default(),
            config: None,
            config_refreshing: false,
            geometry: HashMap::new(),
            connecting: HashSet::new(),
            pending_start: HashMap::new(),
            ops: BTreeMap::new(),
            free_gets: Vec::new(),
            batches: HashMap::new(),
            coalesce: BatchAccum::default(),
            rma_batches: HashMap::new(),
            rpc_batches: HashMap::new(),
            next_batch_frame: 0,
            next_op_id: 1,
            in_flight: 0,
            workload_done: false,
            access_buffer: BTreeMap::new(),
            completions: Vec::new(),
            mids: None,
            pool: Pool::new(),
        }
    }

    /// Cached metric handles (resolved before any op can run).
    #[inline]
    fn m(&self) -> &ClientMetricIds {
        self.mids.as_ref().expect("metric ids resolved at Start")
    }

    /// The trace id for a logical op: `(node + 1) << 40 | op_id` — globally
    /// unique across clients (op ids stay below 2^40 by the sub-op tag
    /// packing), never 0. Returns 0 when tracing is off, which turns every
    /// downstream trace hook into a no-op.
    #[inline]
    fn trace_of(&self, ctx: &Ctx<'_>, op_id: u64) -> u64 {
        if ctx.tracing() {
            ((ctx.self_id().0 as u64 + 1) << 40) | op_id
        } else {
            0
        }
    }

    // ---- adaptive controller bridge --------------------------------------

    /// Resolve the wire strategy for a GET about to issue. Fixed clients
    /// return `cfg.strategy`; adaptive clients let the controller decide —
    /// batch members inherit their container's choice (made once at
    /// expansion) so one coalesced frame never mixes strategies. Re-parked
    /// singles re-choose on release, which is deterministic.
    fn resolve_strategy(&mut self, batch: Option<u64>) -> LookupStrategy {
        let Some(ctl) = self.adaptive.as_mut() else {
            return self.cfg.strategy;
        };
        if let Some(bid) = batch {
            if let Some(bs) = self.batches.get(&bid) {
                return bs.strategy;
            }
        }
        arm_to_lookup(ctl.choose(batch.is_some()))
    }

    /// The controller's CPU/op signal: the op's actual fan-out times the
    /// calibrated per-op costs this client charges — the same constants
    /// the simulator bills, so no per-charge-site bookkeeping is needed.
    fn strategy_cpu_ns(&self, strategy: LookupStrategy, consulted: u64) -> u64 {
        let base = self.cfg.get_cpu.nanos();
        match strategy {
            // Index read per consulted replica plus one data fetch.
            LookupStrategy::TwoR => base + self.cfg.rma_op_cpu.nanos() * (consulted + 1),
            LookupStrategy::Scar => base + self.cfg.rma_op_cpu.nanos() * consulted,
            LookupStrategy::Msg => {
                base + self.cfg.msg_cost.client_send.nanos() + self.cfg.msg_cost.client_recv.nanos()
            }
            LookupStrategy::Rpc => {
                base + self.cfg.rpc_cost.client_send.nanos() + self.cfg.rpc_cost.client_recv.nanos()
            }
        }
    }

    /// Running FNV-1a fingerprint of this client's strategy-choice stream
    /// (`None` without the controller) — the determinism-suite hook.
    pub fn adaptive_choice_hash(&self) -> Option<u64> {
        self.adaptive.as_ref().map(|c| c.choice_hash())
    }

    /// Controller counters: (decisions, per-strategy counts, explored,
    /// demotions, probes). `None` without the controller.
    pub fn adaptive_stats(&self) -> Option<(u64, [u64; 4], u64, u64, u64)> {
        self.adaptive.as_ref().map(|c| {
            (
                c.decisions(),
                c.choice_counts(),
                c.explored(),
                c.demotions(),
                c.probes(),
            )
        })
    }

    /// Feed an external health hint (e.g. a postmortem verdict naming a
    /// backend node) into the controller. No-op without it.
    pub fn adaptive_hint_unhealthy(&mut self, replica: u32) {
        if let Some(ctl) = self.adaptive.as_mut() {
            ctl.hint_unhealthy(replica);
        }
    }

    // ---- op intake -------------------------------------------------------

    fn schedule_next(&mut self, ctx: &mut Ctx<'_>) {
        if self.workload_done {
            return;
        }
        let now = ctx.now();
        let res = {
            let rng = ctx.rng();
            self.workload.next(now, rng)
        };
        match res {
            None => {
                self.workload_done = true;
            }
            Some((gap, op)) => {
                let op_id = self.admit(op);
                let tok = self.work.defer(Work::Start(op_id));
                ctx.set_timer(gap, tok);
                if self.cfg.pacing == Pacing::Open {
                    let tok = self.work.defer(Work::NextOp);
                    ctx.set_timer(gap, tok);
                }
            }
        }
    }

    fn admit(&mut self, op: ClientOp) -> u64 {
        let op_id = self.next_op_id;
        self.next_op_id += 1;
        self.pending_start.insert(op_id, op);
        op_id
    }

    fn start_op(&mut self, ctx: &mut Ctx<'_>, op_id: u64) {
        // An op may arrive here via its start timer (from pending_start) or
        // via MultiGet expansion (already parked with a batch id).
        let parked = match self.pending_start.remove(&op_id) {
            Some(op) => (op, None),
            None => match self.ops.remove(&op_id) {
                Some(OpState::Parked(op, batch)) => (op, batch),
                Some(other) => {
                    self.ops.insert(op_id, other);
                    return;
                }
                None => return,
            },
        };
        if self.in_flight >= self.cfg.max_in_flight {
            ctx.metrics().add_id(self.m().overload_drops, 1);
            // A dropped batch member must still resolve its container, or
            // the batch would leak and never complete.
            if let (_, Some(batch_id)) = parked {
                self.batch_member_dropped(ctx, batch_id);
            }
            return;
        }
        let (op, batch) = parked;
        if let Some(shim) = &self.cfg.shim {
            let cost = shim.per_op_cpu(Self::op_bytes(&op));
            ctx.charge_cpu(cost);
            ctx.metrics().add_id(self.m().cpu_ns, cost.nanos());
        }
        match op {
            op @ (ClientOp::MultiGet { .. } | ClientOp::MultiSet { .. }) => {
                self.expand_batch(ctx, op_id, op);
            }
            other => {
                self.in_flight += 1;
                self.ops.insert(op_id, OpState::Parked(other, batch));
                self.try_issue(ctx, op_id);
            }
        }
    }

    /// Expand a MultiGet/MultiSet container into per-key sub-ops sharing a
    /// [`BatchState`]. With doorbell batching on, the sub-ops' wire traffic
    /// coalesces into one frame per destination host, flushed at the end of
    /// the expansion. A zero-key batch completes immediately (no
    /// `BatchState` is ever inserted for it).
    fn expand_batch(&mut self, ctx: &mut Ctx<'_>, op_id: u64, op: ClientOp) {
        let (subs, gets): (Vec<ClientOp>, bool) = match op {
            ClientOp::MultiGet { keys } => (
                keys.into_iter().map(|key| ClientOp::Get { key }).collect(),
                true,
            ),
            ClientOp::MultiSet { entries } => (
                entries
                    .into_iter()
                    .map(|(key, value)| ClientOp::Set { key, value })
                    .collect(),
                false,
            ),
            other => {
                // Not a batch container; issue it as a plain op.
                self.in_flight += 1;
                self.ops.insert(op_id, OpState::Parked(other, None));
                self.try_issue(ctx, op_id);
                return;
            }
        };
        if subs.is_empty() {
            self.complete_empty_batch(ctx, gets);
            return;
        }
        // Adaptive GET containers choose their strategy once here (as the
        // batched arm class); every member inherits it (mutation
        // containers keep the fixed default — mutations are
        // strategy-independent RPCs).
        let strategy = match self.adaptive.as_mut() {
            Some(ctl) if gets => arm_to_lookup(ctl.choose(true)),
            _ => self.cfg.strategy,
        };
        self.batches.insert(
            op_id,
            BatchState {
                remaining: subs.len(),
                started: ctx.now(),
                failed: false,
                superseded: false,
                any_hit: false,
                gets,
                strategy,
            },
        );
        let coalescing = self.cfg.doorbell_batching && !self.coalesce.active;
        if coalescing {
            self.coalesce.active = true;
            // The API boundary (entry, pacing, completion arming) is paid
            // once per container; members then pay `batched_key_cpu` each.
            let api = if gets {
                self.cfg.get_cpu
            } else {
                self.cfg.set_cpu
            };
            ctx.charge_cpu(api);
            ctx.metrics().add_id(self.m().cpu_ns, api.nanos());
        }
        for sub_op in subs {
            let sub = self.next_op_id;
            self.next_op_id += 1;
            self.ops.insert(sub, OpState::Parked(sub_op, Some(op_id)));
            self.start_op(ctx, sub);
        }
        if coalescing {
            self.coalesce_flush(ctx);
        }
    }

    /// A zero-key batch resolves vacuously: it still reports a batch
    /// completion (latency 0) so callers and pacing see it finish, but it
    /// never touches `self.batches`.
    fn complete_empty_batch(&mut self, ctx: &mut Ctx<'_>, gets: bool) {
        let m = *self.m();
        let (lat, batches) = if gets {
            (m.get_latency_ns, m.get_batches)
        } else {
            (m.set_latency_ns, m.set_batches)
        };
        ctx.metrics().record_id(lat, 0);
        ctx.metrics().add_id(batches, 1);
        self.log_completion(
            if gets {
                OpOutcome::Hit
            } else {
                OpOutcome::Done
            },
            0,
        );
        self.on_op_finished(ctx);
    }

    fn op_bytes(op: &ClientOp) -> usize {
        match op {
            ClientOp::Set { value, .. } | ClientOp::Cas { value, .. } => value.len(),
            ClientOp::MultiSet { entries } => {
                entries.iter().map(|(_, v)| v.len()).sum::<usize>().max(64)
            }
            _ => 64,
        }
    }

    /// Try to move a parked op into flight; parks again if config or
    /// geometry is missing (re-tried when they arrive).
    fn try_issue(&mut self, ctx: &mut Ctx<'_>, op_id: u64) {
        let Some(OpState::Parked(op, batch)) = self.ops.get(&op_id) else {
            return;
        };
        let op = op.clone();
        let batch = *batch;
        let key = match &op {
            ClientOp::Get { key }
            | ClientOp::Set { key, .. }
            | ClientOp::Erase { key }
            | ClientOp::Cas { key, .. } => key.clone(),
            ClientOp::MultiGet { .. } | ClientOp::MultiSet { .. } => {
                // Containers expand at start; one that lands here anyway
                // (defensive) expands now instead of crashing the client.
                self.ops.remove(&op_id);
                self.in_flight = self.in_flight.saturating_sub(1);
                self.expand_batch(ctx, op_id, op);
                return;
            }
        };
        let hash = self.cfg.hasher.hash(&key);
        let is_get = matches!(op, ClientOp::Get { .. });
        let Some(config) = self.config.clone() else {
            self.refresh_config(ctx);
            return; // stays parked; released by config arrival
        };
        let shard = place(hash, config.num_shards(), 1).shard;
        // Load-aware hot-key replication: feed the detector with the
        // client's own op stream; promoted keys get `extra_copies` more
        // replicas so the base set stops serving every fast-path read.
        let hot_now = match self.hot.as_mut() {
            Some(t) => {
                let rolled = t.touch(hash, ctx.now(), 1.0);
                let hot = t.is_hot(hash);
                if let Some(d) = rolled {
                    if !d.promoted.is_empty() {
                        ctx.metrics()
                            .add_id(self.m().hot_promotions, d.promoted.len() as u64);
                    }
                    if !d.demoted.is_empty() {
                        ctx.metrics()
                            .add_id(self.m().hot_demotions, d.demoted.len() as u64);
                    }
                }
                hot
            }
            None => false,
        };
        let base_copies = config.replication.copies().min(config.num_shards()) as usize;
        let extra = self.hot.as_ref().map(|t| t.cfg().extra_copies).unwrap_or(0) as usize;
        // Extended sets only make sense for mutable quorumed mode with
        // enough distinct shards to walk past the base replicas.
        let want = if hot_now
            && config.replication == ReplicationMode::R32
            && config.num_shards() as usize >= base_copies + extra
        {
            base_copies + extra
        } else {
            base_copies
        };
        let mut replica_buf = [NodeId(0); 8];
        let nreplicas = config.replicas_n_buf(shard, want as u32, &mut replica_buf);
        let n_base = base_copies.min(nreplicas);
        let replicas = &replica_buf[..nreplicas];
        // Per-op strategy: fixed clients use `cfg.strategy`; adaptive
        // clients consult the controller (batch members inherit their
        // container's choice).
        let strategy = if is_get {
            self.resolve_strategy(batch)
        } else {
            self.cfg.strategy
        };
        // GETs need geometry for every replica (RMA addressing); mutations
        // are plain RPCs and can go immediately.
        let needs_geometry =
            is_get && !matches!(strategy, LookupStrategy::Msg | LookupStrategy::Rpc);
        if needs_geometry {
            let mut missing = [NodeId(0); 8];
            let mut nmissing = 0;
            let mut have_base = 0;
            for (i, r) in replicas.iter().enumerate() {
                if !self.geometry.contains_key(r) {
                    missing[nmissing] = *r;
                    nmissing += 1;
                } else if i < n_base {
                    have_base += 1;
                }
            }
            // Proceed once a read quorum's worth of base connections
            // exist; a dead replica must not park reads forever (its vote
            // simply fails). Keep trying to connect to the stragglers.
            let quorum = config.replication.read_quorum() as usize;
            for &m in &missing[..nmissing] {
                self.ensure_connect(ctx, m);
            }
            if have_base < quorum {
                return; // stays parked; released by CONNECT completion
            }
        }
        // Client-side lease cache: consulted only once the op is actually
        // leaving the parked state (so cache counters reconcile 1:1 with
        // issued ops). A valid lease completes the GET locally; a mutation
        // drops the owner's entry at issue, so a client can never read its
        // own stale write from the cache.
        let mut cached_version = None;
        if let Some(cache) = self.ccache.as_mut() {
            if is_get {
                match cache.lookup(hash, ctx.now()) {
                    Lookup::Hit(version) => {
                        self.complete_local_hit(ctx, op_id, key, hash, batch, version);
                        return;
                    }
                    Lookup::Stale(version) => {
                        ctx.metrics().add_id(self.m().ccache_stale, 1);
                        cached_version = Some(version);
                    }
                    Lookup::Miss => {
                        ctx.metrics().add_id(self.m().ccache_misses, 1);
                    }
                }
            } else if cache.invalidate(hash) {
                ctx.metrics().add_id(self.m().ccache_invalidations, 1);
            }
        }
        match op {
            ClientOp::Get { key } => {
                if nreplicas > n_base {
                    ctx.metrics().add_id(self.m().hot_routed, 1);
                }
                let mut state = self.free_gets.pop().unwrap_or_else(GetState::blank);
                state.key = key;
                state.hash = hash;
                state.batch = batch;
                state.retry = self.cfg.retry.start(ctx.now());
                state.replicas.extend_from_slice(replicas);
                state.cached_version = cached_version;
                state.n_base = n_base as u8;
                state.strategy = strategy;
                self.ops.insert(op_id, OpState::Get(state));
                ctx.trace_open(self.trace_of(ctx, op_id), trace_aux::GET);
                self.issue_get_attempt(ctx, op_id);
            }
            ClientOp::Set { key, value } => {
                self.start_mutation(
                    ctx,
                    op_id,
                    MutationKind::Set,
                    key,
                    hash,
                    value,
                    None,
                    batch,
                    replicas.to_vec(),
                    n_base,
                );
            }
            ClientOp::Erase { key } => {
                self.start_mutation(
                    ctx,
                    op_id,
                    MutationKind::Erase,
                    key,
                    hash,
                    Bytes::new(),
                    None,
                    batch,
                    replicas.to_vec(),
                    n_base,
                );
            }
            ClientOp::Cas { key, value } => {
                let Some(expected) = self.memo.get(&key) else {
                    self.complete_op(ctx, op_id, OpOutcome::Error, ctx.now());
                    return;
                };
                self.start_mutation(
                    ctx,
                    op_id,
                    MutationKind::Cas,
                    key,
                    hash,
                    value,
                    Some(expected),
                    batch,
                    replicas.to_vec(),
                    n_base,
                );
            }
            ClientOp::MultiGet { .. } | ClientOp::MultiSet { .. } => {
                // Unreachable in practice (handled above), but degrade
                // gracefully rather than crashing the whole client.
                self.complete_op(ctx, op_id, OpOutcome::Error, ctx.now());
            }
        }
    }

    /// Complete a GET locally from the lease cache: no backend is
    /// contacted, no sub-ops issue. The op still passes through the normal
    /// completion path (trace, latency, batch accounting) and allocates
    /// nothing (recycled [`GetState`], refcounted value).
    fn complete_local_hit(
        &mut self,
        ctx: &mut Ctx<'_>,
        op_id: u64,
        key: Bytes,
        hash: KeyHash,
        batch: Option<u64>,
        version: VersionNumber,
    ) {
        let now = ctx.now();
        ctx.metrics().add_id(self.m().ccache_hits, 1);
        self.memo.remember(&key, version);
        let mut state = self.free_gets.pop().unwrap_or_else(GetState::blank);
        state.key = key;
        state.hash = hash;
        state.batch = batch;
        state.retry = self.cfg.retry.start(now);
        self.ops.insert(op_id, OpState::Get(state));
        ctx.trace_open(self.trace_of(ctx, op_id), trace_aux::GET);
        ctx.metrics().add_id(self.m().get_hits, 1);
        self.complete_op(ctx, op_id, OpOutcome::Hit, now);
    }

    /// Lease-cache counters (`None` when the cache is disabled).
    pub fn cache_stats(&self) -> Option<crate::client_cache::CacheStats> {
        self.ccache.as_ref().map(|c| c.stats)
    }

    /// Currently promoted hot keys (0 when hot replication is disabled).
    pub fn hot_keys(&self) -> usize {
        self.hot.as_ref().map(|t| t.hot_len()).unwrap_or(0)
    }

    /// Inspect the cached entry for a key regardless of lease state
    /// (harness/test visibility; `None` when absent or cache disabled).
    pub fn cache_peek(&self, key: &[u8]) -> Option<(VersionNumber, Bytes)> {
        let hash = self.cfg.hasher.hash(key);
        self.ccache
            .as_ref()
            .and_then(|c| c.peek(hash))
            .map(|(v, data, _lease)| (v, data))
    }

    // ---- GET path --------------------------------------------------------

    /// A GET attempt first pays client-library CPU on a real core (so op
    /// rate is CPU-bound at saturation and idle hosts pay C-state exits —
    /// the Fig. 16/17 low-load latency hump), then issues its sub-ops.
    fn issue_get_attempt(&mut self, ctx: &mut Ctx<'_>, op_id: u64) {
        let trace = self.trace_of(ctx, op_id);
        if self.coalesce.active {
            // Doorbell batching: the sub-op must issue inside the expansion
            // event so its wire traffic lands in the accumulator before the
            // flush. It pays only the per-key marshal cost — the container
            // paid the API-boundary `get_cpu` once at expansion.
            ctx.metrics()
                .add_id(self.m().cpu_ns, self.cfg.batched_key_cpu.nanos());
            ctx.charge_cpu_traced(
                self.cfg.batched_key_cpu,
                trace,
                simnet::obs::stage::CLIENT_CPU,
            );
            self.do_issue_attempt(ctx, op_id);
            return;
        }
        ctx.metrics()
            .add_id(self.m().cpu_ns, self.cfg.get_cpu.nanos());
        let tok = self.work.defer(Work::IssueAttempt(op_id));
        ctx.spawn_cpu_traced(self.cfg.get_cpu, tok, trace, simnet::obs::stage::CLIENT_CPU);
    }

    fn do_issue_attempt(&mut self, ctx: &mut Ctx<'_>, op_id: u64) {
        let now = ctx.now();
        let policy = self.cfg.retry;
        // The strategy was resolved at issue and rides the op state, so
        // retries keep the arm that will be credited at completion.
        let strategy = match self.ops.get(&op_id) {
            Some(OpState::Get(get)) => get.strategy,
            _ => return,
        };
        // A retry whose geometry was invalidated (reshape, growth, restart)
        // must re-learn it before burning another attempt — "failed RMA
        // operations may retry on new connections" (§3).
        let needs_geometry = !matches!(strategy, LookupStrategy::Msg | LookupStrategy::Rpc);
        if needs_geometry {
            let (missing, nmissing, have) = match self.ops.get(&op_id) {
                Some(OpState::Get(get)) => {
                    let n_base = (get.n_base as usize).clamp(1, get.replicas.len());
                    let mut missing = [NodeId(0); 8];
                    let mut nmissing = 0;
                    let mut have_base = 0;
                    for (i, r) in get.replicas.iter().enumerate() {
                        if !self.geometry.contains_key(r) {
                            missing[nmissing] = *r;
                            nmissing += 1;
                        } else if i < n_base {
                            have_base += 1;
                        }
                    }
                    (missing, nmissing, have_base)
                }
                _ => return,
            };
            let quorum = self
                .config
                .as_ref()
                .map(|c| c.replication.read_quorum() as usize)
                .unwrap_or(1);
            if have < quorum && !missing.is_empty() {
                let deadline_passed = match self.ops.get(&op_id) {
                    Some(OpState::Get(get)) => now >= get.retry.deadline(&policy),
                    _ => true,
                };
                if deadline_passed {
                    ctx.metrics().add_id(self.m().op_errors, 1);
                    self.complete_op(ctx, op_id, crate::workload::OpOutcome::Error, now);
                    return;
                }
                for &m in &missing[..nmissing] {
                    self.ensure_connect(ctx, m);
                }
                if let Some(OpState::Get(get)) = self.ops.get_mut(&op_id) {
                    get.waiting_geometry = true;
                }
                return;
            }
            // Quorum-sufficient: proceed, but keep healing the stragglers
            // in the background (a revived replica rejoins this way).
            for &m in &missing[..nmissing] {
                self.ensure_connect(ctx, m);
            }
        }
        let Some(OpState::Get(get)) = self.ops.get_mut(&op_id) else {
            return;
        };
        get.votes.clear();
        get.data_requested = false;
        get.data = None;
        get.saw_overflow = false;
        get.fallback_pending = 0;
        get.attempt += 1;
        let attempt = get.attempt;
        let hash = get.hash;
        let key = get.key.clone();
        let n_base = (get.n_base as usize).clamp(1, get.replicas.len());
        let mut replica_buf = [NodeId(0); 8];
        let nreps = match self.config.as_ref().map(|c| c.replication) {
            Some(ReplicationMode::R2Immutable) => {
                // Immutable mode: consult one replica, alternating on retry.
                let idx = ((attempt - 1) as usize) % get.replicas.len();
                replica_buf[0] = get.replicas[idx];
                1
            }
            _ if get.replicas.len() > n_base => {
                // Hot-routed GET: consult a read quorum's worth of base
                // replicas (a rotating pair) plus one extended copy. Each
                // base replica then serves ~2/(base) of the hot key's index
                // reads instead of all of them, and data fetches spread
                // across the whole extended set. Quorum still forms from
                // agreeing versions regardless of which copies answered.
                let ext_n = get.replicas.len() - n_base;
                let spin = (attempt - 1) as usize + op_id as usize;
                let b0 = spin % n_base;
                replica_buf[0] = get.replicas[b0];
                replica_buf[1] = get.replicas[(b0 + 1) % n_base];
                replica_buf[2] = get.replicas[n_base + spin % ext_n];
                3
            }
            _ => {
                let n = get.replicas.len().min(replica_buf.len());
                replica_buf[..n].copy_from_slice(&get.replicas[..n]);
                // Gray-failure evasion: drop demoted replicas from the
                // consult set, floored at a read quorum (probe
                // pass-throughs are the controller's business). Only this
                // full-set branch filters — the immutable and hot-routed
                // branches already consult curated subsets.
                match self.adaptive.as_mut() {
                    Some(ctl) if n > 1 => {
                        let mut ids = [0u32; 8];
                        for (slot, r) in ids.iter_mut().zip(&replica_buf[..n]) {
                            *slot = r.0;
                        }
                        let floor = self
                            .config
                            .as_ref()
                            .map(|c| c.replication.read_quorum() as usize)
                            .unwrap_or(1);
                        let mask = ctl.skip_mask(&ids[..n], floor, strategy_path(strategy));
                        if mask == 0 {
                            n
                        } else {
                            let mut kept = 0;
                            for i in 0..n {
                                if mask & (1 << i) == 0 {
                                    replica_buf[kept] = replica_buf[i];
                                    kept += 1;
                                }
                            }
                            kept
                        }
                    }
                    _ => n,
                }
            }
        };
        get.consulted = nreps as u8;
        let replicas = &replica_buf[..nreps];
        match strategy {
            LookupStrategy::TwoR => {
                for &r in replicas {
                    self.issue_index_read(ctx, op_id, attempt, r, hash);
                }
            }
            LookupStrategy::Scar => {
                for &r in replicas {
                    self.issue_scar(ctx, op_id, attempt, r, hash);
                }
            }
            LookupStrategy::Msg | LookupStrategy::Rpc => {
                let primary = replicas[0];
                #[cfg(feature = "dbg")]
                eprintln!("[{}] msg_get key={:?} -> {:?}", ctx.now(), key, primary);
                let rpcish = strategy == LookupStrategy::Rpc;
                if self.coalesce.active {
                    // Per-op send cost is replaced by one per-frame send
                    // charge at flush — that amortization IS the batching
                    // win on the MSG/RPC path.
                    let slot = self
                        .coalesce
                        .lookups
                        .entry((primary.0, rpcish))
                        .or_default();
                    slot.0.push(sub_tag(op_id, attempt, 0));
                    slot.1.push(key);
                    return;
                }
                let body = messages::GetReq { key }.encode_in(&self.pool);
                let trace = self.trace_of(ctx, op_id);
                let send_cost = if rpcish {
                    self.cfg.rpc_cost.client_send
                } else {
                    self.cfg.msg_cost.client_send
                };
                ctx.charge_cpu_traced(send_cost, trace, simnet::obs::stage::CLIENT_CPU);
                ctx.metrics().add_id(self.m().cpu_ns, send_cost.nanos());
                let method_id = if rpcish {
                    method::GET_RPC
                } else {
                    method::MSG_GET
                };
                self.rpc_call(ctx, primary, method_id, body, op_id, attempt, 0);
            }
        }
        let _ = now;
    }

    fn geometry_of(&self, node: NodeId) -> Option<&Geometry> {
        self.geometry.get(&node)
    }

    fn issue_index_read(
        &mut self,
        ctx: &mut Ctx<'_>,
        op_id: u64,
        attempt: u64,
        replica: NodeId,
        hash: KeyHash,
    ) {
        let Some(geom) = self.geometry_of(replica).copied() else {
            self.record_vote(ctx, op_id, attempt, replica, Vote::Failed);
            return;
        };
        let bb = bucket_size(geom.assoc as usize) as u64;
        let bucket = (hash as u64) % geom.num_buckets;
        let tag = sub_tag(op_id, attempt, 0);
        let trace = self.trace_of(ctx, op_id);
        if self.coalesce.active {
            self.charge_rma_op(ctx, trace);
            self.coalesce
                .reads
                .entry(replica.0)
                .or_default()
                .push(rma::BatchReadEntry {
                    sub: tag,
                    window: geom.index_window,
                    generation: geom.index_generation,
                    offset: bucket * bb,
                    len: bb as u32,
                });
            return;
        }
        let (rma_id, wire) = self.rma.begin_read(
            replica,
            WindowId(geom.index_window),
            geom.index_generation,
            bucket * bb,
            bb as u32,
            ctx.now(),
            tag,
        );
        self.charge_rma_op(ctx, trace);
        self.send_rma(ctx, replica, wire, rma_id, trace);
    }

    fn issue_data_read(
        &mut self,
        ctx: &mut Ctx<'_>,
        op_id: u64,
        attempt: u64,
        replica: NodeId,
        ptr: Pointer,
    ) {
        let tag = sub_tag(op_id, attempt, 1);
        let trace = self.trace_of(ctx, op_id);
        if self.coalesce.active {
            // Data fetches triggered while demuxing a batched index
            // response re-coalesce into the next flush.
            self.charge_rma_op(ctx, trace);
            self.coalesce
                .reads
                .entry(replica.0)
                .or_default()
                .push(rma::BatchReadEntry {
                    sub: tag,
                    window: ptr.window,
                    generation: ptr.generation,
                    offset: ptr.offset,
                    len: ptr.len,
                });
            return;
        }
        let (rma_id, wire) = self.rma.begin_read(
            replica,
            WindowId(ptr.window),
            ptr.generation,
            ptr.offset,
            ptr.len,
            ctx.now(),
            tag,
        );
        self.charge_rma_op(ctx, trace);
        self.send_rma(ctx, replica, wire, rma_id, trace);
    }

    fn issue_scar(
        &mut self,
        ctx: &mut Ctx<'_>,
        op_id: u64,
        attempt: u64,
        replica: NodeId,
        hash: KeyHash,
    ) {
        let Some(geom) = self.geometry_of(replica).copied() else {
            self.record_vote(ctx, op_id, attempt, replica, Vote::Failed);
            return;
        };
        let bb = bucket_size(geom.assoc as usize) as u64;
        let bucket = (hash as u64) % geom.num_buckets;
        let tag = sub_tag(op_id, attempt, 0);
        let trace = self.trace_of(ctx, op_id);
        if self.coalesce.active {
            self.charge_rma_op(ctx, trace);
            // All sub-ops aimed at one replica share its geometry entry, so
            // the frame-level (window, generation) pair is consistent.
            let slot = self
                .coalesce
                .scars
                .entry(replica.0)
                .or_insert_with(|| (geom.index_window, geom.index_generation, Vec::new()));
            slot.2.push(rma::BatchScarEntry {
                sub: tag,
                bucket_offset: bucket * bb,
                bucket_len: bb as u32,
                key_hash: hash,
            });
            return;
        }
        let (rma_id, wire) = self.rma.begin_scar(
            replica,
            WindowId(geom.index_window),
            geom.index_generation,
            bucket * bb,
            bb as u32,
            hash,
            ctx.now(),
            tag,
        );
        self.charge_rma_op(ctx, trace);
        self.send_rma(ctx, replica, wire, rma_id, trace);
    }

    fn charge_rma_op(&mut self, ctx: &mut Ctx<'_>, trace: u64) {
        ctx.charge_cpu_traced(self.cfg.rma_op_cpu, trace, simnet::obs::stage::CLIENT_CPU);
        ctx.metrics()
            .add_id(self.m().cpu_ns, self.cfg.rma_op_cpu.nanos());
    }

    fn send_rma(&mut self, ctx: &mut Ctx<'_>, dst: NodeId, wire: Bytes, rma_id: u64, trace: u64) {
        // Every RMA wire frame (single or batched) counts once — the
        // frames-per-batch economics of doorbell batching read from here.
        ctx.metrics().add_id(self.m().rma_frames, 1);
        // Annotate (don't alter) traced sub-ops aimed at a CPU-dead
        // replica: the postmortem uses this to name the gray failure.
        if trace != 0 && ctx.peer_cpu_dead(dst) {
            ctx.trace_mark(
                trace,
                simnet::obs::stage::SERVER_CPU,
                ctx.host_of(dst).0 as u64,
            );
        }
        // Client-side transport issue cost (engine queueing on Pony).
        let ready = self.transport.admit_issue(ctx.now());
        let delay = ready.since(ctx.now());
        if delay == SimDuration::ZERO {
            ctx.send_traced(dst, wire, trace);
        } else {
            ctx.trace_interval(trace, simnet::obs::stage::ENGINE, ctx.now(), ready);
            let tok = self.work.defer(Work::SendWire(dst, wire, trace));
            ctx.set_timer(delay, tok);
        }
        ctx.set_timer(self.cfg.attempt_timeout, RmaOpTable::timer_token(rma_id));
    }

    /// Feed one replica's index result into the op and evaluate quorum.
    fn record_vote(
        &mut self,
        ctx: &mut Ctx<'_>,
        op_id: u64,
        attempt: u64,
        replica: NodeId,
        vote: Vote,
    ) {
        let Some(OpState::Get(get)) = self.ops.get_mut(&op_id) else {
            return;
        };
        if get.attempt != attempt {
            return; // stale sub-op from an earlier attempt
        }
        // Any substantive answer (even NotFound) proves the path that
        // carried it — the NIC for RMA votes, the CPU for MSG/RPC votes —
        // and resets that path's demotion streak.
        if !matches!(vote, Vote::Failed) {
            let path = strategy_path(get.strategy);
            if let Some(ctl) = self.adaptive.as_mut() {
                ctl.record_success(replica.0, path);
            }
        }
        if let Some(slot) = get.votes.iter_mut().find(|(n, _)| *n == replica) {
            slot.1 = vote;
        } else {
            get.votes.push((replica, vote));
        }
        self.evaluate_get(ctx, op_id);
    }

    fn evaluate_get(&mut self, ctx: &mut Ctx<'_>, op_id: u64) {
        let Some(config) = self.config.clone() else {
            return;
        };
        let read_quorum = config.replication.read_quorum();
        let Some(OpState::Get(get)) = self.ops.get_mut(&op_id) else {
            return;
        };
        let expected_votes = match config.replication {
            ReplicationMode::R2Immutable => 1,
            _ if get.consulted > 0 => get.consulted as usize,
            _ => get.replicas.len(),
        };
        let n_base = (get.n_base as usize).clamp(1, get.replicas.len().max(1));
        // 1. If we have validated data, try to quorum on its version.
        if let Some((from, version, _)) = &get.data {
            let agree = get
                .votes
                .iter()
                .filter(|(_, v)| matches!(v, Vote::Entry(ver, _) if ver == version))
                .count() as u32;
            let from_is_member = get
                .votes
                .iter()
                .any(|(n, v)| n == from && matches!(v, Vote::Entry(ver, _) if ver == version));
            if agree >= read_quorum && from_is_member {
                let (_, version, value) = get.data.take().expect("checked");
                let key = get.key.clone();
                let hash = get.hash;
                self.memo.remember(&key, version);
                self.note_access(op_id);
                if let Some(cache) = self.ccache.as_mut() {
                    // Lease-cache fill: the cache keeps an exact-length
                    // copy, so the pooled inbound frame the value was
                    // sliced from goes back to its pool.
                    cache.insert(hash, version, &value, ctx.now());
                }
                ctx.metrics().add_id(self.m().get_hits, 1);
                self.complete_op(ctx, op_id, OpOutcome::Hit, ctx.now());
                return;
            }
        }
        // 2. Miss quorum: enough replicas affirmatively lack the key.
        // Only base replicas count — an extended hot copy that hasn't
        // received its repair push yet is absent without meaning the key
        // doesn't exist.
        let absents = get
            .votes
            .iter()
            .filter(|(n, v)| matches!(v, Vote::Absent) && get.replicas[..n_base].contains(n))
            .count() as u32;
        if absents >= read_quorum {
            // Optional RPC fallback: an overflowed bucket may hide a
            // server-side hit in some replica's overflow table (§4.2).
            if get.saw_overflow && self.cfg.rpc_fallback_on_overflow {
                let replicas = get.replicas.clone();
                let key = get.key.clone();
                let attempt = get.attempt;
                get.saw_overflow = false; // only once per attempt
                get.fallback_pending = replicas.len() as u8;
                ctx.metrics().add_id(self.m().get_overflow_fallbacks, 1);
                for replica in replicas {
                    let body = messages::GetReq { key: key.clone() }.encode_in(&self.pool);
                    self.rpc_call(ctx, replica, method::GET_RPC, body, op_id, attempt, 2);
                }
                return;
            }
            if get.fallback_pending > 0 {
                return; // fallback verdicts still arriving
            }
            // A quorum says the key is gone: drop any stale cached copy.
            let hash = get.hash;
            if get.cached_version.take().is_some() {
                if let Some(cache) = self.ccache.as_mut() {
                    cache.invalidate(hash);
                }
            }
            ctx.metrics().add_id(self.m().get_misses, 1);
            self.complete_op(ctx, op_id, OpOutcome::Miss, ctx.now());
            return;
        }
        // 2.5 Stale-lease validation: when a read quorum already agrees on
        // the version we hold cached, renew the lease and serve the cached
        // value — on the 2×R path this skips the data read entirely; a
        // SCAR whose inline data was served elsewhere short-circuits too.
        if let Some(cv) = get.cached_version {
            if get.data.is_none() && !get.data_requested {
                let agree = get
                    .votes
                    .iter()
                    .filter(|(_, v)| matches!(v, Vote::Entry(ver, _) if *ver == cv))
                    .count() as u32;
                if agree >= read_quorum {
                    get.cached_version = None;
                    let key = get.key.clone();
                    let hash = get.hash;
                    let now = ctx.now();
                    let validated = self
                        .ccache
                        .as_mut()
                        .is_some_and(|c| c.validate(hash, cv, now));
                    if validated {
                        ctx.metrics().add_id(self.m().ccache_validations, 1);
                        self.memo.remember(&key, cv);
                        self.note_access(op_id);
                        ctx.metrics().add_id(self.m().get_hits, 1);
                        self.complete_op(ctx, op_id, OpOutcome::Hit, now);
                        return;
                    }
                    // Entry evicted or replaced since lookup: fall through
                    // to the normal data-fetch path.
                }
            }
        }
        let Some(OpState::Get(get)) = self.ops.get_mut(&op_id) else {
            return;
        };
        // A stale-lease GET holds off its speculative data fetch while a
        // read quorum on the cached version is still achievable: successful
        // validation serves the cached value and saves the data round trip
        // entirely, so fetching early would waste it. Once enough
        // disagreeing/failed votes arrive that agreement is impossible, the
        // normal fetch path resumes.
        let validation_open = match get.cached_version {
            Some(cv) if get.data.is_none() && !get.data_requested => {
                let agree = get
                    .votes
                    .iter()
                    .filter(|(_, v)| matches!(v, Vote::Entry(ver, _) if *ver == cv))
                    .count();
                let outstanding = expected_votes.saturating_sub(get.votes.len());
                agree + outstanding >= read_quorum as usize
            }
            _ => false,
        };
        // 3. Preferred-backend selection: fetch data from the first entry
        // vote (2xR only; SCAR responses carry data inline).
        if get.strategy == LookupStrategy::TwoR && !get.data_requested && !validation_open {
            let avoid = get.avoid;
            let primary = get.replicas.first().copied();
            let prefer_first = self.cfg.prefer_first_responder;
            let candidate = get
                .votes
                .iter()
                .filter_map(|(n, v)| match v {
                    Vote::Entry(ver, ptr) => Some((*n, *ver, *ptr)),
                    _ => None,
                })
                // Ablation hook: without first-responder preference, only
                // the primary replica may serve the data fetch.
                .filter(|(n, _, _)| prefer_first || Some(*n) == primary)
                .find(|(n, _, _)| Some(*n) != avoid)
                .or_else(|| {
                    // Everyone has voted and the filters left no candidate
                    // (only the avoided node has the entry, or the primary
                    // failed in the no-preference ablation): fall back to
                    // any entry vote.
                    get.votes
                        .iter()
                        .filter_map(|(n, v)| match v {
                            Vote::Entry(ver, ptr) => Some((*n, *ver, *ptr)),
                            _ => None,
                        })
                        .next()
                        .filter(|_| get.votes.len() >= expected_votes)
                });
            if let Some((node, _ver, ptr)) = candidate {
                get.data_requested = true;
                let attempt = get.attempt;
                self.issue_data_read(ctx, op_id, attempt, node, ptr);
                return;
            }
        }
        // 4. All votes in but no quorum achievable -> inquorate; retry.
        if get.votes.len() >= expected_votes {
            let entry_or_absent = get
                .votes
                .iter()
                .filter(|(_, v)| !matches!(v, Vote::Failed))
                .count() as u32;
            let data_pending = get.data_requested && get.data.is_none();
            if entry_or_absent < read_quorum {
                // Too many failures: cannot reach quorum this attempt.
                self.fail_attempt(ctx, op_id, RetryReason::Inquorate);
            } else if !data_pending && get.data_requested {
                // Data fetched but didn't quorum (speculation failed or
                // torn): retry, avoiding the preferred backend.
                self.fail_attempt(ctx, op_id, RetryReason::Speculation);
            } else if !get.data_requested {
                // All responses in, no data, no miss quorum: SCAR with no
                // usable inline copy, or a hot-routed 2×R attempt whose
                // only absents were extended copies (not yet pushed) while
                // a base vote failed. Retry on a rotated subset.
                self.fail_attempt(ctx, op_id, RetryReason::Inquorate);
            }
        }
    }

    fn note_access(&mut self, op_id: u64) {
        if self.cfg.access_flush.is_none() {
            return;
        }
        let Some(OpState::Get(get)) = self.ops.get(&op_id) else {
            return;
        };
        let hash = get.hash;
        for &r in &get.replicas {
            self.access_buffer.entry(r).or_default().push(hash);
        }
    }

    fn fail_attempt(&mut self, ctx: &mut Ctx<'_>, op_id: u64, reason: RetryReason) {
        ctx.metrics().add_id(self.m().retry_reason(reason), 1);
        let now = ctx.now();
        let policy = self.cfg.retry;
        let Some(state) = self.ops.get_mut(&op_id) else {
            return;
        };
        let retry = match state {
            OpState::Get(g) => {
                // Avoid the backend whose data failed to quorum.
                if let Some((from, _, _)) = &g.data {
                    g.avoid = Some(*from);
                }
                &mut g.retry
            }
            OpState::Mutation(m) => &mut m.retry,
            OpState::Parked(..) => return,
        };
        match retry.on_failure_jittered(&policy, now, ctx.rng()) {
            rpc::RetryDecision::RetryAfter(backoff) => {
                ctx.metrics().add_id(self.m().retries, 1);
                let trace = self.trace_of(ctx, op_id);
                ctx.trace_interval(trace, simnet::obs::stage::RETRY, now, now + backoff);
                let tok = self.work.defer(Work::Retry(op_id));
                ctx.set_timer(backoff, tok);
            }
            rpc::RetryDecision::GiveUp => {
                ctx.metrics().add_id(self.m().op_errors, 1);
                self.complete_op(ctx, op_id, OpOutcome::Error, now);
            }
        }
    }

    fn retry_op(&mut self, ctx: &mut Ctx<'_>, op_id: u64) {
        match self.ops.get(&op_id) {
            Some(OpState::Get(_)) => self.issue_get_attempt(ctx, op_id),
            Some(OpState::Mutation(_)) => self.issue_mutation_attempt(ctx, op_id),
            Some(OpState::Parked(..)) => self.try_issue(ctx, op_id),
            None => {}
        }
    }

    // ---- mutations -------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn start_mutation(
        &mut self,
        ctx: &mut Ctx<'_>,
        op_id: u64,
        kind: MutationKind,
        key: Bytes,
        hash: KeyHash,
        value: Bytes,
        expected: Option<VersionNumber>,
        batch: Option<u64>,
        replicas: Vec<NodeId>,
        n_base: usize,
    ) {
        let state = MutationState {
            kind,
            key,
            hash,
            value,
            expected,
            version: VersionNumber::ZERO,
            batch,
            retry: self.cfg.retry.start(ctx.now()),
            attempt: 0,
            replicas,
            n_base: n_base as u8,
            acks: 0,
            rejects: 0,
            acks_base: 0,
            rejects_base: 0,
            failures: 0,
            completed: false,
        };
        self.ops.insert(op_id, OpState::Mutation(state));
        let aux = match kind {
            MutationKind::Set => trace_aux::SET,
            MutationKind::Erase => trace_aux::ERASE,
            MutationKind::Cas => trace_aux::CAS,
        };
        ctx.trace_open(self.trace_of(ctx, op_id), aux);
        self.issue_mutation_attempt(ctx, op_id);
    }

    /// Drop demoted replicas from a mutation's fan-out. Base-prefix sends
    /// never fall below the write quorum; extended (hot) copies are skipped
    /// whenever demoted, since they carry no quorum weight. Every skip is
    /// charged to the caller as an up-front failure so the completion
    /// arithmetic (`acks + rejects + failures >= copies`) still closes —
    /// a skipped replica will never respond. `m.replicas` itself is left
    /// untouched, so base-prefix membership checks stay correct.
    fn filter_mutation_targets(
        &mut self,
        replicas: Vec<NodeId>,
        n_base: usize,
    ) -> (Vec<NodeId>, u32) {
        let Some(ctl) = self.adaptive.as_mut() else {
            return (replicas, 0);
        };
        if replicas.len() <= 1 || replicas.len() > 64 {
            return (replicas, 0);
        }
        let wq = self
            .config
            .as_ref()
            .map(|c| c.replication.write_quorum() as usize)
            .unwrap_or(replicas.len());
        let n_base = n_base.clamp(1, replicas.len());
        let ids: Vec<u32> = replicas[..n_base].iter().map(|r| r.0).collect();
        let mask = ctl.skip_mask(&ids, wq, adaptive::Path::Rpc);
        let mut kept = Vec::with_capacity(replicas.len());
        let mut skipped = 0u32;
        for (i, r) in replicas.into_iter().enumerate() {
            let skip = if i < n_base {
                mask & (1 << i) != 0
            } else {
                ctl.is_demoted_on(r.0, adaptive::Path::Rpc)
            };
            if skip {
                skipped += 1;
            } else {
                kept.push(r);
            }
        }
        (kept, skipped)
    }

    fn issue_mutation_attempt(&mut self, ctx: &mut Ctx<'_>, op_id: u64) {
        let trace = self.trace_of(ctx, op_id);
        // A coalesced MultiSet member pays only per-entry marshal; the
        // container paid the `set_cpu` API boundary once at expansion.
        let coalesced = self.coalesce.active
            && matches!(
                self.ops.get(&op_id),
                Some(OpState::Mutation(m)) if m.kind == MutationKind::Set
            );
        let issue_cpu = if coalesced {
            self.cfg.batched_key_cpu
        } else {
            self.cfg.set_cpu
        };
        ctx.charge_cpu_traced(issue_cpu, trace, simnet::obs::stage::CLIENT_CPU);
        ctx.metrics().add_id(self.m().cpu_ns, issue_cpu.nanos());
        let tt = ctx.truetime();
        let Some(OpState::Mutation(m)) = self.ops.get_mut(&op_id) else {
            return;
        };
        m.attempt += 1;
        m.acks = 0;
        m.rejects = 0;
        m.acks_base = 0;
        m.rejects_base = 0;
        m.failures = 0;
        // Every attempt nominates a fresh, higher version (§5.2): retried
        // mutations eventually win.
        m.version = self.versions.nominate(tt);
        let attempt = m.attempt;
        let kind = m.kind;
        let replicas = m.replicas.clone();
        if self.coalesce.active && kind == MutationKind::Set {
            // MultiSet expansion under doorbell batching: enqueue the
            // (key, value, version) triple for each replica's frame. The
            // nominated version is identical to the unbatched path (same
            // event, same truetime, same nomination order).
            let Some(OpState::Mutation(m)) = self.ops.get(&op_id) else {
                return;
            };
            let key = m.key.clone();
            let value = m.value.clone();
            let version = m.version;
            let n_base = m.n_base as usize;
            let tag = sub_tag(op_id, attempt, 0);
            let (targets, skipped) = self.filter_mutation_targets(replicas, n_base);
            if skipped > 0 {
                if let Some(OpState::Mutation(m)) = self.ops.get_mut(&op_id) {
                    m.failures += skipped;
                }
            }
            for r in targets {
                let slot = self.coalesce.sets.entry(r.0).or_default();
                slot.0.push(tag);
                slot.1.push((key.clone(), value.clone(), version));
            }
            return;
        }
        let Some(OpState::Mutation(m)) = self.ops.get_mut(&op_id) else {
            return;
        };
        let n_base = m.n_base as usize;
        #[cfg(feature = "dbg")]
        let (m_key_dbg, m_version_dbg) = (m.key.clone(), m.version);
        let body = match kind {
            MutationKind::Set => messages::SetReq {
                key: m.key.clone(),
                value: m.value.clone(),
                version: m.version,
            }
            .encode_in(&self.pool),
            MutationKind::Erase => messages::EraseReq {
                key: m.key.clone(),
                version: m.version,
            }
            .encode_in(&self.pool),
            MutationKind::Cas => messages::CasReq {
                key: m.key.clone(),
                value: m.value.clone(),
                expected: m.expected.unwrap_or(VersionNumber::ZERO),
                new_version: m.version,
            }
            .encode_in(&self.pool),
        };
        let method_id = match kind {
            MutationKind::Set => method::SET,
            MutationKind::Erase => method::ERASE,
            MutationKind::Cas => method::CAS,
        };
        let (targets, skipped) = self.filter_mutation_targets(replicas, n_base);
        if skipped > 0 {
            if let Some(OpState::Mutation(m)) = self.ops.get_mut(&op_id) {
                m.failures += skipped;
            }
        }
        for r in targets {
            #[cfg(feature = "dbg")]
            eprintln!(
                "[{}] mutation {:?} key={:?} -> {:?} v={}",
                ctx.now(),
                kind,
                m_key_dbg,
                r,
                m_version_dbg
            );
            ctx.charge_cpu_traced(
                self.cfg.rpc_cost.client_send,
                trace,
                simnet::obs::stage::CLIENT_CPU,
            );
            ctx.metrics()
                .add_id(self.m().cpu_ns, self.cfg.rpc_cost.client_send.nanos());
            self.rpc_call(ctx, r, method_id, body.clone(), op_id, attempt, 0);
        }
    }

    fn on_mutation_response(
        &mut self,
        ctx: &mut Ctx<'_>,
        op_id: u64,
        attempt: u64,
        status: Status,
        from: NodeId,
    ) {
        let Some(config) = self.config.as_ref() else {
            return;
        };
        let wq = config.replication.write_quorum();
        let Some(OpState::Mutation(m)) = self.ops.get_mut(&op_id) else {
            return;
        };
        if m.attempt != attempt || m.completed {
            return;
        }
        // Only base replicas carry quorum weight; extended hot copies get
        // the write (so their data stays fresh) but can neither ack a
        // write quorum nor veto one.
        let n_base = (m.n_base as usize).clamp(1, m.replicas.len());
        let is_base = m.replicas[..n_base].contains(&from);
        // Any substantive verdict (even a version rejection) proves the
        // replica answered its RPC — reset its demotion streak.
        if matches!(
            status,
            Status::Ok | Status::VersionRejected | Status::NotFound
        ) {
            if let Some(ctl) = self.adaptive.as_mut() {
                ctl.record_success(from.0, adaptive::Path::Rpc);
            }
        }
        match status {
            Status::Ok => {
                m.acks += 1;
                if is_base {
                    m.acks_base += 1;
                }
            }
            Status::VersionRejected | Status::NotFound => {
                m.rejects += 1;
                if is_base {
                    m.rejects_base += 1;
                }
            }
            _ => m.failures += 1,
        }
        let copies = m.replicas.len() as u32;
        if m.acks_base >= wq {
            m.completed = true;
            let key = m.key.clone();
            let hash = m.hash;
            let version = m.version;
            let kind = m.kind;
            let value = m.value.clone();
            match kind {
                MutationKind::Erase => self.memo.forget(&key),
                _ => self.memo.remember(&key, version),
            }
            if let Some(cache) = self.ccache.as_mut() {
                // Write-through: the committed version replaces whatever
                // the issue-time invalidation left behind.
                match kind {
                    MutationKind::Erase => {
                        cache.invalidate(hash);
                    }
                    _ => cache.insert(hash, version, &value, ctx.now()),
                }
            }
            ctx.metrics().add_id(self.m().set_acked, 1);
            self.complete_op(ctx, op_id, OpOutcome::Done, ctx.now());
        } else if m.rejects_base > (n_base as u32).saturating_sub(wq) {
            // A write quorum of acks is no longer possible: a newer version
            // exists (or CAS expectation failed).
            m.completed = true;
            let hash = m.hash;
            if let Some(cache) = self.ccache.as_mut() {
                cache.invalidate(hash);
            }
            ctx.metrics().add_id(self.m().set_superseded, 1);
            self.complete_op(ctx, op_id, OpOutcome::Superseded, ctx.now());
        } else if m.acks + m.rejects + m.failures >= copies {
            // All responded, quorum unreachable due to failures: retry with
            // a fresh version.
            self.fail_attempt(ctx, op_id, RetryReason::MutationFailures);
        }
    }

    // ---- RPC plumbing ----------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn rpc_call(
        &mut self,
        ctx: &mut Ctx<'_>,
        dst: NodeId,
        m: u16,
        body: Bytes,
        op_id: u64,
        attempt: u64,
        phase: u8,
    ) {
        let tag = sub_tag(op_id, attempt, phase);
        let trace = self.trace_of(ctx, op_id);
        self.rpc_call_tagged(ctx, dst, m, body, tag, trace);
    }

    /// The raw call path: a pre-computed user tag (sub-op or batch frame)
    /// and trace id. Single-op calls go through [`Self::rpc_call`].
    fn rpc_call_tagged(
        &mut self,
        ctx: &mut Ctx<'_>,
        dst: NodeId,
        m: u16,
        body: Bytes,
        tag: u64,
        trace: u64,
    ) {
        let deadline = ctx.now().nanos() + self.cfg.attempt_timeout.nanos();
        let (id, wire) = self.calls.begin(dst, m, body, ctx.now(), deadline, tag);
        ctx.metrics().add_id(self.m().rpc_bytes, wire.len() as u64);
        if trace != 0 && ctx.peer_cpu_dead(dst) {
            ctx.trace_mark(
                trace,
                simnet::obs::stage::SERVER_CPU,
                ctx.host_of(dst).0 as u64,
            );
        }
        ctx.send_traced(dst, wire, trace);
        ctx.set_timer(self.cfg.attempt_timeout, CallTable::timer_token(id));
    }

    /// Flush the doorbell-batching accumulator: one wire frame, one
    /// transport issue admission, and one timer per `(host, kind)` group.
    /// Flush order is deterministic (BTreeMap keyed by node id).
    fn coalesce_flush(&mut self, ctx: &mut Ctx<'_>) {
        self.coalesce.active = false;
        if self.coalesce.is_empty() {
            return;
        }
        let reads = std::mem::take(&mut self.coalesce.reads);
        let scars = std::mem::take(&mut self.coalesce.scars);
        let lookups = std::mem::take(&mut self.coalesce.lookups);
        let sets = std::mem::take(&mut self.coalesce.sets);
        for (dst, entries) in reads {
            let dst = NodeId(dst);
            let subs: Vec<u64> = entries.iter().map(|e| e.sub).collect();
            // The frame is traced under its first member's op (a batch is
            // one doorbell; per-sub attribution happens at demux).
            let trace = self.trace_of(ctx, subs[0] >> 10);
            let btag = BATCH_TAG_BIT | self.next_batch_frame;
            self.next_batch_frame += 1;
            let (rma_id, wire) = self.rma.begin_batch_read(dst, entries, ctx.now(), btag);
            self.rma_batches.insert(btag, subs);
            self.send_rma(ctx, dst, wire, rma_id, trace);
        }
        for (dst, (window, generation, entries)) in scars {
            let dst = NodeId(dst);
            let subs: Vec<u64> = entries.iter().map(|e| e.sub).collect();
            let trace = self.trace_of(ctx, subs[0] >> 10);
            let btag = BATCH_TAG_BIT | self.next_batch_frame;
            self.next_batch_frame += 1;
            let (rma_id, wire) = self.rma.begin_batch_scar(
                dst,
                WindowId(window),
                generation,
                entries,
                ctx.now(),
                btag,
            );
            self.rma_batches.insert(btag, subs);
            self.send_rma(ctx, dst, wire, rma_id, trace);
        }
        for ((dst, rpcish), (subs, keys)) in lookups {
            let dst = NodeId(dst);
            let trace = self.trace_of(ctx, subs[0] >> 10);
            let send_cost = if rpcish {
                self.cfg.rpc_cost.client_send
            } else {
                self.cfg.msg_cost.client_send
            };
            // One send-side charge per frame — the amortization measured by
            // the batch crossover figure.
            ctx.charge_cpu_traced(send_cost, trace, simnet::obs::stage::CLIENT_CPU);
            ctx.metrics().add_id(self.m().cpu_ns, send_cost.nanos());
            let body = messages::MultiGetReq {
                subs: subs.clone(),
                keys,
            }
            .encode_in(&self.pool);
            let method_id = if rpcish {
                method::MULTI_GET_RPC
            } else {
                method::MSG_MULTI_GET
            };
            let btag = BATCH_TAG_BIT | self.next_batch_frame;
            self.next_batch_frame += 1;
            self.rpc_batches.insert(
                btag,
                RpcBatch {
                    subs,
                    mutation: false,
                    rpcish,
                },
            );
            self.rpc_call_tagged(ctx, dst, method_id, body, btag, trace);
        }
        for (dst, (subs, entries)) in sets {
            let dst = NodeId(dst);
            let trace = self.trace_of(ctx, subs[0] >> 10);
            ctx.charge_cpu_traced(
                self.cfg.rpc_cost.client_send,
                trace,
                simnet::obs::stage::CLIENT_CPU,
            );
            ctx.metrics()
                .add_id(self.m().cpu_ns, self.cfg.rpc_cost.client_send.nanos());
            let body = messages::MultiSetReq {
                subs: subs.clone(),
                entries,
            }
            .encode_in(&self.pool);
            let btag = BATCH_TAG_BIT | self.next_batch_frame;
            self.next_batch_frame += 1;
            self.rpc_batches.insert(
                btag,
                RpcBatch {
                    subs,
                    mutation: true,
                    rpcish: true,
                },
            );
            self.rpc_call_tagged(ctx, dst, method::MULTI_SET, body, btag, trace);
        }
    }

    fn ensure_connect(&mut self, ctx: &mut Ctx<'_>, backend: NodeId) {
        if self.connecting.contains(&backend) {
            return;
        }
        self.connecting.insert(backend);
        let deadline = ctx.now().nanos() + self.cfg.attempt_timeout.nanos();
        let (id, wire) = self.calls.begin(
            backend,
            method::CONNECT,
            Bytes::new(),
            ctx.now(),
            deadline,
            CONNECT_TAG,
        );
        ctx.metrics().add_id(self.m().rpc_bytes, wire.len() as u64);
        ctx.send(backend, wire);
        ctx.set_timer(self.cfg.attempt_timeout, CallTable::timer_token(id));
    }

    fn refresh_config(&mut self, ctx: &mut Ctx<'_>) {
        if self.config_refreshing {
            return;
        }
        self.config_refreshing = true;
        ctx.metrics().add_id(self.m().config_refreshes, 1);
        let deadline = ctx.now().nanos() + self.cfg.attempt_timeout.nanos();
        let (id, wire) = self.calls.begin(
            self.cfg.config_store,
            method::GET_CONFIG,
            Bytes::new(),
            ctx.now(),
            deadline,
            CONFIG_TAG,
        );
        ctx.send(self.cfg.config_store, wire);
        ctx.set_timer(self.cfg.attempt_timeout, CallTable::timer_token(id));
    }

    fn release_parked(&mut self, ctx: &mut Ctx<'_>) {
        let parked: Vec<u64> = self
            .ops
            .iter()
            .filter(|(_, s)| matches!(s, OpState::Parked(..)))
            .map(|(&id, _)| id)
            .collect();
        for id in parked {
            self.try_issue(ctx, id);
        }
        // GET attempts stalled on geometry re-learning.
        let waiting: Vec<u64> = self
            .ops
            .iter()
            .filter(|(_, s)| matches!(s, OpState::Get(g) if g.waiting_geometry))
            .map(|(&id, _)| id)
            .collect();
        for id in waiting {
            if let Some(OpState::Get(g)) = self.ops.get_mut(&id) {
                g.waiting_geometry = false;
            }
            self.do_issue_attempt(ctx, id);
        }
    }

    fn on_rpc_completion(&mut self, ctx: &mut Ctx<'_>, done: rpc::Completion) {
        match done.call.user_tag {
            CONFIG_TAG => {
                self.config_refreshing = false;
                if done.status == Status::Ok {
                    if let Some(config) = CellConfig::decode(done.body) {
                        // A new config invalidates geometry learned from
                        // nodes that changed roles.
                        let changed = self
                            .config
                            .as_ref()
                            .map(|old| old.config_id != config.config_id)
                            .unwrap_or(true);
                        if changed {
                            self.geometry.clear();
                            self.connecting.clear();
                        }
                        self.config = Some(Rc::new(config));
                        self.release_parked(ctx);
                    }
                }
            }
            CONNECT_TAG => {
                self.connecting.remove(&done.call.dst);
                if done.status == Status::Ok {
                    if let Some(geom) = Geometry::decode(done.body) {
                        // Validate the backend agrees with our config.
                        let ours = self.config.as_ref().map(|c| c.config_id);
                        if ours == Some(geom.config_id) {
                            self.geometry.insert(done.call.dst, geom);
                        } else {
                            self.refresh_config(ctx);
                        }
                    }
                } else if done.status == Status::WrongShard {
                    self.refresh_config(ctx);
                }
                self.release_parked(ctx);
            }
            tag if tag & BATCH_TAG_BIT != 0 && tag < IGNORE_TAG => {
                self.on_rpc_batch_completion(ctx, done);
            }
            tag => {
                let (op_id, attempt, phase) = split_tag(tag);
                let trace = self.trace_of(ctx, op_id);
                ctx.charge_cpu_traced(
                    self.cfg.rpc_cost.client_recv,
                    trace,
                    simnet::obs::stage::CLIENT_CPU,
                );
                match phase {
                    0 => {
                        // Mutation response or MSG lookup.
                        if let Some(OpState::Mutation(_)) = self.ops.get(&op_id) {
                            self.on_mutation_response(
                                ctx,
                                op_id,
                                attempt,
                                done.status,
                                done.call.dst,
                            );
                        } else if let Some(OpState::Get(_)) = self.ops.get(&op_id) {
                            self.on_msg_get_response(ctx, op_id, attempt, done);
                        }
                    }
                    2 => {
                        // Overflow RPC fallback result.
                        self.on_fallback_response(ctx, op_id, attempt, done);
                    }
                    _ => {}
                }
            }
        }
    }

    fn on_msg_get_response(
        &mut self,
        ctx: &mut Ctx<'_>,
        op_id: u64,
        attempt: u64,
        done: rpc::Completion,
    ) {
        let Some(OpState::Get(get)) = self.ops.get(&op_id) else {
            return;
        };
        if get.attempt != attempt {
            return;
        }
        let trace = self.trace_of(ctx, op_id);
        let recv_cost = if get.strategy == LookupStrategy::Rpc {
            self.cfg.rpc_cost.client_recv
        } else {
            self.cfg.msg_cost.client_recv
        };
        ctx.charge_cpu_traced(recv_cost, trace, simnet::obs::stage::CLIENT_CPU);
        ctx.metrics().add_id(self.m().cpu_ns, recv_cost.nanos());
        match done.status {
            Status::Ok => match messages::GetResp::decode(done.body) {
                Some(resp) => self.apply_lookup_entry(
                    ctx,
                    op_id,
                    attempt,
                    Status::Ok,
                    resp.version,
                    resp.value,
                ),
                None => self.fail_attempt(ctx, op_id, RetryReason::MsgDecode),
            },
            other => self.apply_lookup_entry(
                ctx,
                op_id,
                attempt,
                other,
                VersionNumber::ZERO,
                Bytes::new(),
            ),
        }
    }

    /// Resolve one server-side lookup verdict against its GET — the shared
    /// tail of the single MSG/RPC response and every batched sub-op.
    fn apply_lookup_entry(
        &mut self,
        ctx: &mut Ctx<'_>,
        op_id: u64,
        attempt: u64,
        status: Status,
        version: VersionNumber,
        value: Bytes,
    ) {
        let Some(OpState::Get(get)) = self.ops.get(&op_id) else {
            return;
        };
        if get.attempt != attempt {
            return;
        }
        let hash = get.hash;
        let key = get.key.clone();
        match status {
            Status::Ok => {
                self.memo.remember(&key, version);
                if let Some(cache) = self.ccache.as_mut() {
                    cache.insert(hash, version, &value, ctx.now());
                }
                ctx.metrics().add_id(self.m().get_hits, 1);
                self.complete_op(ctx, op_id, OpOutcome::Hit, ctx.now());
            }
            Status::NotFound => {
                if let Some(cache) = self.ccache.as_mut() {
                    cache.invalidate(hash);
                }
                ctx.metrics().add_id(self.m().get_misses, 1);
                self.complete_op(ctx, op_id, OpOutcome::Miss, ctx.now());
            }
            _ => self.fail_attempt(ctx, op_id, RetryReason::MsgError),
        }
    }

    /// Demux a batched MULTI_GET/MULTI_SET response frame: one receive-side
    /// charge for the whole frame, then per-sub-op resolution identical to
    /// the unbatched path.
    fn on_rpc_batch_completion(&mut self, ctx: &mut Ctx<'_>, done: rpc::Completion) {
        let Some(batch) = self.rpc_batches.remove(&done.call.user_tag) else {
            return;
        };
        let from = done.call.dst;
        let rep_trace = self.trace_of(ctx, batch.subs.first().map(|t| t >> 10).unwrap_or(0));
        let recv_cost = if batch.mutation || batch.rpcish {
            self.cfg.rpc_cost.client_recv
        } else {
            self.cfg.msg_cost.client_recv
        };
        ctx.charge_cpu_traced(recv_cost, rep_trace, simnet::obs::stage::CLIENT_CPU);
        ctx.metrics().add_id(self.m().cpu_ns, recv_cost.nanos());
        if batch.mutation {
            let decoded = if done.status == Status::Ok {
                messages::MultiSetResp::decode(done.body)
            } else {
                None
            };
            match decoded {
                Some(resp) => {
                    for (sub, s) in resp.statuses {
                        let (op_id, attempt, _) = split_tag(sub);
                        self.on_mutation_response(ctx, op_id, attempt, Status::from_u8(s), from);
                    }
                }
                None => {
                    // Whole-frame failure: every member sees an Internal
                    // verdict from this replica (same as a lost single RPC).
                    for &sub in &batch.subs {
                        let (op_id, attempt, _) = split_tag(sub);
                        self.on_mutation_response(ctx, op_id, attempt, Status::Internal, from);
                    }
                }
            }
        } else {
            let decoded = if done.status == Status::Ok {
                messages::MultiGetResp::decode(done.body)
            } else {
                None
            };
            match decoded {
                Some(resp) => {
                    for e in resp.entries {
                        let (op_id, attempt, _) = split_tag(e.sub);
                        self.apply_lookup_entry(
                            ctx,
                            op_id,
                            attempt,
                            Status::from_u8(e.status),
                            e.version,
                            e.value,
                        );
                    }
                }
                None => {
                    for &sub in &batch.subs {
                        let (op_id, attempt, _) = split_tag(sub);
                        self.apply_lookup_entry(
                            ctx,
                            op_id,
                            attempt,
                            Status::Internal,
                            VersionNumber::ZERO,
                            Bytes::new(),
                        );
                    }
                }
            }
        }
    }

    fn on_fallback_response(
        &mut self,
        ctx: &mut Ctx<'_>,
        op_id: u64,
        attempt: u64,
        done: rpc::Completion,
    ) {
        let Some(OpState::Get(get)) = self.ops.get_mut(&op_id) else {
            return;
        };
        if get.attempt != attempt || get.fallback_pending == 0 {
            return;
        }
        let hash = get.hash;
        get.fallback_pending -= 1;
        let exhausted = get.fallback_pending == 0;
        match done.status {
            Status::Ok => {
                if let Some(resp) = messages::GetResp::decode(done.body) {
                    get.fallback_pending = 0;
                    let key = resp.key.clone();
                    self.memo.remember(&key, resp.version);
                    if let Some(cache) = self.ccache.as_mut() {
                        cache.insert(hash, resp.version, &resp.value, ctx.now());
                    }
                    ctx.metrics().add_id(self.m().get_hits, 1);
                    ctx.metrics().add_id(self.m().get_overflow_hits, 1);
                    self.complete_op(ctx, op_id, OpOutcome::Hit, ctx.now());
                    return;
                }
                if exhausted {
                    self.fail_attempt(ctx, op_id, RetryReason::FallbackDecode);
                }
            }
            Status::NotFound => {
                // Affirmatively absent everywhere consulted.
                if exhausted {
                    ctx.metrics().add_id(self.m().get_misses, 1);
                    self.complete_op(ctx, op_id, OpOutcome::Miss, ctx.now());
                }
            }
            _ => {
                if exhausted {
                    self.fail_attempt(ctx, op_id, RetryReason::FallbackError);
                }
            }
        }
    }

    // ---- RMA completions ---------------------------------------------------

    fn on_rma_completion(&mut self, ctx: &mut Ctx<'_>, done: rma::OpCompletion) {
        if done.op.user_tag & BATCH_TAG_BIT != 0 {
            self.on_rma_batch_completion(ctx, done);
            return;
        }
        let (op_id, _, _) = split_tag(done.op.user_tag);
        let trace = self.trace_of(ctx, op_id);
        // Client-side transport completion processing cost.
        let ready = self
            .transport
            .admit_completion(ctx.now(), done.data.len() + done.bucket.len());
        ctx.trace_interval(trace, simnet::obs::stage::ENGINE, ctx.now(), ready);
        // Engine occupancy is tracked; latency impact is folded into
        // rma_op_cpu to keep the event count low. The admission backlog is
        // the cheapest live proxy for remote engine pressure, so the
        // controller taps it here.
        if let Some(ctl) = self.adaptive.as_mut() {
            ctl.observe_engine(ready.since(ctx.now()).nanos());
        }
        self.charge_rma_op(ctx, trace);
        // Fabric + target-serve round trip, as a hardware timestamper on
        // the NIC would report it (the Fig. 16 quantity).
        ctx.metrics().record_id(self.m().rma_rtt_ns, done.rtt_ns);
        let replica = done.op.dst;
        self.route_rma_result(
            ctx,
            replica,
            done.op.user_tag,
            done.status,
            done.bucket,
            done.data,
        );
    }

    /// Demux a batched RMA response: one completion admission for the whole
    /// frame, then per-sub-op routing identical to the single path. Data
    /// fetches the demux triggers (2×R) re-coalesce into a follow-up frame.
    fn on_rma_batch_completion(&mut self, ctx: &mut Ctx<'_>, done: rma::OpCompletion) {
        let Some(subs) = self.rma_batches.remove(&done.op.user_tag) else {
            return;
        };
        let rep_trace = self.trace_of(ctx, subs.first().map(|t| t >> 10).unwrap_or(0));
        let total: usize = done
            .subs
            .iter()
            .map(|d| d.data.len() + d.bucket.len())
            .sum();
        let ready = self.transport.admit_completion(ctx.now(), total);
        ctx.trace_interval(rep_trace, simnet::obs::stage::ENGINE, ctx.now(), ready);
        if let Some(ctl) = self.adaptive.as_mut() {
            ctl.observe_engine(ready.since(ctx.now()).nanos());
        }
        ctx.metrics().record_id(self.m().rma_rtt_ns, done.rtt_ns);
        let replica = done.op.dst;
        if done.subs.is_empty() {
            // Defensive: a frame-level failure with no per-entry verdicts
            // fails every member's vote from this replica.
            for tag in subs {
                let (op_id, attempt, _) = split_tag(tag);
                self.record_vote(ctx, op_id, attempt, replica, Vote::Failed);
            }
            return;
        }
        let reactivate = self.cfg.doorbell_batching && !self.coalesce.active;
        if reactivate {
            self.coalesce.active = true;
        }
        for d in done.subs {
            let trace = self.trace_of(ctx, d.sub >> 10);
            self.charge_rma_op(ctx, trace);
            self.route_rma_result(ctx, replica, d.sub, d.status, d.bucket, d.data);
        }
        if reactivate {
            self.coalesce_flush(ctx);
        }
    }

    /// Route one RMA result (a single op's completion or one batch entry)
    /// to its per-strategy handler, applying the shared status policy.
    fn route_rma_result(
        &mut self,
        ctx: &mut Ctx<'_>,
        replica: NodeId,
        tag: u64,
        status: RmaStatus,
        bucket: Bytes,
        data: Bytes,
    ) {
        let (op_id, attempt, phase) = split_tag(tag);
        match status {
            RmaStatus::Ok | RmaStatus::NoMatch => {}
            RmaStatus::WindowRevoked | RmaStatus::BadGeneration | RmaStatus::OutOfBounds => {
                // Stale geometry (reshape, growth, restart): drop it and
                // re-learn via CONNECT on the retry path (§4.1).
                ctx.metrics().add_id(self.m().geometry_invalidations, 1);
                self.geometry.remove(&replica);
                self.record_vote(ctx, op_id, attempt, replica, Vote::Failed);
                return;
            }
            RmaStatus::Unsupported => {
                self.record_vote(ctx, op_id, attempt, replica, Vote::Failed);
                return;
            }
        }
        let strategy = match self.ops.get(&op_id) {
            Some(OpState::Get(get)) => get.strategy,
            _ => return,
        };
        match (strategy, phase) {
            (LookupStrategy::TwoR, 0) => {
                self.on_index_response(ctx, op_id, attempt, replica, &data)
            }
            (LookupStrategy::TwoR, 1) => self.on_data_response(ctx, op_id, attempt, replica, data),
            (LookupStrategy::Scar, 0) => {
                self.on_scar_response(ctx, op_id, attempt, replica, status, bucket, data)
            }
            _ => {}
        }
    }

    /// Validate a fetched bucket (config id) and extract this replica's
    /// vote. Returns `None` if the whole op failed (config refresh).
    fn parse_bucket_vote(&mut self, ctx: &mut Ctx<'_>, op_id: u64, bucket: &[u8]) -> Option<Vote> {
        if bucket.len() < layout::BUCKET_HEADER_BYTES {
            return Some(Vote::Failed);
        }
        let expected = self.config.as_ref().map(|c| c.config_id).unwrap_or(0);
        let got = layout::bucket_config_id(bucket);
        if got > expected {
            // The backend knows a newer configuration than we do (e.g. it
            // migrated its shard away): refresh and retry (§6.1).
            ctx.metrics().add_id(self.m().config_mismatches, 1);
            self.refresh_config(ctx);
            return None;
        }
        if got < expected {
            // The backend is lagging behind a config update that doesn't
            // concern it (we selected it from the *current* config, so its
            // data is still authoritative). Tolerate the stale stamp.
            ctx.metrics().add_id(self.m().stale_backend_config, 1);
        }
        let Some(OpState::Get(get)) = self.ops.get_mut(&op_id) else {
            return Some(Vote::Failed);
        };
        if layout::bucket_overflowed(bucket) {
            get.saw_overflow = true;
        }
        let (hit, _) = layout::scan_bucket(bucket, get.hash);
        Some(match hit {
            Some((_, e)) => Vote::Entry(e.version, e.ptr),
            None => Vote::Absent,
        })
    }

    fn on_index_response(
        &mut self,
        ctx: &mut Ctx<'_>,
        op_id: u64,
        attempt: u64,
        replica: NodeId,
        data: &Bytes,
    ) {
        match self.parse_bucket_vote(ctx, op_id, data) {
            Some(vote) => self.record_vote(ctx, op_id, attempt, replica, vote),
            None => self.fail_attempt(ctx, op_id, RetryReason::ConfigMismatch),
        }
    }

    fn on_data_response(
        &mut self,
        ctx: &mut Ctx<'_>,
        op_id: u64,
        attempt: u64,
        replica: NodeId,
        data: Bytes,
    ) {
        let Some(OpState::Get(get)) = self.ops.get_mut(&op_id) else {
            return;
        };
        if get.attempt != attempt {
            return;
        }
        // End-to-end self-validation (§3 step 5): checksum, then full key.
        match parse_data_entry(&data) {
            Err(_) => {
                // Torn read — rare, but normal (§3).
                ctx.metrics().add_id(self.m().get_torn_reads, 1);
                self.fail_attempt(ctx, op_id, RetryReason::TornRead);
            }
            Ok(entry) => {
                if entry.key != &get.key[..] {
                    // 128-bit hash collision: affirmatively not our key.
                    ctx.metrics().add_id(self.m().get_hash_collisions, 1);
                    ctx.metrics().add_id(self.m().get_misses, 1);
                    self.complete_op(ctx, op_id, OpOutcome::Miss, ctx.now());
                    return;
                }
                // Zero-copy: the value is served as a slice of the inbound
                // frame (shares its pooled storage, no allocation).
                let at = layout::DATA_ENTRY_HEADER_BYTES + entry.key.len();
                let len = entry.data.len();
                let value = data.slice(at..at + len);
                get.data = Some((replica, entry.version, value));
                self.evaluate_get(ctx, op_id);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_scar_response(
        &mut self,
        ctx: &mut Ctx<'_>,
        op_id: u64,
        attempt: u64,
        replica: NodeId,
        status: RmaStatus,
        bucket: Bytes,
        data: Bytes,
    ) {
        let Some(vote) = self.parse_bucket_vote(ctx, op_id, &bucket) else {
            self.fail_attempt(ctx, op_id, RetryReason::ConfigMismatch);
            return;
        };
        // Inline data: first valid response becomes the preferred copy.
        if status == RmaStatus::Ok && !data.is_empty() {
            if let Some(OpState::Get(get)) = self.ops.get_mut(&op_id) {
                if get.attempt == attempt && get.data.is_none() {
                    match parse_data_entry(&data) {
                        Ok(entry) if entry.key == &get.key[..] => {
                            // Zero-copy slice of the inbound frame.
                            let at = layout::DATA_ENTRY_HEADER_BYTES + entry.key.len();
                            let len = entry.data.len();
                            let value = data.slice(at..at + len);
                            get.data = Some((replica, entry.version, value));
                        }
                        Ok(_) => {
                            ctx.metrics().add_id(self.m().get_hash_collisions, 1);
                        }
                        Err(_) => {
                            ctx.metrics().add_id(self.m().get_torn_reads, 1);
                        }
                    }
                }
            }
        }
        self.record_vote(ctx, op_id, attempt, replica, vote);
    }

    // ---- completion ------------------------------------------------------

    fn complete_op(&mut self, ctx: &mut Ctx<'_>, op_id: u64, outcome: OpOutcome, at: SimTime) {
        let Some(state) = self.ops.remove(&op_id) else {
            return;
        };
        self.in_flight = self.in_flight.saturating_sub(1);
        let (started, batch, is_get) = match &state {
            OpState::Get(g) => (g.retry.started_at, g.batch, true),
            OpState::Mutation(m) => (m.retry.started_at, m.batch, false),
            OpState::Parked(..) => (at, None, false),
        };
        let arm_feedback = match &state {
            OpState::Get(g) => Some((g.strategy, g.consulted as u64)),
            _ => None,
        };
        ctx.trace_close(
            self.trace_of(ctx, op_id),
            started,
            at,
            trace_aux::outcome_code(outcome),
        );
        // Recycle GET state so the next op reuses its replicas/votes
        // capacity instead of allocating fresh Vecs.
        if let OpState::Get(mut g) = state {
            if self.free_gets.len() < FREE_GETS_CAP {
                g.clear_for_reuse();
                self.free_gets.push(g);
            }
        }
        let latency = at.since(started);
        // The application-side caller observes pipe traversals in both
        // directions plus shim marshalling on the way in and out.
        let shim_overhead = self
            .cfg
            .shim
            .as_ref()
            .map(|s| s.round_trip_overhead() + s.per_op_cpu(0).saturating_mul(2))
            .unwrap_or(SimDuration::ZERO);
        let observed = latency + shim_overhead;
        // Feed the arm that actually served this GET: the caller-observed
        // latency plus the model-derived client CPU for the fan-out the op
        // really used. Mutations are strategy-independent (always RPC) and
        // carry no signal.
        if let Some((strategy, consulted)) = arm_feedback {
            if self.adaptive.is_some() {
                let cpu = self.strategy_cpu_ns(strategy, consulted);
                if let Some(ctl) = self.adaptive.as_mut() {
                    ctl.observe(
                        lookup_to_arm(strategy),
                        batch.is_some(),
                        observed.nanos(),
                        cpu,
                    );
                }
            }
        }
        if let Some(shim) = &self.cfg.shim {
            let cost = shim.per_op_cpu(0);
            ctx.charge_cpu(cost);
            ctx.metrics().add_id(self.m().cpu_ns, cost.nanos());
        }
        match batch {
            Some(batch_id) => {
                let finished = {
                    let Some(b) = self.batches.get_mut(&batch_id) else {
                        return;
                    };
                    b.remaining -= 1;
                    if !outcome.ok() {
                        b.failed = true;
                    }
                    b.superseded |= outcome == OpOutcome::Superseded;
                    b.any_hit |= outcome == OpOutcome::Hit;
                    b.remaining == 0
                };
                if is_get {
                    ctx.metrics()
                        .record_id(self.m().getkey_latency_ns, observed.nanos());
                }
                if finished {
                    self.finish_batch(ctx, batch_id, at, shim_overhead);
                }
            }
            None => {
                let m = *self.m();
                let (lat, completed) = if is_get {
                    (m.get_latency_ns, m.get_completed)
                } else {
                    (m.set_latency_ns, m.set_completed)
                };
                ctx.metrics().record_id(lat, observed.nanos());
                ctx.metrics().add_id(completed, 1);
                self.log_completion(outcome, observed.nanos());
                self.on_op_finished(ctx);
            }
        }
    }

    fn finish_batch(
        &mut self,
        ctx: &mut Ctx<'_>,
        batch_id: u64,
        at: SimTime,
        shim_overhead: SimDuration,
    ) {
        let b = self.batches.remove(&batch_id).expect("batch exists");
        let batch_latency = at.since(b.started) + shim_overhead;
        let m = *self.m();
        let (lat, batches) = if b.gets {
            (m.get_latency_ns, m.get_batches)
        } else {
            (m.set_latency_ns, m.set_batches)
        };
        ctx.metrics().record_id(lat, batch_latency.nanos());
        ctx.metrics().add_id(batches, 1);
        // The container outcome is an order-independent aggregate of its
        // sub-ops: sub-op completion order differs between the batched and
        // unbatched wire paths (frame demux vs per-op responses) and must
        // not leak into observable results. Any failure dominates; a GET
        // batch is a Hit when any key resolved; a mutation batch reports
        // Superseded when any write lost to a newer version.
        let outcome = if b.failed {
            OpOutcome::Error
        } else if b.gets {
            if b.any_hit {
                OpOutcome::Hit
            } else {
                OpOutcome::Miss
            }
        } else if b.superseded {
            OpOutcome::Superseded
        } else {
            OpOutcome::Done
        };
        self.log_completion(outcome, batch_latency.nanos());
        self.on_op_finished(ctx);
    }

    /// A batch member that never issued (overload drop) still resolves its
    /// container.
    fn batch_member_dropped(&mut self, ctx: &mut Ctx<'_>, batch_id: u64) {
        let finished = {
            let Some(b) = self.batches.get_mut(&batch_id) else {
                return;
            };
            b.remaining -= 1;
            b.failed = true;
            b.remaining == 0
        };
        if finished {
            self.finish_batch(ctx, batch_id, ctx.now(), SimDuration::ZERO);
        }
    }

    fn log_completion(&mut self, outcome: OpOutcome, latency_ns: u64) {
        if self.completions.len() < COMPLETION_LOG_CAP {
            self.completions.push((outcome, latency_ns));
        }
    }

    fn on_op_finished(&mut self, ctx: &mut Ctx<'_>) {
        if self.cfg.pacing == Pacing::Closed {
            match &self.cfg.shim {
                // Closed-loop callers behind a shim can't issue the next op
                // until the response crosses the pipe back and the next
                // request is marshalled — the Fig. 6a rate gap.
                Some(shim) => {
                    let delay = shim.round_trip_overhead() + shim.per_op_cpu(0).saturating_mul(2);
                    let tok = self.work.defer(Work::NextOp);
                    ctx.set_timer(delay, tok);
                }
                None => self.schedule_next(ctx),
            }
        }
    }

    fn flush_access_records(&mut self, ctx: &mut Ctx<'_>) {
        let buffered = std::mem::take(&mut self.access_buffer);
        for (backend, hashes) in buffered {
            if hashes.is_empty() {
                continue;
            }
            ctx.metrics().add_id(self.m().access_flushes, 1);
            let body = messages::AccessRecords { hashes }.encode_in(&self.pool);
            let deadline = ctx.now().nanos() + self.cfg.attempt_timeout.nanos();
            let (id, wire) = self.calls.begin(
                backend,
                method::ACCESS_RECORDS,
                body,
                ctx.now(),
                deadline,
                IGNORE_TAG,
            );
            ctx.metrics().add_id(self.m().rpc_bytes, wire.len() as u64);
            ctx.send(backend, wire);
            ctx.set_timer(self.cfg.attempt_timeout, CallTable::timer_token(id));
        }
        if let Some(interval) = self.cfg.access_flush {
            let tok = self.work.defer(Work::AccessFlush);
            ctx.set_timer(interval, tok);
        }
    }
}

const CONFIG_TAG: u64 = u64::MAX;
const CONNECT_TAG: u64 = u64::MAX - 1;
const IGNORE_TAG: u64 = u64::MAX - 2;

/// Aux codes stamped on trace OPEN (op kind) and CLOSE (outcome) events.
pub mod trace_aux {
    use crate::workload::OpOutcome;

    /// OPEN aux: the op is a GET.
    pub const GET: u64 = 1;
    /// OPEN aux: the op is a SET.
    pub const SET: u64 = 2;
    /// OPEN aux: the op is an ERASE.
    pub const ERASE: u64 = 3;
    /// OPEN aux: the op is a CAS.
    pub const CAS: u64 = 4;

    /// CLOSE aux: outcome code for an [`OpOutcome`].
    pub fn outcome_code(o: OpOutcome) -> u64 {
        match o {
            OpOutcome::Hit => 1,
            OpOutcome::Miss => 2,
            OpOutcome::Done => 3,
            OpOutcome::Superseded => 4,
            OpOutcome::Error => 5,
        }
    }
}

/// Pack (op, attempt, phase) into a sub-op tag.
fn sub_tag(op_id: u64, attempt: u64, phase: u8) -> u64 {
    (op_id << 10) | ((attempt & 0xFF) << 2) | phase as u64
}

fn split_tag(tag: u64) -> (u64, u64, u8) {
    (tag >> 10, (tag >> 2) & 0xFF, (tag & 0b11) as u8)
}

impl Node for ClientNode {
    fn on_event(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
        match ev {
            Event::Start => {
                self.mids = Some(ClientMetricIds::resolve(ctx.metrics()));
                self.pool = ctx.pool();
                self.calls.set_pool(self.pool.clone());
                self.rma.set_pool(self.pool.clone());
                self.refresh_config(ctx);
                self.schedule_next(ctx);
                if let Some(interval) = self.cfg.access_flush {
                    let tok = self.work.defer(Work::AccessFlush);
                    ctx.set_timer(interval, tok);
                }
            }
            Event::Frame(frame) => {
                if let Some(env) = rma::decode(frame.payload.clone()) {
                    if let Some(done) = self.rma.complete(env, ctx.now()) {
                        self.on_rma_completion(ctx, done);
                    }
                    return;
                }
                if let Some(rpc::Envelope::Response(resp)) = rpc::decode(frame.payload) {
                    if let Some(done) = self.calls.complete(resp, ctx.now()) {
                        self.on_rpc_completion(ctx, done);
                    }
                }
            }
            Event::Timer(token) | Event::CpuDone(token) => {
                if let Some(work) = self.work.take(token) {
                    match work {
                        Work::NextOp => self.schedule_next(ctx),
                        Work::Start(op) => self.start_op(ctx, op),
                        Work::Retry(op) => self.retry_op(ctx, op),
                        Work::AccessFlush => self.flush_access_records(ctx),
                        Work::SendWire(dst, wire, trace) => ctx.send_traced(dst, wire, trace),
                        Work::IssueAttempt(op) => self.do_issue_attempt(ctx, op),
                    }
                } else if let Some(rma_id) = RmaOpTable::op_of_timer(token) {
                    if let Some(op) = self.rma.expire(rma_id) {
                        ctx.metrics().add_id(self.m().rma_timeouts, 1);
                        if let Some(ctl) = self.adaptive.as_mut() {
                            ctl.record_timeout(op.dst.0, adaptive::Path::Rma);
                        }
                        if op.user_tag & BATCH_TAG_BIT != 0 {
                            // A lost batch frame fails every member's vote
                            // from this replica; retries go unbatched.
                            if let Some(subs) = self.rma_batches.remove(&op.user_tag) {
                                for tag in subs {
                                    let (op_id, attempt, _) = split_tag(tag);
                                    if self.ops.contains_key(&op_id) {
                                        let trace = self.trace_of(ctx, op_id);
                                        ctx.trace_interval(
                                            trace,
                                            simnet::obs::stage::RETRY,
                                            op.issued_at,
                                            ctx.now(),
                                        );
                                    }
                                    self.record_vote(ctx, op_id, attempt, op.dst, Vote::Failed);
                                }
                            }
                            return;
                        }
                        let (op_id, attempt, _) = split_tag(op.user_tag);
                        // The op stalled from issue to expiry on this
                        // sub-op; charge it to the retry tier (only if the
                        // op is still live — a late expiry after quorum
                        // completion attributes nothing).
                        if self.ops.contains_key(&op_id) {
                            let trace = self.trace_of(ctx, op_id);
                            ctx.trace_interval(
                                trace,
                                simnet::obs::stage::RETRY,
                                op.issued_at,
                                ctx.now(),
                            );
                        }
                        self.record_vote(ctx, op_id, attempt, op.dst, Vote::Failed);
                    }
                } else if let Some(call_id) = CallTable::call_of_timer(token) {
                    if let Some(call) = self.calls.expire(call_id) {
                        ctx.metrics().add_id(self.m().rpc_timeouts, 1);
                        match call.user_tag {
                            CONFIG_TAG => {
                                self.config_refreshing = false;
                                self.refresh_config(ctx);
                            }
                            CONNECT_TAG => {
                                self.connecting.remove(&call.dst);
                                // A dead backend: refresh config in case the
                                // cell moved the shard.
                                self.refresh_config(ctx);
                            }
                            IGNORE_TAG => {}
                            tag if tag & BATCH_TAG_BIT != 0 => {
                                // A lost batched RPC frame: every member
                                // gets the same verdict a lost single call
                                // would have produced.
                                if let Some(ctl) = self.adaptive.as_mut() {
                                    ctl.record_timeout(call.dst.0, adaptive::Path::Rpc);
                                }
                                if let Some(batch) = self.rpc_batches.remove(&tag) {
                                    let mutation = batch.mutation;
                                    for sub in batch.subs {
                                        let (op_id, attempt, _) = split_tag(sub);
                                        if self.ops.contains_key(&op_id) {
                                            let trace = self.trace_of(ctx, op_id);
                                            ctx.trace_interval(
                                                trace,
                                                simnet::obs::stage::RETRY,
                                                call.issued_at,
                                                ctx.now(),
                                            );
                                        }
                                        if mutation {
                                            self.on_mutation_response(
                                                ctx,
                                                op_id,
                                                attempt,
                                                Status::Internal,
                                                call.dst,
                                            );
                                        } else if let Some(OpState::Get(g)) = self.ops.get(&op_id) {
                                            if g.attempt == attempt {
                                                self.fail_attempt(
                                                    ctx,
                                                    op_id,
                                                    RetryReason::MsgTimeout,
                                                );
                                            }
                                        }
                                    }
                                }
                            }
                            tag => {
                                let (op_id, attempt, phase) = split_tag(tag);
                                if let Some(ctl) = self.adaptive.as_mut() {
                                    ctl.record_timeout(call.dst.0, adaptive::Path::Rpc);
                                }
                                if self.ops.contains_key(&op_id) {
                                    let trace = self.trace_of(ctx, op_id);
                                    ctx.trace_interval(
                                        trace,
                                        simnet::obs::stage::RETRY,
                                        call.issued_at,
                                        ctx.now(),
                                    );
                                }
                                match self.ops.get(&op_id) {
                                    Some(OpState::Mutation(_)) => self.on_mutation_response(
                                        ctx,
                                        op_id,
                                        attempt,
                                        Status::Internal,
                                        call.dst,
                                    ),
                                    Some(OpState::Get(_)) if phase == 0 => {
                                        // MSG lookup timeout.
                                        self.fail_attempt(ctx, op_id, RetryReason::MsgTimeout);
                                    }
                                    Some(OpState::Get(_)) => {
                                        self.fail_attempt(ctx, op_id, RetryReason::FallbackTimeout);
                                    }
                                    _ => {}
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    fn label(&self) -> String {
        format!("client[{}]", self.cfg.client_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_tag_roundtrip() {
        for op in [1u64, 255, 1 << 20, (1 << 40) - 1] {
            for attempt in [1u64, 7, 255] {
                for phase in [0u8, 1, 2] {
                    let tag = sub_tag(op, attempt, phase);
                    assert_eq!(split_tag(tag), (op, attempt, phase));
                }
            }
        }
    }

    #[test]
    fn attempt_wraps_at_256_without_op_collision() {
        let a = sub_tag(5, 256, 0);
        let b = sub_tag(5, 0, 0);
        assert_eq!(a, b, "attempt is mod-256 by design");
        assert_ne!(sub_tag(5, 1, 0), sub_tag(6, 1, 0));
    }

    #[test]
    fn control_tags_outside_sub_tag_space() {
        // Reserved control tags must never collide with op tags for any
        // plausible op id.
        for tag in [CONFIG_TAG, CONNECT_TAG, IGNORE_TAG] {
            let (op, _, _) = split_tag(tag);
            assert!(op > (1 << 50), "control tag decodes to plausible op {op}");
        }
    }

    #[test]
    fn default_cfg_is_sane() {
        let cfg = ClientCfg::default();
        assert!(cfg.prefer_first_responder);
        assert!(cfg.max_in_flight > 0);
        assert!(cfg.retry.max_attempts > 1);
        assert_eq!(cfg.strategy, LookupStrategy::TwoR);
    }
}
