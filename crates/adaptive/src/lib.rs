//! # adaptive — per-client dataplane controller
//!
//! A control plane over the CliqueMap dataplane: each client owns one
//! [`Controller`] that (a) picks the wire strategy (2xR / SCAR / MSG /
//! RPC) **per op** from cheap online signals, and (b) demotes gray-failed
//! replicas out of the routing set until probes prove them healthy again.
//!
//! ## Signals
//!
//! * per-(strategy × batch-class) EWMA of end-to-end latency and client
//!   CPU per op, plus a streaming [`obs::Sketch`] whose [`obs::Tap`]
//!   answers p99 without cloning buckets;
//! * observed remote engine admission delay (EWMA), a congestion penalty
//!   charged only to the RMA strategies that contend for the engine;
//! * SLO burn rate ([`obs::BurnRate`]) over a decaying breach window;
//! * per-replica consecutive-timeout counters and externally supplied
//!   health hints (postmortem verdicts like `server_cpu_dead:h3`).
//!
//! ## Decision rule
//!
//! Exploit: pick the strategy minimizing `latency + cpu + engine_penalty`
//! for the op's batch class, where `latency` is the EWMA normally and the
//! sketch p99 while the SLO burn rate exceeds 1 (tail-aware mode). An
//! unvisited arm scores 0, so every arm is tried once before the scores
//! mean anything. Explore: with probability `1/epsilon_inv` (suppressed
//! while burning), pick uniformly — the trickle that keeps stale arms
//! fresh after a regime change. Hysteresis comes from the EWMA horizon
//! (`ewma_shift`) and the demote/promote counters, not from explicit
//! cooldown timers.
//!
//! ## Determinism
//!
//! The controller draws randomness only from its own splitmix64 stream,
//! seeded once at construction (the cell forks it off the sim RNG only
//! when the knob is on — zero draws when disabled, mirroring the fault
//! and obs layers). Every other input is simulation state, so two seeded
//! runs produce identical choice streams — [`Controller::choice_hash`]
//! fingerprints the stream for the determinism suite.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::BTreeMap;

use obs::{BurnRate, Sketch};

/// The four CliqueMap access strategies the controller arbitrates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Two-sided-free RMA: index read then data read (2 RTT lower bound).
    TwoR,
    /// Single-RTT speculative combined read per replica.
    Scar,
    /// One-sided-assisted message lookup (cheap CPU proxy for RPC).
    Msg,
    /// Full RPC lookup.
    Rpc,
}

impl Strategy {
    /// All strategies in canonical (tie-break) order.
    pub const ALL: [Strategy; 4] = [Strategy::TwoR, Strategy::Scar, Strategy::Msg, Strategy::Rpc];

    /// Dense index for per-strategy tables.
    pub fn index(self) -> usize {
        match self {
            Strategy::TwoR => 0,
            Strategy::Scar => 1,
            Strategy::Msg => 2,
            Strategy::Rpc => 3,
        }
    }

    /// Short figure-column name.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::TwoR => "2xR",
            Strategy::Scar => "scar",
            Strategy::Msg => "msg",
            Strategy::Rpc => "rpc",
        }
    }
}

/// Controller tuning knobs. The defaults are the constants documented in
/// DESIGN.md §12; experiments override only `slo_ns`/`slo_budget`.
#[derive(Debug, Clone)]
pub struct ControllerCfg {
    /// Explore with probability `1/epsilon_inv` per decision (0 disables
    /// exploration entirely). Kept rare — < 1% of ops — so exploration
    /// can never move the p99.
    pub epsilon_inv: u64,
    /// EWMA horizon: `ewma += (v - ewma) >> ewma_shift`. Larger = more
    /// hysteresis.
    pub ewma_shift: u32,
    /// GET latency SLO threshold (ns); breaches feed the burn rate.
    pub slo_ns: u64,
    /// Allowed breach fraction (the burn-rate denominator).
    pub slo_budget: f64,
    /// Demote a replica after this many *consecutive* timeouts.
    pub demote_after: u32,
    /// Promote a demoted replica after this many successful probes.
    pub promote_after: u32,
    /// Every `probe_period`-th routing decision lets one demoted replica
    /// through so it can prove recovery (0 disables probing).
    pub probe_period: u64,
}

impl Default for ControllerCfg {
    fn default() -> ControllerCfg {
        ControllerCfg {
            epsilon_inv: 128,
            ewma_shift: 3,
            slo_ns: 20_000,
            slo_budget: 0.01,
            demote_after: 3,
            promote_after: 2,
            probe_period: 64,
        }
    }
}

/// Decay the burn window once it reaches this many ops (keeps the burn
/// rate recent without a time base).
const BURN_WINDOW_OPS: u64 = 4096;

/// Which wire path a health signal travelled. Gray failure is precisely
/// the *divergence* of these two: a CPU-dead host under a hardware
/// transport still serves RMA reads while its RPC/message path is dark.
/// Health is therefore tracked per path — an RMA success must never
/// re-promote a replica whose RPC path is the one that failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// One-sided RMA ops: 2xR index/data reads and SCAR scans.
    Rma,
    /// CPU-served ops: MSG and RPC lookups, and all mutations.
    Rpc,
}

impl Path {
    fn index(self) -> usize {
        match self {
            Path::Rma => 0,
            Path::Rpc => 1,
        }
    }

    fn bit(self) -> u8 {
        1 << self.index()
    }
}

/// One (strategy × batch-class) bandit arm.
#[derive(Debug, Clone, Default)]
struct Arm {
    ewma_lat: u64,
    ewma_cpu: u64,
    sketch: Sketch,
    n: u64,
}

fn ewma_update(ewma: &mut u64, v: u64, shift: u32, first: bool) {
    if first {
        *ewma = v;
    } else if v >= *ewma {
        *ewma += (v - *ewma) >> shift;
    } else {
        *ewma -= (*ewma - v) >> shift;
    }
}

/// Per-replica health record. `broken` is a bitmask of [`Path`]s whose
/// consecutive-timeout streak crossed the demotion threshold (or that a
/// hint named); probe successes count only when they arrive on a broken
/// path, because a healthy path proves nothing about the failed one.
#[derive(Debug, Clone, Copy, Default)]
struct Health {
    consecutive_timeouts: [u32; 2],
    broken: u8,
    probe_successes: u32,
}

/// The per-client adaptive controller.
#[derive(Debug, Clone)]
pub struct Controller {
    cfg: ControllerCfg,
    rng: u64,
    /// `arms[batched as usize][strategy.index()]`.
    arms: [[Arm; 4]; 2],
    /// Bit `Strategy::index()` set = the arm may be chosen. The client
    /// clears arms its transport cannot serve (SCAR off Pony Express).
    arm_mask: u8,
    engine_ewma: u64,
    engine_n: u64,
    burn: BurnRate,
    window_ops: u64,
    window_breaches: u64,
    health: BTreeMap<u32, Health>,
    decisions: u64,
    route_calls: u64,
    choice_hash: u64,
    choice_counts: [u64; 4],
    explored: u64,
    demotions: u64,
    probes: u64,
}

impl Controller {
    /// A controller with the given knobs, seeded from the sim RNG fork.
    pub fn new(cfg: ControllerCfg, seed: u64) -> Controller {
        let burn = BurnRate::new(cfg.slo_budget);
        Controller {
            cfg,
            rng: seed,
            arms: Default::default(),
            arm_mask: 0b1111,
            engine_ewma: 0,
            engine_n: 0,
            burn,
            window_ops: 0,
            window_breaches: 0,
            health: BTreeMap::new(),
            decisions: 0,
            route_calls: 0,
            choice_hash: 0xcbf2_9ce4_8422_2325,
            choice_counts: [0; 4],
            explored: 0,
            demotions: 0,
            probes: 0,
        }
    }

    fn next_rng(&mut self) -> u64 {
        // splitmix64 — the same generator simnet forks for its layers.
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn hash_choice(&mut self, s: Strategy) {
        // Incremental FNV-1a over (decision index, strategy index) — the
        // determinism fingerprint.
        for b in self
            .decisions
            .to_le_bytes()
            .into_iter()
            .chain((s.index() as u64).to_le_bytes())
        {
            self.choice_hash ^= b as u64;
            self.choice_hash = self.choice_hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn score(&self, batched: bool, s: Strategy, tail_mode: bool) -> u64 {
        let arm = &self.arms[batched as usize][s.index()];
        if arm.n == 0 {
            return 0; // unvisited arms win ties → initial sweep
        }
        let lat = if tail_mode {
            arm.sketch.tap().p99
        } else {
            arm.ewma_lat
        };
        // Engine admission delay only taxes the strategies that occupy the
        // remote Pony engine.
        let penalty = match s {
            Strategy::TwoR | Strategy::Scar => self.engine_ewma,
            Strategy::Msg | Strategy::Rpc => 0,
        };
        lat.saturating_add(arm.ewma_cpu).saturating_add(penalty)
    }

    /// Disable (or re-enable) one arm. The client calls this once at
    /// construction for ops its transport cannot serve — e.g. SCAR needs
    /// the programmable Pony Express NIC, so an RDMA client masks it out
    /// rather than learning the hard way that every SCAR op bounces with
    /// `Unsupported`. Refuses to disable the last enabled arm.
    pub fn set_arm_enabled(&mut self, s: Strategy, enabled: bool) {
        let bit = 1u8 << s.index();
        if enabled {
            self.arm_mask |= bit;
        } else if self.arm_mask & !bit != 0 {
            self.arm_mask &= !bit;
        }
    }

    fn arm_enabled(&self, s: Strategy) -> bool {
        self.arm_mask & (1 << s.index()) != 0
    }

    /// Pick the strategy for the next op (`batched` = part of a MultiGet
    /// container). Feeds the choice fingerprint.
    pub fn choose(&mut self, batched: bool) -> Strategy {
        self.decisions += 1;
        let tail_mode = self.burn_rate() > 1.0;
        let explore = !tail_mode
            && self.cfg.epsilon_inv > 0
            && self.next_rng().is_multiple_of(self.cfg.epsilon_inv);
        let s = if explore {
            self.explored += 1;
            let mut opts = [Strategy::TwoR; 4];
            let mut n = 0usize;
            for cand in Strategy::ALL {
                if self.arm_enabled(cand) {
                    opts[n] = cand;
                    n += 1;
                }
            }
            opts[(self.next_rng() % n as u64) as usize]
        } else {
            let mut best = None;
            let mut best_score = u64::MAX;
            for cand in Strategy::ALL {
                if !self.arm_enabled(cand) {
                    continue;
                }
                let score = self.score(batched, cand, tail_mode);
                if best.is_none() || score < best_score {
                    best_score = score;
                    best = Some(cand);
                }
            }
            best.unwrap_or(Strategy::TwoR)
        };
        self.hash_choice(s);
        self.choice_counts[s.index()] += 1;
        s
    }

    /// Feed one completed GET back into the arm it was served by.
    pub fn observe(&mut self, s: Strategy, batched: bool, latency_ns: u64, cpu_ns: u64) {
        let shift = self.cfg.ewma_shift;
        let arm = &mut self.arms[batched as usize][s.index()];
        let first = arm.n == 0;
        ewma_update(&mut arm.ewma_lat, latency_ns, shift, first);
        ewma_update(&mut arm.ewma_cpu, cpu_ns, shift, first);
        arm.sketch.record(latency_ns);
        arm.n += 1;
        self.window_ops += 1;
        if latency_ns > self.cfg.slo_ns {
            self.window_breaches += 1;
        }
        if self.window_ops >= BURN_WINDOW_OPS {
            // Halve the window so the burn rate tracks the recent regime.
            self.window_ops >>= 1;
            self.window_breaches >>= 1;
        }
    }

    /// Feed an observed remote engine admission delay (how long a doorbell
    /// waited before the engine started serving it).
    pub fn observe_engine(&mut self, delay_ns: u64) {
        let first = self.engine_n == 0;
        ewma_update(&mut self.engine_ewma, delay_ns, self.cfg.ewma_shift, first);
        self.engine_n += 1;
    }

    /// Current SLO burn rate over the decaying window.
    pub fn burn_rate(&self) -> f64 {
        self.burn.rate(self.window_ops, self.window_breaches)
    }

    /// A request to `replica` over `path` timed out.
    pub fn record_timeout(&mut self, replica: u32, path: Path) {
        let demote_after = self.cfg.demote_after;
        let h = self.health.entry(replica).or_default();
        h.consecutive_timeouts[path.index()] += 1;
        if h.consecutive_timeouts[path.index()] >= demote_after && h.broken & path.bit() == 0 {
            if h.broken == 0 {
                self.demotions += 1;
                h.probe_successes = 0;
            }
            h.broken |= path.bit();
        }
    }

    /// A request to `replica` over `path` succeeded. Resets that path's
    /// timeout streak; counts toward probe-based promotion only when it is
    /// the *broken* path answering — an RMA read served by a CPU-dead
    /// host's NIC says nothing about its dark RPC path (the gray-failure
    /// divergence this whole module exists for).
    pub fn record_success(&mut self, replica: u32, path: Path) {
        let promote_after = self.cfg.promote_after;
        let Some(h) = self.health.get_mut(&replica) else {
            return;
        };
        h.consecutive_timeouts[path.index()] = 0;
        if h.broken & path.bit() != 0 {
            h.probe_successes += 1;
            if h.probe_successes >= promote_after {
                *h = Health::default();
            }
        }
    }

    /// External health hint (a postmortem verdict naming the host, e.g.
    /// `server_cpu_dead:h3`): demote the CPU-served path immediately,
    /// recover through the normal probe path. The RMA path is left alone —
    /// a dead CPU's NIC keeps serving one-sided reads, and routing those
    /// away would throw capacity at a path that never failed.
    pub fn hint_unhealthy(&mut self, replica: u32) {
        let h = self.health.entry(replica).or_default();
        if h.broken & Path::Rpc.bit() == 0 {
            if h.broken == 0 {
                self.demotions += 1;
                h.probe_successes = 0;
            }
            h.broken |= Path::Rpc.bit();
        }
    }

    /// Whether `replica` is currently demoted on *any* path.
    pub fn is_demoted(&self, replica: u32) -> bool {
        self.health
            .get(&replica)
            .map(|h| h.broken != 0)
            .unwrap_or(false)
    }

    /// Whether `replica` is currently demoted on `path`.
    pub fn is_demoted_on(&self, replica: u32, path: Path) -> bool {
        self.health
            .get(&replica)
            .map(|h| h.broken & path.bit() != 0)
            .unwrap_or(false)
    }

    /// Bitmask of `candidates` to *skip* for an attempt over `path`.
    /// Invariants: survivors never drop below `min(floor,
    /// candidates.len())` (the quorum safety floor), and every
    /// `probe_period`-th call passes one demoted replica through so it can
    /// earn promotion. Only `path`-broken replicas are skipped: a replica
    /// whose RPC path is dark still serves RMA reads.
    pub fn skip_mask(&mut self, candidates: &[u32], floor: usize, path: Path) -> u64 {
        debug_assert!(candidates.len() <= 64);
        self.route_calls += 1;
        let probing =
            self.cfg.probe_period > 0 && self.route_calls.is_multiple_of(self.cfg.probe_period);
        let mut mask = 0u64;
        let mut skipped = 0usize;
        let mut probed = false;
        for (i, &r) in candidates.iter().enumerate() {
            if self.is_demoted_on(r, path) {
                if probing && !probed {
                    probed = true;
                    self.probes += 1;
                    continue;
                }
                mask |= 1 << i;
                skipped += 1;
            }
        }
        // Safety floor: un-skip from the front until enough survive.
        let floor = floor.min(candidates.len());
        let mut survivors = candidates.len() - skipped;
        for i in 0..candidates.len() {
            if survivors >= floor {
                break;
            }
            if mask & (1 << i) != 0 {
                mask &= !(1 << i);
                survivors += 1;
            }
        }
        mask
    }

    /// FNV-1a fingerprint of the full (decision index, choice) stream.
    pub fn choice_hash(&self) -> u64 {
        self.choice_hash
    }

    /// Total strategy decisions taken.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Decisions per strategy, indexed by [`Strategy::index`].
    pub fn choice_counts(&self) -> [u64; 4] {
        self.choice_counts
    }

    /// Exploration decisions taken.
    pub fn explored(&self) -> u64 {
        self.explored
    }

    /// Demotion events so far (timeout-triggered + hints).
    pub fn demotions(&self) -> u64 {
        self.demotions
    }

    /// Probe pass-throughs granted to demoted replicas.
    pub fn probes(&self) -> u64 {
        self.probes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctl() -> Controller {
        Controller::new(ControllerCfg::default(), 7)
    }

    #[test]
    fn initial_sweep_visits_every_arm() {
        let mut c = ctl();
        let mut seen = [false; 4];
        for _ in 0..8 {
            let s = c.choose(false);
            seen[s.index()] = true;
            // Feed a latency so the arm stops scoring 0.
            c.observe(s, false, 10_000, 1_000);
        }
        assert_eq!(seen, [true; 4], "each arm must be tried once");
    }

    #[test]
    fn exploits_the_cheapest_arm() {
        let mut c = ctl();
        for s in Strategy::ALL {
            let lat = if s == Strategy::Scar { 5_000 } else { 50_000 };
            for _ in 0..32 {
                c.observe(s, false, lat, 500);
            }
        }
        let wins = (0..100)
            .filter(|_| c.choose(false) == Strategy::Scar)
            .count();
        assert!(wins >= 95, "Scar should dominate, won {wins}/100");
    }

    #[test]
    fn engine_penalty_steers_off_rma() {
        let mut c = ctl();
        for s in Strategy::ALL {
            for _ in 0..32 {
                c.observe(s, false, 10_000, 500);
            }
        }
        // Equal latencies: canonical order picks TwoR.
        assert_eq!(c.choose(false), Strategy::TwoR);
        // A congested remote engine taxes 2xR/SCAR only.
        for _ in 0..32 {
            c.observe_engine(100_000);
        }
        let s = c.choose(false);
        assert!(
            matches!(s, Strategy::Msg | Strategy::Rpc),
            "engine congestion must steer to CPU strategies, got {s:?}"
        );
    }

    #[test]
    fn burn_suppresses_exploration_and_weights_tail() {
        let mut c = Controller::new(
            ControllerCfg {
                epsilon_inv: 2, // explore half the time when calm
                ..ControllerCfg::default()
            },
            1,
        );
        // One arm has a great mean but a horrible tail; the other is flat.
        for _ in 0..99 {
            c.observe(Strategy::TwoR, false, 1_000, 100);
        }
        c.observe(Strategy::TwoR, false, 3_000_000, 100);
        for _ in 0..100 {
            c.observe(Strategy::Msg, false, 12_000, 100);
        }
        for s in [Strategy::Scar, Strategy::Rpc] {
            for _ in 0..100 {
                c.observe(s, false, 40_000, 100);
            }
        }
        // Burn the SLO: >1% of recent ops breached 20µs.
        for _ in 0..40 {
            c.observe(Strategy::TwoR, false, 3_000_000, 100);
        }
        assert!(c.burn_rate() > 1.0);
        let explored_before = c.explored();
        for _ in 0..64 {
            // Tail mode: TwoR's p99 (~3ms) loses to Msg's flat 12µs.
            assert_eq!(c.choose(false), Strategy::Msg);
        }
        assert_eq!(
            c.explored(),
            explored_before,
            "no exploration while burning"
        );
    }

    #[test]
    fn batch_classes_learn_independently() {
        let mut c = ctl();
        for _ in 0..32 {
            c.observe(Strategy::Msg, true, 2_000, 100); // batched: MSG amortizes
            c.observe(Strategy::TwoR, true, 30_000, 100);
            c.observe(Strategy::Msg, false, 30_000, 100); // single: RMA wins
            c.observe(Strategy::TwoR, false, 2_000, 100);
            c.observe(Strategy::Scar, true, 40_000, 100);
            c.observe(Strategy::Scar, false, 40_000, 100);
            c.observe(Strategy::Rpc, true, 40_000, 100);
            c.observe(Strategy::Rpc, false, 40_000, 100);
        }
        let mut c2 = c.clone();
        assert_eq!(c.choose(true), Strategy::Msg);
        assert_eq!(c2.choose(false), Strategy::TwoR);
    }

    #[test]
    fn timeouts_demote_and_probes_promote() {
        let mut c = ctl();
        for _ in 0..3 {
            c.record_timeout(9, Path::Rpc);
        }
        assert!(c.is_demoted(9));
        assert_eq!(c.demotions(), 1);
        // Success streak on the broken path promotes after promote_after.
        c.record_success(9, Path::Rpc);
        assert!(c.is_demoted(9));
        c.record_success(9, Path::Rpc);
        assert!(!c.is_demoted(9));
        // Streak resets on success: 2 timeouts + success + 2 timeouts ≠ demote.
        c.record_timeout(9, Path::Rpc);
        c.record_timeout(9, Path::Rpc);
        c.record_success(9, Path::Rpc);
        c.record_timeout(9, Path::Rpc);
        c.record_timeout(9, Path::Rpc);
        assert!(!c.is_demoted(9));
    }

    #[test]
    fn rma_successes_never_promote_an_rpc_demotion() {
        // The gray-failure churn case: CPU dead, NIC alive. RMA reads keep
        // succeeding against the dead host — they must not re-promote it.
        let mut c = ctl();
        for _ in 0..3 {
            c.record_timeout(9, Path::Rpc);
        }
        assert!(c.is_demoted_on(9, Path::Rpc));
        assert!(!c.is_demoted_on(9, Path::Rma));
        for _ in 0..100 {
            c.record_success(9, Path::Rma);
        }
        assert!(
            c.is_demoted_on(9, Path::Rpc),
            "RMA reads re-promoted a dead CPU"
        );
        // An RPC probe success is the real evidence.
        c.record_success(9, Path::Rpc);
        c.record_success(9, Path::Rpc);
        assert!(!c.is_demoted(9));
        assert_eq!(c.demotions(), 1);
    }

    #[test]
    fn hints_demote_the_rpc_path_only() {
        let mut c = ctl();
        c.hint_unhealthy(4);
        assert!(c.is_demoted(4));
        assert!(c.is_demoted_on(4, Path::Rpc));
        assert!(!c.is_demoted_on(4, Path::Rma));
        c.hint_unhealthy(4); // idempotent
        assert_eq!(c.demotions(), 1);
    }

    #[test]
    fn masked_arms_are_never_chosen() {
        let mut c = Controller::new(
            ControllerCfg {
                epsilon_inv: 2, // explore half the time
                ..ControllerCfg::default()
            },
            5,
        );
        c.set_arm_enabled(Strategy::Scar, false);
        for _ in 0..500 {
            let s = c.choose(false);
            assert_ne!(s, Strategy::Scar, "masked arm chosen");
            c.observe(s, false, 10_000, 1_000);
        }
        assert!(c.explored() > 100, "exploration must still run");
        assert_eq!(c.choice_counts()[Strategy::Scar.index()], 0);
        // The last enabled arm can never be disabled.
        for s in [Strategy::TwoR, Strategy::Msg, Strategy::Rpc] {
            c.set_arm_enabled(s, false);
        }
        assert_eq!(c.choose(false), Strategy::Rpc);
    }

    #[test]
    fn skip_mask_respects_floor_and_probes() {
        let mut c = ctl();
        c.hint_unhealthy(1);
        c.hint_unhealthy(2);
        // Floor 2 of 3 candidates: at most one may be skipped.
        let mask = c.skip_mask(&[1, 2, 3], 2, Path::Rpc);
        assert_eq!((mask as u32).count_ones(), 1);
        // The RMA path is not the broken one: nothing skipped.
        assert_eq!(c.skip_mask(&[1, 2, 3], 2, Path::Rma), 0);
        // Floor above len clamps to len: nothing skipped.
        assert_eq!(c.skip_mask(&[1, 2], 5, Path::Rpc), 0);
        // Every probe_period-th call lets one demoted replica through.
        let mut probed = 0;
        for _ in 0..200 {
            let m = c.skip_mask(&[1, 2, 3], 1, Path::Rpc);
            if (m as u32).count_ones() < 2 {
                probed += 1;
            }
        }
        assert!(probed >= 2, "probe pass-throughs must happen, saw {probed}");
    }

    #[test]
    fn choice_streams_are_deterministic() {
        let run = || {
            let mut c = Controller::new(ControllerCfg::default(), 42);
            for i in 0..500u64 {
                let s = c.choose(i % 5 == 0);
                c.observe(s, i % 5 == 0, 8_000 + (i * 37) % 9_000, 700);
            }
            c.choice_hash()
        };
        assert_eq!(run(), run());
        let mut other = Controller::new(ControllerCfg::default(), 43);
        for i in 0..500u64 {
            let s = other.choose(i % 5 == 0);
            other.observe(s, i % 5 == 0, 8_000 + (i * 37) % 9_000, 700);
        }
        assert_ne!(run(), other.choice_hash(), "seed must matter");
    }

    #[test]
    fn counts_add_up() {
        let mut c = ctl();
        for _ in 0..300 {
            let s = c.choose(false);
            c.observe(s, false, 9_000, 500);
        }
        assert_eq!(c.decisions(), 300);
        assert_eq!(c.choice_counts().iter().sum::<u64>(), 300);
    }
}
