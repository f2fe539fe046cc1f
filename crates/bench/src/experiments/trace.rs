//! Trace: per-op latency attribution over the chaos timeline.
//!
//! Runs the same deterministic fault schedule as the `chaos` experiment
//! with the flight recorder enabled, and reports *where the time went*:
//! each 10ms window's completed ops are drained from the recorder,
//! attributed across the stage taxonomy (client CPU, serialization,
//! fabric, queueing, engine occupancy, server CPU, retry backoff), and
//! rolled into per-stage quantile sketches. Every window also gets a
//! slow-op postmortem — the K worst ops with their dominant stage and
//! fault-plan context — and a verdict line: what ate the tail.
//!
//! The acceptance invariant (per-stage nanoseconds partition each op's
//! end-to-end window exactly) is asserted for every drained op, and the
//! gray-failure window's verdict must implicate the CPU-dead host by id —
//! even though quorum ops complete *around* the frozen replica, the MARK
//! annotations stamped at sub-op issue time name it.
//!
//! The worst ops' full traces are exported as Chrome trace-event JSON
//! (`trace_chrome.json` beside the CSVs with `figures --csv DIR`, else in
//! `results/` when run from the workspace root; load it in
//! `chrome://tracing` or Perfetto).

use obs::event::stage;
use obs::{attribute, Attribution, OpTrace, Postmortem, Sketch, Verdict};
use simnet::{SimDuration, SimTime};

use crate::experiments::chaos::{chaos_cell, MARKS};
use crate::harness::Report;

/// Slow ops kept per window (postmortem depth and Chrome export corpus).
pub const WORST_K: usize = 3;

/// One window's attribution rollup.
pub struct TraceWindow {
    /// Window end, milliseconds.
    pub t_ms: u64,
    /// Ops completed (drained) in the window.
    pub ops: usize,
    /// End-to-end latency sketch for the window.
    pub e2e: Sketch,
    /// Total nanoseconds charged to each stage across the window's ops.
    pub stage_ns: [u64; stage::COUNT],
    /// The window's diagnosis.
    pub verdict: Verdict,
    /// Rendered postmortem lines for the K worst ops.
    pub postmortem: Vec<String>,
}

/// The whole traced run.
pub struct TraceRun {
    /// Per-window rollups.
    pub windows: Vec<TraceWindow>,
    /// Per-stage sketches over per-op stage time (nonzero components only,
    /// so quantiles describe ops that actually touched the stage).
    pub stage_sketch: Vec<Sketch>,
    /// Full traces of each window's worst ops (Chrome export corpus).
    pub slow: Vec<OpTrace>,
    /// Total ops drained.
    pub traced_ops: u64,
    /// Total events across drained traces.
    pub events: u64,
}

/// Run the chaos schedule with tracing on and attribute every op.
pub fn collect(seed: u64, total: SimDuration) -> TraceRun {
    let mut cell = chaos_cell(seed);
    cell.sim.enable_tracing();
    let window = SimDuration::from_millis(10);
    let windows = total.nanos() / window.nanos();
    let mut out = TraceRun {
        windows: Vec::new(),
        stage_sketch: (0..stage::COUNT).map(|_| Sketch::default()).collect(),
        slow: Vec::new(),
        traced_ops: 0,
        events: 0,
    };
    for w in 0..windows {
        let end = SimTime((w + 1) * window.nanos());
        cell.sim.run_until(end);
        let traces = cell.sim.drain_traces();
        let attrs: Vec<Attribution> = traces.iter().map(attribute).collect();
        let mut e2e = Sketch::default();
        let mut stage_ns = [0u64; stage::COUNT];
        for a in &attrs {
            // The acceptance invariant: attribution partitions the op's
            // end-to-end window exactly — no time invented, none lost.
            assert_eq!(
                a.stages.iter().sum::<u64>(),
                a.e2e,
                "attribution must partition trace {:#x}",
                a.trace
            );
            e2e.record(a.e2e);
            for (s, &ns) in a.stages.iter().enumerate() {
                stage_ns[s] += ns;
                if ns > 0 {
                    out.stage_sketch[s].record(ns);
                }
            }
        }
        let t_ms = (w + 1) * window.nanos() / 1_000_000;
        let pm = Postmortem::build(&attrs, WORST_K);
        for op in &pm.worst {
            if let Some(t) = traces.iter().find(|t| t.trace == op.trace) {
                out.slow.push(t.clone());
            }
        }
        out.traced_ops += traces.len() as u64;
        out.events += traces.iter().map(|t| t.events.len() as u64).sum::<u64>();
        out.windows.push(TraceWindow {
            t_ms,
            ops: traces.len(),
            e2e,
            stage_ns,
            verdict: pm.verdict(),
            postmortem: pm.render(&format!("w{t_ms} ")),
        });
    }
    out
}

/// Render a collected run as the figure report.
pub fn render(tr: &TraceRun) -> Report {
    let mut report = Report::new(
        "trace",
        "Per-op latency attribution and slow-op postmortems over the chaos schedule",
    );
    report.line(
        "plan: loss=30-55ms partition=80-105ms straggler=130-155ms \
         cpu_dead=180-205ms crash=230ms restart=255ms"
            .to_string(),
    );
    report.line(format!(
        "{:>6} {:>7} {:>10} {:>10} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>20} {:>9}",
        "t_ms",
        "ops",
        "e2e_p50us",
        "e2e_p99us",
        "client%",
        "ser%",
        "fabric%",
        "queue%",
        "engine%",
        "server%",
        "retry%",
        "verdict",
        "event"
    ));
    for w in &tr.windows {
        let total: u64 = w.stage_ns.iter().sum();
        let pct = |s: u8| {
            if total == 0 {
                0.0
            } else {
                100.0 * w.stage_ns[s as usize] as f64 / total as f64
            }
        };
        let event = MARKS
            .iter()
            .find(|(t, _)| *t + 10 > w.t_ms && *t <= w.t_ms)
            .map(|(_, e)| *e)
            .unwrap_or("-");
        report.line(format!(
            "{:>6} {:>7} {:>10.1} {:>10.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>20} {:>9}",
            w.t_ms,
            w.ops,
            w.e2e.percentile(50.0) as f64 / 1e3,
            w.e2e.percentile(99.0) as f64 / 1e3,
            pct(stage::CLIENT_CPU),
            pct(stage::SER),
            pct(stage::FABRIC),
            pct(stage::QUEUE),
            pct(stage::ENGINE),
            pct(stage::SERVER_CPU),
            pct(stage::RETRY),
            w.verdict.label(),
            event
        ));
        for l in &w.postmortem {
            report.line(l.clone());
        }
    }
    // Only stages that actually absorbed time get a line — keeps the
    // committed CSV stable as the taxonomy grows (e.g. WAL stays silent in
    // this durability-off cell).
    for (s, sk) in tr
        .stage_sketch
        .iter()
        .enumerate()
        .filter(|(_, sk)| sk.count() > 0)
    {
        report.line(format!(
            "stage={} ops={} p50_us={:.1} p99_us={:.1}",
            stage::name(s as u8),
            sk.count(),
            sk.percentile(50.0) as f64 / 1e3,
            sk.percentile(99.0) as f64 / 1e3,
        ));
    }
    report.line(format!(
        "traced_ops={} events={} chrome_slow_ops={}",
        tr.traced_ops,
        tr.events,
        tr.slow.len()
    ));
    report
}

/// Regenerate the trace figure, with the slow ops' Chrome trace
/// (`chrome://tracing` / Perfetto) attached as `trace_chrome.json`.
pub fn run() -> Report {
    let tr = collect(99, SimDuration::from_millis(340));
    let mut report = render(&tr);
    let json = obs::chrome_trace_json(&tr.slow);
    report.files.push(("trace_chrome.json".to_string(), json));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drain-and-dump a short traced prefix of the chaos run.
    fn dump_for(seed: u64, ms: u64) -> String {
        let mut cell = chaos_cell(seed);
        cell.sim.enable_tracing();
        let mut out = String::new();
        for w in 0..ms / 10 {
            cell.sim.run_until(SimTime((w + 1) * 10_000_000));
            out.push_str(&obs::dump(&cell.sim.drain_traces()));
        }
        out
    }

    /// Two runs with the same seed must produce bit-identical traces: the
    /// recorder draws no randomness and never perturbs the schedule.
    #[test]
    fn traces_are_deterministic() {
        let a = dump_for(99, 60);
        let b = dump_for(99, 60);
        assert!(!a.is_empty(), "no traces drained");
        assert_eq!(obs::fnv1a(a.as_bytes()), obs::fnv1a(b.as_bytes()));
    }

    /// The full attributed run: every op partitions exactly (asserted
    /// inside [`collect`]), the gray-failure window's postmortem names the
    /// CPU-dead host, and quiet windows don't.
    #[test]
    fn gray_window_postmortem_names_server_cpu_death() {
        let tr = collect(99, SimDuration::from_millis(340));
        let r = render(&tr);
        assert_eq!(tr.windows.len(), 34, "34 windows of 10ms");
        assert!(tr.traced_ops > 10_000, "tracing missed the workload");
        // The CPU-dead window (180–205ms): verdicts must implicate the
        // frozen host by id, from the MARKs stamped at sub-op issue.
        let victim = chaos_cell(99).backend_hosts[2].0;
        let dead: Vec<_> = tr
            .windows
            .iter()
            .filter(|w| w.t_ms > 180 && w.t_ms <= 205)
            .collect();
        assert!(!dead.is_empty());
        for w in &dead {
            assert_eq!(
                w.verdict.label(),
                format!("server_cpu_dead:h{victim}"),
                "window {} misdiagnosed",
                w.t_ms
            );
        }
        // Pre-fault windows: nothing to implicate.
        for w in tr.windows.iter().filter(|w| w.t_ms <= 30) {
            assert!(
                !w.verdict.label().starts_with("server_cpu_dead"),
                "window {} blamed a healthy host: {}",
                w.t_ms,
                w.verdict.label()
            );
        }
        // The retry tier shows up in the loss window's attribution mix.
        let loss = tr.windows.iter().find(|w| w.t_ms == 50).unwrap();
        let pre = tr.windows.iter().find(|w| w.t_ms == 20).unwrap();
        let share = |w: &TraceWindow| {
            let total: u64 = w.stage_ns.iter().sum();
            w.stage_ns[stage::RETRY as usize] as f64 / total.max(1) as f64
        };
        assert!(
            share(loss) > share(pre),
            "30% loss should grow the retry share: pre {:.4} loss {:.4}",
            share(pre),
            share(loss)
        );
        // Rendered report: one row per window plus postmortem annotations.
        let rows = r
            .lines
            .iter()
            .filter(|l| {
                l.split_whitespace()
                    .next()
                    .and_then(|c| c.parse::<u64>().ok())
                    .is_some()
            })
            .count();
        assert_eq!(rows, 34);
        assert!(r.lines.iter().any(|l| l.starts_with("w200 trace=")));
    }
}
