//! Simulator-core perf regression harness.
//!
//! Runs fixed-seed macro workloads end to end, reports events/sec and wall
//! time for each, and writes `BENCH_simcore.json` so the repo carries a
//! perf baseline PRs can be held to.
//!
//! ```text
//! cargo run --release -p bench --bin simperf            # run + write BENCH_simcore.json
//! cargo run --release -p bench --bin simperf -- --check # run + compare vs committed
//! cargo run --release -p bench --bin simperf -- --out /tmp/x.json
//! cargo run --release -p bench --features simperf-alloc --bin simperf
//! ```
//!
//! Each workload is run **three times** and the best run (highest
//! events/sec) is reported, so a stray scheduler hiccup on the first rep
//! can't masquerade as a regression. `--check` compares against the
//! committed `BENCH_simcore.json` without overwriting it and exits nonzero
//! if any workload's events/sec dropped by more than 10% — CI runs this so
//! regressions are enforced, not observed. Events-per-second comes from
//! [`simnet::Sim::events_processed`]; the event *counts* are deterministic
//! (same seeds ⇒ same events), so a count change without an intentional
//! simulator change is itself a red flag.
//!
//! With `--features simperf-alloc` a counting global allocator is swapped
//! in and each workload additionally reports heap allocations per event
//! and bytes allocated per event, measured across the run only (cell
//! construction and population are excluded). Allocation counts are
//! deterministic, so `--check` holds them to the committed baseline too:
//! the run fails if allocs/op grow by more than 10% over a baseline that
//! carries them.

use std::time::Instant;

use simnet::SimDuration;

use bench::simcore::{
    ads_cell, batched_cell, cell950, pony_ramp_cell, ADS_SPAN, BATCHED_SPAN, CELL950_SPAN,
    PONY_SPAN,
};
use cliquemap::cell::Cell;

/// Tolerated events/sec drop (and, with `simperf-alloc`, allocs/op growth)
/// vs the committed baseline before `--check` fails the run.
const REGRESSION_TOLERANCE: f64 = 0.10;

/// Best-of-N repetitions per workload.
const REPS: usize = 3;

#[cfg(feature = "simperf-alloc")]
mod counting_alloc {
    //! A global allocator that counts. The bench *library* forbids unsafe,
    //! so the allocator lives here in the binary; the counters are plain
    //! relaxed atomics — cheap enough that we can leave them on the hot
    //! path without distorting what we're measuring.

    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    pub static ALLOCS: AtomicU64 = AtomicU64::new(0);
    pub static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

    pub struct CountingAlloc;

    // SAFETY: defers entirely to `System`; the counter updates are
    // lock-free atomics and cannot reenter the allocator.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            System.alloc(layout)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            // Counted like `alloc`, but forwarded so `System` can hand out
            // fresh (calloc'd) pages untouched: the default implementation
            // would memset them and make every zeroed region resident.
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            System.alloc_zeroed(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            // Count a realloc as one allocation of the grown size: that is
            // what a non-pooled `Vec` push pattern costs.
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;

    /// Snapshot of the counters, for before/after deltas.
    pub fn snapshot() -> (u64, u64) {
        (
            ALLOCS.load(Ordering::Relaxed),
            ALLOC_BYTES.load(Ordering::Relaxed),
        )
    }
}

/// `(allocs, bytes)` since process start; zeros without `simperf-alloc`.
fn alloc_snapshot() -> (u64, u64) {
    #[cfg(feature = "simperf-alloc")]
    {
        counting_alloc::snapshot()
    }
    #[cfg(not(feature = "simperf-alloc"))]
    {
        (0, 0)
    }
}

const ALLOC_COUNTING: bool = cfg!(feature = "simperf-alloc");

struct Sample {
    name: &'static str,
    events: u64,
    wall_s: f64,
    events_per_sec: f64,
    /// Heap allocations per event over the run (0 without `simperf-alloc`).
    allocs_per_op: f64,
    /// Heap bytes allocated per event over the run.
    alloc_bytes_per_op: f64,
    /// High-water mark of queued events in the cell's event queue.
    queue_hwm: u64,
    /// `Pending` boxes sitting in the simulator freelist at end of run —
    /// the steady-state working set the pool is amortizing.
    pool_len: u64,
    /// Peak RSS in bytes while this workload ran (Linux `VmHWM`, reset
    /// before its first rep). The floor is the RSS the process held when
    /// the workload started, which includes heap kept from earlier ones.
    /// It can exceed a fresh process's peak: after the first rep frees its
    /// large regions, glibc raises its mmap threshold, so later reps
    /// `calloc` them from reused heap that must be zeroed by hand, which
    /// makes every page resident. `MALLOC_MMAP_THRESHOLD_=131072` pins
    /// the threshold (cell950: ~240 MiB instead of ~850 MiB).
    peak_rss_bytes: u64,
}

/// One rep's measurements, before best-of selection.
struct Rep {
    events: u64,
    wall_s: f64,
    allocs: u64,
    alloc_bytes: u64,
    queue_hwm: u64,
    pool_len: u64,
}

/// Reset this process's peak RSS (`VmHWM`) to its current RSS, so the next
/// [`peak_rss_bytes`] reading covers only what ran after the reset. A
/// no-op where `/proc/self/clear_refs` is unavailable.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process in bytes (Linux `VmHWM`), or 0
/// when `/proc` is unavailable.
fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

fn run_once(build: fn() -> Cell, sim_span: SimDuration) -> Rep {
    let mut cell = build();
    let events_at_start = cell.sim.events_processed();
    let (allocs0, bytes0) = alloc_snapshot();
    let start = Instant::now();
    cell.run_for(sim_span);
    let wall_s = start.elapsed().as_secs_f64();
    let (allocs1, bytes1) = alloc_snapshot();
    Rep {
        events: cell.sim.events_processed() - events_at_start,
        wall_s,
        allocs: allocs1 - allocs0,
        alloc_bytes: bytes1 - bytes0,
        queue_hwm: cell.sim.queue_high_water() as u64,
        pool_len: cell.sim.pending_pool_len() as u64,
    }
}

/// Best-of-[`REPS`]: the rep with the highest events/sec wins. Events,
/// allocation counts, and queue/pool depths are deterministic across reps;
/// wall time is not.
fn run_workload(name: &'static str, build: fn() -> Cell, sim_span: SimDuration) -> Sample {
    reset_peak_rss();
    let mut best: Option<Rep> = None;
    for i in 0..REPS {
        let rep = run_once(build, sim_span);
        // Progress to stderr (unbuffered): a slow or wedged workload is
        // visible while CI is still running, not only after the fact.
        eprintln!(
            "[simperf] {name} rep {}/{REPS}: {} events in {:.2}s",
            i + 1,
            rep.events,
            rep.wall_s
        );
        let better = match &best {
            Some(b) => rep.wall_s < b.wall_s,
            None => true,
        };
        if better {
            best = Some(rep);
        }
    }
    let rep = best.expect("REPS >= 1");
    Sample {
        name,
        events: rep.events,
        wall_s: rep.wall_s,
        events_per_sec: rep.events as f64 / rep.wall_s.max(1e-9),
        allocs_per_op: rep.allocs as f64 / rep.events.max(1) as f64,
        alloc_bytes_per_op: rep.alloc_bytes as f64 / rep.events.max(1) as f64,
        queue_hwm: rep.queue_hwm,
        pool_len: rep.pool_len,
        peak_rss_bytes: peak_rss_bytes(),
    }
}

fn to_json(samples: &[Sample]) -> String {
    let mut out = String::from("{\n  \"bench\": \"simcore\",\n  \"workloads\": [\n");
    for (i, s) in samples.iter().enumerate() {
        let alloc_fields = if ALLOC_COUNTING {
            format!(
                ", \"allocs_per_op\": {:.3}, \"alloc_bytes_per_op\": {:.1}",
                s.allocs_per_op, s.alloc_bytes_per_op
            )
        } else {
            String::new()
        };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"events\": {}, \"wall_s\": {:.3}, \"events_per_sec\": {:.0}{}, \"queue_hwm\": {}, \"pool_len\": {}, \"peak_rss_bytes\": {}}}{}\n",
            s.name,
            s.events,
            s.wall_s,
            s.events_per_sec,
            alloc_fields,
            s.queue_hwm,
            s.pool_len,
            s.peak_rss_bytes,
            if i + 1 < samples.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

struct BaselineRow {
    name: String,
    events_per_sec: f64,
    allocs_per_op: Option<f64>,
}

/// Pull a `"field": <number>` value out of a single JSON line (no JSON
/// dependency available).
fn field_f64(line: &str, field: &str) -> Option<f64> {
    let tag = format!("\"{field}\": ");
    let at = line.find(&tag)?;
    let txt: String = line[at + tag.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    txt.parse().ok()
}

/// Minimal extraction of per-workload rows from a baseline file previously
/// written by [`to_json`].
fn parse_baseline(text: &str) -> Vec<BaselineRow> {
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(name_at) = line.find("\"name\": \"") else {
            continue;
        };
        let rest = &line[name_at + 9..];
        let Some(name_end) = rest.find('"') else {
            continue;
        };
        let Some(eps) = field_f64(line, "events_per_sec") else {
            continue;
        };
        out.push(BaselineRow {
            name: rest[..name_end].to_string(),
            events_per_sec: eps,
            allocs_per_op: field_f64(line, "allocs_per_op"),
        });
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut check = false;
    let mut out_path = "BENCH_simcore.json".to_string();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--check" => check = true,
            "--out" => out_path = it.next().expect("--out FILE"),
            other => panic!("unknown arg {other:?}; usage: simperf [--check] [--out FILE]"),
        }
    }

    let samples = vec![
        run_workload("ads_week", ads_cell, ADS_SPAN),
        run_workload("pony_ramp", pony_ramp_cell, PONY_SPAN),
        run_workload("ads_batched", batched_cell, BATCHED_SPAN),
        run_workload("cell950", cell950, CELL950_SPAN),
    ];
    let mut total_events = 0u64;
    let mut total_wall = 0f64;
    for s in &samples {
        if ALLOC_COUNTING {
            println!(
                "{:<12} {:>12} events {:>8.2}s wall {:>12.0} events/s {:>8.3} allocs/op {:>8.1} B/op qhwm {} pool {} rss {}MiB",
                s.name, s.events, s.wall_s, s.events_per_sec, s.allocs_per_op,
                s.alloc_bytes_per_op, s.queue_hwm, s.pool_len,
                s.peak_rss_bytes >> 20
            );
        } else {
            println!(
                "{:<12} {:>12} events {:>8.2}s wall {:>12.0} events/s qhwm {} pool {} rss {}MiB",
                s.name,
                s.events,
                s.wall_s,
                s.events_per_sec,
                s.queue_hwm,
                s.pool_len,
                s.peak_rss_bytes >> 20
            );
        }
        total_events += s.events;
        total_wall += s.wall_s;
    }
    println!(
        "{:<12} {:>12} events {:>8.2}s wall {:>12.0} events/s",
        "total",
        total_events,
        total_wall,
        total_events as f64 / total_wall.max(1e-9)
    );

    if check {
        let baseline = std::fs::read_to_string(&out_path)
            .unwrap_or_else(|e| panic!("--check needs baseline {out_path}: {e}"));
        let parsed = parse_baseline(&baseline);
        if parsed.is_empty() {
            // A corrupt or empty baseline must fail loudly, not gate nothing.
            eprintln!("[simperf] baseline {out_path} contains no workloads");
            std::process::exit(1);
        }
        let mut failed = false;
        for row in parsed {
            let Some(s) = samples.iter().find(|s| s.name == row.name) else {
                eprintln!(
                    "[simperf] baseline workload {:?} no longer exists",
                    row.name
                );
                failed = true;
                continue;
            };
            // The committed events/s baseline is measured *without* the
            // counting allocator (see the `simperf-alloc` feature docs);
            // the counter atomics and the extra RSS skew wall time — on
            // alloc-heavy cells like cell950 by several x — so the
            // alloc-counting build gates allocs/op only and reports
            // events/s informationally.
            let ratio = s.events_per_sec / row.events_per_sec;
            if ratio < 1.0 - REGRESSION_TOLERANCE && !ALLOC_COUNTING {
                eprintln!(
                    "[simperf] REGRESSION {}: {:.0} events/s vs baseline {:.0} ({:.1}%)",
                    row.name,
                    s.events_per_sec,
                    row.events_per_sec,
                    (ratio - 1.0) * 100.0
                );
                failed = true;
            } else {
                eprintln!(
                    "[simperf] {} {}: {:.0} events/s vs baseline {:.0} ({:+.1}%)",
                    if ALLOC_COUNTING { "info" } else { "ok" },
                    row.name,
                    s.events_per_sec,
                    row.events_per_sec,
                    (ratio - 1.0) * 100.0
                );
            }
            // Allocation regressions are only gated when this build counts
            // them AND the baseline carries them. The absolute floor keeps
            // a near-zero baseline (pony_ramp rounds to 0.000 allocs/op)
            // gated: measurement dust passes, a real per-op allocation
            // creeping back in does not.
            if let Some(base_allocs) = row.allocs_per_op {
                if ALLOC_COUNTING {
                    let limit = (base_allocs * (1.0 + REGRESSION_TOLERANCE)).max(0.05);
                    if s.allocs_per_op > limit {
                        eprintln!(
                            "[simperf] ALLOC REGRESSION {}: {:.3} allocs/op vs baseline {:.3} (limit {:.3})",
                            row.name, s.allocs_per_op, base_allocs, limit
                        );
                        failed = true;
                    } else {
                        eprintln!(
                            "[simperf] ok {}: {:.3} allocs/op vs baseline {:.3} (limit {:.3})",
                            row.name, s.allocs_per_op, base_allocs, limit
                        );
                    }
                }
            }
        }
        if failed {
            std::process::exit(1);
        }
    } else {
        std::fs::write(&out_path, to_json(&samples)).expect("write bench json");
        eprintln!("[simperf] wrote {out_path}");
    }
}
