//! Regenerate the paper's evaluation figures.
//!
//! ```text
//! cargo run --release -p bench --bin figures -- all
//! cargo run --release -p bench --bin figures -- f7 f11 f15
//! cargo run --release -p bench --bin figures -- --filter f1
//! cargo run --release -p bench --bin figures -- all --jobs 4
//! cargo run --release -p bench --bin figures -- all --csv out/
//! ```
//!
//! `--filter <fig>` selects every known experiment whose id contains the
//! given substring (`--filter f1` runs f10..f19 and f1-prefixed ids), and
//! may be repeated; it composes with explicitly named ids.
//!
//! Extra artifacts an experiment attaches (the trace figure's
//! `trace_chrome.json`) go beside the CSVs with `--csv DIR`; without it
//! they go to `results/` when that directory exists (the workspace root).
//!
//! Experiments are independent, deterministic simulations; `--jobs N` runs
//! them on N threads without changing any result. The default is one job
//! per available core; pass `--jobs 1` for serial runs.

use std::sync::Mutex;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut csv_dir: Option<String> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--jobs" => {
                jobs = it.next().and_then(|v| v.parse().ok()).expect("--jobs N");
            }
            "--csv" => {
                csv_dir = Some(it.next().expect("--csv DIR"));
            }
            "--filter" => {
                let pat = it.next().expect("--filter FIG");
                let matched: Vec<String> = bench::ALL_EXPERIMENTS
                    .iter()
                    .filter(|id| id.contains(&pat))
                    .map(|s| s.to_string())
                    .collect();
                assert!(
                    !matched.is_empty(),
                    "--filter {pat:?} matches no experiment; known: {:?}",
                    bench::ALL_EXPERIMENTS
                );
                ids.extend(matched);
            }
            "--list" => {
                for id in bench::ALL_EXPERIMENTS {
                    println!("{id}");
                }
                return;
            }
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() || ids.iter().any(|a| a == "all") {
        ids = bench::ALL_EXPERIMENTS
            .iter()
            .map(|s| s.to_string())
            .collect();
    }
    // Overlapping filters / explicit ids shouldn't run anything twice.
    let mut seen = std::collections::HashSet::new();
    ids.retain(|id| seen.insert(id.clone()));
    if let Some(dir) = &csv_dir {
        std::fs::create_dir_all(dir).expect("create csv dir");
    }

    let queue: Mutex<Vec<(usize, String)>> =
        Mutex::new(ids.iter().cloned().enumerate().rev().collect());
    let reports: Mutex<Vec<(usize, bench::Report, f64)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..jobs.max(1) {
            scope.spawn(|| loop {
                let next = queue.lock().unwrap().pop();
                let Some((order, id)) = next else { break };
                let start = std::time::Instant::now();
                let report = bench::run_experiment(&id);
                reports
                    .lock()
                    .unwrap()
                    .push((order, report, start.elapsed().as_secs_f64()));
            });
        }
    });
    let files_dir = match &csv_dir {
        Some(dir) => Some(dir.as_str()),
        None => std::path::Path::new("results")
            .is_dir()
            .then_some("results"),
    };
    let mut reports = reports.into_inner().unwrap();
    reports.sort_by_key(|(order, _, _)| *order);
    for (_, report, secs) in &reports {
        report.print();
        eprintln!("[{} took {secs:.1}s]", report.id);
        if let Some(dir) = &csv_dir {
            let path = format!("{dir}/{}.csv", report.id);
            std::fs::write(&path, report.to_csv()).expect("write csv");
        }
        if let Some(dir) = files_dir {
            for (name, contents) in &report.files {
                std::fs::write(format!("{dir}/{name}"), contents).expect("write artifact");
            }
        }
    }
}
