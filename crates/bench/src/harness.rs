//! Shared experiment plumbing: reports, corpus population, and windowed
//! percentile sampling.

use bytes::Bytes;

use cliquemap::backend::BackendNode;
use cliquemap::cell::Cell;
use cliquemap::hash::{place, DefaultHasher, KeyHasher};
use cliquemap::version::VersionNumber;
use cliquemap::workload::UniformWorkload;
use simnet::SimTime;
use workloads::{Prefill, SizeDist};

/// A printable experiment result: a title plus the figure's rows.
#[derive(Debug, Clone)]
pub struct Report {
    /// Experiment id (e.g. "f11").
    pub id: String,
    /// Human title.
    pub title: String,
    /// The regenerated series, one row per line.
    pub lines: Vec<String>,
    /// Extra artifacts `(file name, contents)` written beside the CSV.
    pub files: Vec<(String, String)>,
}

impl Report {
    /// Start a report.
    pub fn new(id: &str, title: &str) -> Report {
        Report {
            id: id.to_string(),
            title: title.to_string(),
            lines: Vec::new(),
            files: Vec::new(),
        }
    }

    /// Append a row.
    pub fn line(&mut self, s: impl Into<String>) {
        self.lines.push(s.into());
    }

    /// Render to stdout.
    pub fn print(&self) {
        println!("\n=== {} — {} ===", self.id.to_uppercase(), self.title);
        for l in &self.lines {
            println!("{l}");
        }
    }

    /// Render the rows as CSV (whitespace-delimited rows become
    /// comma-delimited; annotation lines pass through as comments).
    pub fn to_csv(&self) -> String {
        let mut out = format!("# {} — {}\n", self.id, self.title);
        for l in &self.lines {
            let cols: Vec<&str> = l.split_whitespace().collect();
            if cols.is_empty() {
                continue;
            }
            // Key=value annotation lines become comments.
            if cols.iter().any(|c| c.contains('='))
                && !cols[0]
                    .chars()
                    .next()
                    .map(|c| c.is_ascii_digit())
                    .unwrap_or(false)
            {
                out.push_str("# ");
                out.push_str(l.trim());
                out.push('\n');
            } else {
                out.push_str(&cols.join(","));
                out.push('\n');
            }
        }
        out
    }
}

/// Install a corpus directly into every replica's store (fast-path corpus
/// population, standing in for a long prefill phase). Keys are
/// `{prefix}{0..keys}` with deterministic sizes and contents, installed at
/// the same version on every replica so quorums are immediately clean.
pub fn populate_cell(cell: &mut Cell, prefix: &str, keys: u64, sizes: &SizeDist) {
    let hasher = DefaultHasher;
    let n = cell.backends.len() as u32;
    let copies = cell
        .sim
        .with_node::<cliquemap::config::ConfigStoreNode, _>(cell.config_store, |cs| {
            cs.config().replication.copies()
        })
        .expect("config store");
    for i in 0..keys {
        let key = Prefill::key_name(prefix, i);
        let len = sizes.size_for_key(&key);
        let value = UniformWorkload::value_for(&key, len);
        let hash = hasher.hash(&key);
        let shard = place(hash, n, 1).shard;
        let version = VersionNumber::new(1, 0, 1);
        for r in 0..copies {
            let backend = cell.backends[((shard + r) % n) as usize];
            install(cell, backend, &key, &value, version);
        }
    }
}

fn install(cell: &mut Cell, backend: simnet::NodeId, key: &Bytes, value: &Bytes, v: VersionNumber) {
    let hash = DefaultHasher.hash(key);
    cell.sim
        .with_node::<BackendNode, _>(backend, |b| {
            let store = b.store_mut();
            if let Ok(p) = store.prepare_set(key, value, hash, v) {
                store.write_data(p.data_offset, &p.entry_bytes);
                let _ = store.commit_set(&p);
            }
        })
        .expect("backend exists");
}

/// Windowed percentile sampling: snapshot-and-clear named histograms so
/// each window's percentiles are independent (the timeline figures).
pub struct WindowSampler {
    names: Vec<String>,
    /// Counter names whose per-window deltas are also reported.
    counter_names: Vec<String>,
    last_counters: Vec<u64>,
}

/// One window's worth of measurements.
#[derive(Debug, Clone)]
pub struct WindowSnapshot {
    /// Window end time.
    pub at: SimTime,
    /// Per-histogram (p50, p90, p99, p999, count).
    pub hists: Vec<(String, [u64; 4], u64)>,
    /// Per-counter delta over the window.
    pub counters: Vec<(String, u64)>,
}

impl WindowSampler {
    /// Track the given histogram and counter names.
    pub fn new(hists: &[&str], counters: &[&str]) -> WindowSampler {
        WindowSampler {
            names: hists.iter().map(|s| s.to_string()).collect(),
            counter_names: counters.iter().map(|s| s.to_string()).collect(),
            last_counters: vec![0; counters.len()],
        }
    }

    /// Snapshot percentiles + counter deltas, then clear the histograms.
    pub fn sample(&mut self, cell: &mut Cell) -> WindowSnapshot {
        let at = cell.sim.now();
        let mut hists = Vec::new();
        for name in &self.names {
            let metrics = cell.sim.metrics_mut();
            let h = metrics.hist(name);
            let p = [
                h.percentile(50.0),
                h.percentile(90.0),
                h.percentile(99.0),
                h.percentile(99.9),
            ];
            let count = h.count();
            h.clear();
            hists.push((name.clone(), p, count));
        }
        let mut counters = Vec::new();
        for (i, name) in self.counter_names.iter().enumerate() {
            let v = cell.sim.metrics().counter(name);
            counters.push((name.clone(), v - self.last_counters[i]));
            self.last_counters[i] = v;
        }
        WindowSnapshot {
            at,
            hists,
            counters,
        }
    }
}

/// Bridge a named histogram into a streaming quantile sketch
/// ([`obs::Sketch`]). Every nonzero bucket is replayed at its
/// representative value, so the sketch answers any quantile with the
/// combined (histogram + sketch) relative-error bound. Returns an empty
/// sketch when the histogram doesn't exist.
pub fn sketch_of(cell: &Cell, name: &str) -> obs::Sketch {
    let mut s = obs::Sketch::default();
    if let Some(h) = cell.sim.metrics().hist_ref(name) {
        for (i, count) in h.nonzero_buckets() {
            s.record_n(simnet::Histogram::bucket_value(i), count);
        }
    }
    s
}

/// The one shared percentile helper (ns): experiments that used to carry
/// private `pctl` copies all read quantiles through this sketch bridge.
pub fn pctl_ns(cell: &Cell, name: &str, p: f64) -> u64 {
    sketch_of(cell, name).percentile(p)
}

/// [`pctl_ns`] scaled to microseconds.
pub fn pctl_us(cell: &Cell, name: &str, p: f64) -> f64 {
    pctl_ns(cell, name, p) as f64 / 1e3
}

/// Format nanoseconds as microseconds with one decimal.
pub fn us(ns: u64) -> String {
    format!("{:.1}", ns as f64 / 1_000.0)
}

/// Aggregate Pony engine CPU across a set of nodes (clients or backends).
pub fn pony_cpu_ns(cell: &mut Cell, nodes: &[simnet::NodeId]) -> u64 {
    let mut total = 0;
    for &n in nodes {
        if let Some(v) = cell
            .sim
            .with_node::<BackendNode, _>(n, |b| b.transport.sw_cpu_ns())
        {
            total += v;
        } else if let Some(v) = cell
            .sim
            .with_node::<cliquemap::client::ClientNode, _>(n, |c| c.transport.sw_cpu_ns())
        {
            total += v;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use cliquemap::cell::CellSpec;
    use cliquemap::client::LookupStrategy;
    use cliquemap::config::ReplicationMode;
    use cliquemap::workload::ScriptWorkload;
    use simnet::SimDuration;

    #[test]
    fn populate_makes_keys_fetchable() {
        let mut spec = CellSpec {
            replication: ReplicationMode::R32,
            num_backends: 4,
            ..CellSpec::default()
        };
        spec.backend.store.num_buckets = 256;
        spec.backend.store.data_capacity = 4 << 20;
        spec.backend.store.max_data_capacity = 32 << 20;
        spec.client.strategy = LookupStrategy::TwoR;
        let gets: Vec<_> = (0..20u64)
            .map(|i| {
                (
                    SimDuration::from_micros(10 * i),
                    cliquemap::workload::ClientOp::Get {
                        key: Prefill::key_name("key", i),
                    },
                )
            })
            .collect();
        let mut cell = Cell::build(spec, vec![Box::new(ScriptWorkload::new(gets))]);
        populate_cell(&mut cell, "key", 20, &SizeDist::fixed(256));
        cell.run_for(SimDuration::from_secs(1));
        assert_eq!(cell.hits(), 20, "misses: {}", cell.misses());
        assert_eq!(cell.op_errors(), 0);
    }

    /// Fixture: the sketch bridge must agree with an exact sorted-Vec
    /// quantile within the combined rank error of the HDR histogram
    /// (bucket width ~3% at 5 sub-bucket bits) and the sketch (α = 1%).
    #[test]
    fn sketch_bridge_matches_exact_quantiles() {
        let spec = cliquemap::cell::CellSpec::default();
        let mut cell = Cell::build(spec, vec![]);
        // Latency-shaped fixture: a fast mode, a slow mode, a heavy tail.
        let mut vals: Vec<u64> = Vec::new();
        for i in 0..900u64 {
            vals.push(8_000 + 13 * i);
        }
        for i in 0..90u64 {
            vals.push(120_000 + 777 * i);
        }
        for i in 0..10u64 {
            vals.push(3_000_000 + 50_000 * i);
        }
        for &v in &vals {
            cell.sim.metrics_mut().record("fixture", v);
        }
        vals.sort_unstable();
        let exact = |q: f64| {
            let rank = ((q * vals.len() as f64).ceil() as usize).max(1);
            vals[rank - 1] as f64
        };
        for &p in &[50.0, 90.0, 99.0, 99.9] {
            let got = pctl_ns(&cell, "fixture", p) as f64;
            let e = exact(p / 100.0);
            assert!(
                (got - e).abs() / e <= 0.05,
                "p{p}: sketch {got} vs exact {e}"
            );
        }
        // Missing histogram: defined, empty answer.
        assert_eq!(pctl_ns(&cell, "no.such.hist", 99.0), 0);
    }

    #[test]
    fn window_sampler_clears_between_windows() {
        let spec = CellSpec::default();
        let mut cell = Cell::build(spec, vec![]);
        cell.sim.metrics_mut().record("x", 100);
        let mut ws = WindowSampler::new(&["x"], &["c"]);
        cell.sim.metrics_mut().add("c", 5);
        let s1 = ws.sample(&mut cell);
        assert_eq!(s1.hists[0].2, 1);
        assert_eq!(s1.counters[0].1, 5);
        let s2 = ws.sample(&mut cell);
        assert_eq!(s2.hists[0].2, 0, "histogram must clear");
        assert_eq!(s2.counters[0].1, 0, "counter delta resets");
    }
}
