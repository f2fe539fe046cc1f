//! Replays: after the traced run, time direct calls into each layer's
//! public functions with inputs shaped like the run (its real keys and
//! values from backend 0's store, its frame kinds and batch widths, its
//! queue high-water mark, its final WAL media). Each replay reports host
//! ns per call (`<layer>.<fn>_ns`) and the run's call count for it
//! (`<layer>.<fn>_calls`, exact where the cell counts it, estimated where
//! it does not); the runner multiplies the two into a share of `run_s`.

use std::hint::black_box;
use std::time::Instant;

use bytes::{Bytes, Pool};
use cliquemap::backend::BackendNode;
use cliquemap::cell::{Cell, DurabilitySpec};
use cliquemap::config::ConfigStoreNode;
use cliquemap::hash::{DefaultHasher, KeyHasher};
use cliquemap::layout::{bucket_size, encode_data_entry, parse_data_entry};
use cliquemap::messages::method;
use cliquemap::store::{BackendStore, CliqueScarResolver};
use cliquemap::version::VersionNumber;
use rma::codec::{
    encode_batch_scar_req_in, encode_scar_req_in, BatchScarEntry, BatchScarReq, RmaEnvelope,
    ScarReq,
};
use rma::{PonyCfg, Transport};
use rpc::codec::{
    encode_request_in, encode_response_in, Request, Response, Status, PROTOCOL_VERSION,
};
use simnet::{CalendarQueue, SimDuration, SimTime};
use workloads::Prefill;

use crate::clock::thread_cpu;
use crate::run::Metrics;
use crate::spans::SpanLog;
use crate::workloads::KEYS;

/// Host time each replay spends measuring, split into [`BATCHES`] timed
/// batches whose median per-call cost is reported.
const BUDGET_NS: u64 = 60_000_000;
const BATCHES: usize = 9;

/// Median ns per call of `f`, run in [`BATCHES`] batches sized so the
/// replay takes about [`BUDGET_NS`].
fn time_per_call(mut f: impl FnMut(u64)) -> f64 {
    let t = thread_cpu();
    let mut probe = 0u64;
    while (thread_cpu() - t).as_nanos() < 2_000_000 || probe < 4 {
        f(probe);
        probe += 1;
    }
    let per = (thread_cpu() - t).as_nanos() as f64 / probe as f64;
    let batch = ((BUDGET_NS as f64 / BATCHES as f64 / per) as u64).max(1);
    let mut samples: Vec<f64> = (0..BATCHES)
        .map(|b| {
            let t = thread_cpu();
            for i in 0..batch {
                f(b as u64 * batch + i);
            }
            (thread_cpu() - t).as_nanos() as f64 / batch as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[BATCHES / 2]
}

/// A real key on backend 0, with what its store holds for it.
struct Sample {
    key: Bytes,
    hash: u128,
    value: Bytes,
    version: VersionNumber,
}

fn samples(store: &BackendStore) -> Vec<Sample> {
    (0..KEYS)
        .filter_map(|i| {
            let key = Prefill::key_name("k", i);
            let hash = DefaultHasher.hash(&key);
            let (_, value, version) = store.fetch(hash)?;
            Some(Sample {
                key,
                hash,
                value,
                version,
            })
        })
        .take(256)
        .collect()
}

fn put(m: &mut Metrics, name: &str, ns: f64, calls: f64) {
    m.insert(format!("{name}_ns"), ns);
    m.insert(format!("{name}_calls"), calls);
}

/// Time `f`'s replay as a span named after `name` under `parent`.
fn traced<T>(log: &mut SpanLog, name: &str, parent: usize, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    log.record(format!("replay {name}"), t, Instant::now(), Some(parent));
    out
}

/// Run every replay against `cell` (after its run is harvested) and add
/// the results to `m`, recording one span per replay under `root`.
pub fn all(cell: &mut Cell, m: &mut Metrics, log: &mut SpanLog, root: usize) {
    let parent = log.open("replay", Some(root));
    let counter = |name: &str| cell.sim.metrics().counter(name) as f64;
    let get_keys = m["workloads.get_keys"];
    let set_keys = m["workloads.set_keys"];
    let client_frames = counter("cm.client.rma_frames");
    let backend_ops = counter("cm.backend.rma_ops");
    let rpc_bytes = counter("cm.rpc_bytes");
    let rpc_gets = counter("cm.get.overflow_fallbacks")
        + counter("cm.retry.fallback_decode")
        + counter("cm.retry.fallback_error")
        + counter("cm.retry.fallback_timeout");
    let trickled = counter("cm.backend.wal_trickled");
    let appends = counter("cm.backend.wal_appends");
    let copies = cell
        .sim
        .with_node::<ConfigStoreNode, _>(cell.config_store, |cs| cs.config().replication.copies())
        .expect("the config store is a ConfigStoreNode") as f64;
    // Entries per RMA frame (and pairs per MULTI_SET call): 1 unbatched,
    // the run's mean when doorbell batching coalesces a MultiGet's keys.
    let per_frame = (get_keys * copies / client_frames.max(1.0))
        .round()
        .max(1.0) as usize;

    // simnet: one push and one pop per event.
    let hwm = cell.sim.queue_high_water();
    let ns = traced(log, "simnet.queue_push_pop", parent, || queue_push_pop(hwm));
    put(m, "simnet.queue_push_pop", ns, m["simnet.events"]);

    let keys = cell
        .sim
        .with_node::<BackendNode, _>(cell.backends[0], |b| {
            let store = b.store_mut();
            let keys = samples(store);
            assert!(!keys.is_empty(), "backend 0 holds part of the corpus");
            let (codec, serve) = traced(log, "rma", parent, || rma_replay(store, &keys, per_frame));
            put(m, "rma.codec", codec, client_frames);
            put(m, "rma.serve", serve, backend_ops);
            let (ns, call_bytes) =
                traced(log, "rpc.codec", parent, || rpc_replay(&keys, per_frame));
            put(m, "rpc.codec", ns, rpc_bytes / call_bytes.max(1.0));
            let ns = traced(log, "cliquemap.store.fetch", parent, || {
                time_per_call(|i| {
                    black_box(store.fetch(keys[i as usize % keys.len()].hash));
                })
            });
            put(m, "cliquemap.store.fetch", ns, rpc_gets);
            let ns = traced(log, "cliquemap.layout.validate", parent, || {
                validate_replay(&keys)
            });
            put(m, "cliquemap.layout.validate", ns, get_keys * copies);
            let ns = traced(log, "cliquemap.store.set", parent, || {
                set_replay(store, &keys)
            });
            put(m, "cliquemap.store.set", ns, set_keys * copies);
            keys
        })
        .expect("backend 0 is a BackendNode");

    // durable: each trickle peeks (`prefix`) and folds (`flush_prefix`)
    // up to `trickle_records` records, decoding the whole log each time.
    let trickle = DurabilitySpec::default().trickle_records;
    let ns = traced(log, "durable.flush_prefix", parent, || {
        let medias: Vec<durable::Media> = if cell.media.is_empty() {
            vec![synthetic_media(&keys, 4 * trickle as usize)]
        } else {
            cell.media.iter().map(|m| m.borrow().clone()).collect()
        };
        flush_replay(&medias, trickle)
    });
    put(m, "durable.flush_prefix", ns, trickled / trickle as f64);
    let ns = traced(log, "durable.append", parent, || append_replay(&keys));
    put(m, "durable.append", ns, appends);
    log.close(parent);
}

/// ns per (pop, push) pair on a calendar queue held at `depth` events,
/// with delays spread like a busy cell's (mostly sub-10µs, some up to a
/// millisecond).
fn queue_push_pop(depth: usize) -> f64 {
    let mut q: CalendarQueue<u64> = CalendarQueue::new();
    let mut lcg = 0x9e37_79b9_7f4a_7c15u64;
    let mut delay = move || {
        lcg = lcg
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let r = lcg >> 33;
        if r.is_multiple_of(8) {
            r % 1_000_000
        } else {
            r % 10_000
        }
    };
    let mut seq = 0u64;
    for _ in 0..depth.max(1) {
        q.push(delay(), seq, seq);
        seq += 1;
    }
    time_per_call(|_| {
        let (at, _, item) = q.pop().expect("queue stays at depth");
        black_box(item);
        q.push(at + delay(), seq, seq);
        seq += 1;
    })
}

/// (codec ns per frame, serve ns per frame) for SCAR frames of
/// `per_frame` entries against `store`'s real memory.
fn rma_replay(store: &BackendStore, keys: &[Sample], per_frame: usize) -> (f64, f64) {
    let g = store.geometry();
    let blen = bucket_size(g.assoc as usize) as u32;
    let pool = Pool::new();
    let frames: Vec<RmaEnvelope> = (0..keys.len())
        .map(|i| {
            let entry = |j: usize| {
                let k = &keys[(i + j) % keys.len()];
                (store.bucket_offset(store.bucket_of(k.hash)), k.hash)
            };
            if per_frame == 1 {
                let (off, hash) = entry(0);
                RmaEnvelope::ScarReq(ScarReq {
                    op_id: i as u64,
                    index_window: g.index_window,
                    index_generation: g.index_generation,
                    bucket_offset: off,
                    bucket_len: blen,
                    key_hash: hash,
                })
            } else {
                RmaEnvelope::BatchScarReq(BatchScarReq {
                    op_id: i as u64,
                    index_window: g.index_window,
                    index_generation: g.index_generation,
                    entries: (0..per_frame)
                        .map(|j| {
                            let (off, hash) = entry(j);
                            BatchScarEntry {
                                sub: j as u64,
                                bucket_offset: off,
                                bucket_len: blen,
                                key_hash: hash,
                            }
                        })
                        .collect(),
                })
            }
        })
        .collect();
    let mut transport = Transport::pony(PonyCfg::default());
    let mut now = SimTime::ZERO;
    let mut serve_once = |env: &RmaEnvelope, transport: &mut Transport| {
        now += SimDuration::from_micros(10);
        rma::serve(
            env,
            store.regions(),
            &CliqueScarResolver,
            transport,
            &pool,
            now,
        )
        .expect("requests are served")
        .response
    };
    let responses: Vec<Bytes> = frames
        .iter()
        .map(|f| serve_once(f, &mut transport))
        .collect();
    let serve = time_per_call(|i| {
        black_box(serve_once(
            &frames[i as usize % frames.len()],
            &mut transport,
        ));
    });
    let codec = time_per_call(|i| {
        let i = i as usize % frames.len();
        let wire = match &frames[i] {
            RmaEnvelope::ScarReq(r) => encode_scar_req_in(r, &pool),
            RmaEnvelope::BatchScarReq(r) => encode_batch_scar_req_in(r, &pool),
            _ => unreachable!("only SCAR frames are built"),
        };
        black_box(rma::codec::decode(wire));
        black_box(rma::codec::decode(responses[i].clone()));
    });
    (codec, serve)
}

/// (ns per call, wire bytes per call) of an RPC SET round trip's codec
/// work: encode and decode a request carrying `per_call` of the sampled
/// (key, value) pairs, and its response.
fn rpc_replay(keys: &[Sample], per_call: usize) -> (f64, f64) {
    let pool = Pool::new();
    let bodies: Vec<Bytes> = (0..keys.len())
        .map(|i| {
            let mut body = Vec::new();
            for j in 0..per_call {
                let k = &keys[(i + j) % keys.len()];
                body.extend_from_slice(&k.key);
                body.extend_from_slice(&k.value);
            }
            Bytes::from(body)
        })
        .collect();
    let request = |i: usize| Request {
        version: PROTOCOL_VERSION,
        method: method::SET,
        id: i as u64,
        auth: 0x5eed,
        deadline_ns: 1_000_000,
        body: bodies[i].clone(),
    };
    let response = |i: usize| Response {
        version: PROTOCOL_VERSION,
        status: Status::Ok,
        id: i as u64,
        body: Bytes::new(),
    };
    let bytes: usize = (0..bodies.len())
        .map(|i| {
            encode_request_in(&request(i), &pool).len()
                + encode_response_in(&response(i), &pool).len()
        })
        .sum();
    let ns = time_per_call(|i| {
        let i = i as usize % bodies.len();
        black_box(rpc::codec::decode(encode_request_in(&request(i), &pool)));
        black_box(rpc::codec::decode(encode_response_in(&response(i), &pool)));
    });
    (ns, bytes as f64 / bodies.len() as f64)
}

/// ns per `parse_data_entry` on the sampled keys' real entries.
fn validate_replay(keys: &[Sample]) -> f64 {
    let entries: Vec<Vec<u8>> = keys
        .iter()
        .map(|k| encode_data_entry(&k.key, &k.value, k.version))
        .collect();
    time_per_call(|i| {
        black_box(parse_data_entry(&entries[i as usize % entries.len()]).is_ok());
    })
}

/// ns per store install (prepare, write, commit) of a newer version of a
/// sampled key with its own value size.
fn set_replay(store: &mut BackendStore, keys: &[Sample]) -> f64 {
    time_per_call(|i| {
        let k = &keys[i as usize % keys.len()];
        let version = VersionNumber(k.version.0 + 1 + i as u128);
        if let Ok(p) = store.prepare_set(&k.key, &k.value, k.hash, version) {
            store.write_data(p.data_offset, &p.entry_bytes);
            black_box(store.commit_set(&p));
        }
    })
}

/// A WAL of `records` SETs of the sampled keys, for workloads whose cell
/// keeps no media (the replay still measures the layer's per-call cost).
fn synthetic_media(keys: &[Sample], records: usize) -> durable::Media {
    let mut gc = durable::GroupCommit::default();
    let mut media = durable::Media::default();
    for i in 0..records {
        let k = &keys[i % keys.len()];
        gc.append(&durable::Record {
            kind: durable::KIND_SET,
            version: k.version.0 + i as u128,
            key: k.key.to_vec(),
            value: k.value.to_vec(),
        });
    }
    gc.start_commit();
    gc.finish_commit(&mut media);
    media
}

/// ns per group-commit append of a sampled (key, value) record, with
/// each 1,024-record batch committed to media as the run's fsyncs do.
fn append_replay(keys: &[Sample]) -> f64 {
    let records: Vec<durable::Record> = keys
        .iter()
        .map(|k| durable::Record {
            kind: durable::KIND_SET,
            version: k.version.0,
            key: k.key.to_vec(),
            value: k.value.to_vec(),
        })
        .collect();
    let mut gc = durable::GroupCommit::default();
    let mut media = durable::Media::default();
    time_per_call(|i| {
        if gc.append(&records[i as usize % records.len()]) == 1_024 {
            gc.start_commit();
            gc.finish_commit(&mut media);
            media = durable::Media::default();
        }
    })
}

/// Median ns of one trickle cycle (`prefix` then `flush_prefix`) on a
/// fresh clone of each media, across all media.
fn flush_replay(medias: &[durable::Media], trickle: u64) -> f64 {
    let mut samples = Vec::new();
    for media in medias {
        for _ in 0..3 {
            let mut m = media.clone();
            let t = thread_cpu();
            black_box(m.prefix(trickle));
            black_box(m.flush_prefix(trickle));
            samples.push((thread_cpu() - t).as_nanos() as f64);
        }
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}
