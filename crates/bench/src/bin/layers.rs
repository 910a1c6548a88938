//! Record-layer micro-benchmarks: host wall-clock ns/op of each step an
//! index operation takes, at `DeviceConfig::small()` and paper geometry.
//!
//! Rows:
//!
//! * `sign` — `SigHasher::sign` of a 16-byte key;
//! * `page_probe` — look a present signature up on a cached record page
//!   (home hopinfo + ≤ H slot reads on the page bytes);
//! * `page_insert` / `page_update` — insert a new signature into, or
//!   repoint an existing one on, a uniquely owned cached page in place;
//! * `cache_get` — `IndexPageCache::get` hit;
//! * `head_find` — `layout::find_in_head` of a present signature on a
//!   full head page of 120-byte values (what a get or an update pays per
//!   head-page read);
//! * `store_pair` — `Ftl::store_pair` of a 128-byte value into the open
//!   head page (programming each page as it fills);
//! * `device_locate` / `device_get` / `device_put` — `KvssdDevice` index
//!   lookup, full get, and overwrite on a preloaded device.
//!
//! Each row is the median of several timed batches (`std::time`, no
//! Criterion offline). `--smoke` runs a few iterations per row and only
//! writes `target/experiments/layers.json`; a full run also writes
//! `BENCH_layers.json` in the working directory.
//!
//! ```sh
//! cargo run --release -p rhik-bench --bin layers            # full
//! cargo run --release -p rhik-bench --bin layers -- --smoke # CI
//! ```

use std::hint::black_box;
use std::time::Instant;

use bytes::Bytes;
use rhik_bench::{emit_json, render_table};
use rhik_core::{RecordTable, RhikConfig};
use rhik_ftl::layout::{self, PageBuilder};
use rhik_ftl::{Ftl, FtlConfig, IndexPageCache};
use rhik_kvssd::{DeviceConfig, KvssdDevice};
use rhik_nand::Ppa;
use rhik_sigs::{KeySignature, SigHasher};
use serde_json::json;

const BATCHES: usize = 7;
const VALUE_BYTES: usize = 128;
/// Value size of the pairs packed into the `head_find` page.
const HEAD_VALUE_BYTES: usize = 120;

fn key(i: u64) -> Vec<u8> {
    format!("key-{i:012}").into_bytes()
}

/// Median ns/op over `BATCHES` batches of `iters` calls of `op(i)`.
fn time_ns(iters: u64, mut op: impl FnMut(u64)) -> f64 {
    let mut samples: Vec<f64> = (0..BATCHES as u64)
        .map(|b| {
            let start = Instant::now();
            for i in 0..iters {
                op(b * iters + i);
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[BATCHES / 2]
}

/// A record page at `fill` occupancy and the signatures stored on it.
fn filled_page(page_size: usize, records: u32, fill: f64) -> (Bytes, u32, Vec<KeySignature>) {
    let hasher = SigHasher::default();
    let mut table = RecordTable::blank(page_size, records, 32);
    let mut stored = Vec::new();
    let mut i = 0u64;
    while (table.len() as f64) < records as f64 * fill {
        let sig = hasher.sign(&key(i));
        if table.insert(sig, Ppa::new(i as u32, 0)) == rhik_core::TableInsert::Inserted {
            stored.push(sig);
        }
        i += 1;
    }
    let len = table.len();
    (table.into_page(), len, stored)
}

struct Geometry {
    name: &'static str,
    cfg: DeviceConfig,
    keys: u64,
}

fn measure(g: &Geometry, smoke: bool) -> Vec<(&'static str, f64)> {
    let scale = |n: u64| if smoke { (n / 100).max(1) } else { n };
    let page_size = g.cfg.geometry.page_size as usize;
    let records = RhikConfig::records_per_table(g.cfg.geometry.page_size);
    let hasher = SigHasher::default();
    let mut rows = Vec::new();

    let keys: Vec<Vec<u8>> = (0..1024).map(key).collect();
    rows.push((
        "sign",
        time_ns(scale(200_000), |i| {
            black_box(hasher.sign(black_box(&keys[i as usize % keys.len()])));
        }),
    ));

    let (page, len, stored) = filled_page(page_size, records, 0.75);
    rows.push((
        "page_probe",
        time_ns(scale(200_000), |i| {
            let table = RecordTable::view(&page[..], records, 32, len);
            black_box(table.lookup(stored[i as usize % stored.len()]));
        }),
    ));

    // Inserts take a page from 50 % to 75 % occupancy; each batch starts
    // from a fresh copy (the copy is outside the timed loop).
    let (half, half_len, _) = filled_page(page_size, records, 0.5);
    let fresh: Vec<KeySignature> =
        (0..records as u64 / 4).map(|i| hasher.sign(&key(1 << 40 | i))).collect();
    let mut samples = Vec::new();
    for _ in 0..if smoke { 1 } else { BATCHES * 20 } {
        let mut page = Bytes::copy_from_slice(&half);
        let mut len = half_len;
        let start = Instant::now();
        for (i, &sig) in fresh.iter().enumerate() {
            len = RecordTable::update_page(&mut page, records, 32, len, |t| {
                t.insert(sig, Ppa::new(i as u32, 1))
            })
            .1;
        }
        samples.push(start.elapsed().as_nanos() as f64 / fresh.len() as f64);
        black_box(&page);
    }
    samples.sort_by(f64::total_cmp);
    rows.push(("page_insert", samples[samples.len() / 2]));

    let mut page = Bytes::copy_from_slice(&page);
    rows.push((
        "page_update",
        time_ns(scale(200_000), |i| {
            let sig = stored[i as usize % stored.len()];
            RecordTable::update_page(&mut page, records, 32, len, |t| {
                black_box(t.insert(sig, Ppa::new(i as u32 & 0xffff, 2)))
            });
        }),
    ));

    let resident = 64u64;
    let mut cache = IndexPageCache::new(resident as usize * page_size);
    for k in 0..resident {
        cache.insert(k, Bytes::from(vec![k as u8; page_size]), false);
    }
    rows.push((
        "cache_get",
        time_ns(scale(200_000), |i| {
            black_box(cache.get(i % resident));
        }),
    ));

    let mut head = PageBuilder::new(page_size);
    let mut head_sigs = Vec::new();
    while head.fits(16, HEAD_VALUE_BYTES) {
        let k = key(head_sigs.len() as u64);
        let sig = hasher.sign(&k);
        head.append_pair(sig, &k, &[0x5a; HEAD_VALUE_BYTES], 0);
        head_sigs.push(sig);
    }
    let head = head.finish();
    rows.push((
        "head_find",
        time_ns(scale(20_000), |i| {
            let sig = head_sigs[i as usize % head_sigs.len()];
            black_box(layout::find_in_head(&head, page_size, sig));
        }),
    ));

    // Each batch stores into a fresh FTL (built outside the timed loop)
    // so the device never fills.
    let ftl_cfg = FtlConfig {
        geometry: g.cfg.geometry,
        profile: g.cfg.profile,
        cache_budget_bytes: g.cfg.cache_budget_bytes,
        gc_reserve_blocks: g.cfg.gc_reserve_blocks,
    };
    let stores = scale(20_000);
    let value = vec![0x5a; VALUE_BYTES];
    let mut samples = Vec::new();
    for b in 0..BATCHES as u64 {
        let mut ftl = Ftl::new(ftl_cfg);
        let start = Instant::now();
        for i in 0..stores {
            let k = &keys[i as usize % keys.len()];
            let sig = KeySignature(b << 32 | i);
            black_box(ftl.store_pair(sig, k, &value, 0).expect("store_pair"));
        }
        samples.push(start.elapsed().as_nanos() as f64 / stores as f64);
    }
    samples.sort_by(f64::total_cmp);
    rows.push(("store_pair", samples[BATCHES / 2]));

    let mut dev = KvssdDevice::rhik(g.cfg);
    for i in 0..g.keys {
        dev.put(&key(i), &value).expect("preload put");
    }
    let pick = |i: u64| key(i.wrapping_mul(0x9e37_79b9) % g.keys);
    rows.push((
        "device_locate",
        time_ns(scale(20_000), |i| {
            black_box(dev.locate(&pick(i)).expect("locate"));
        }),
    ));
    rows.push((
        "device_get",
        time_ns(scale(20_000), |i| {
            black_box(dev.get(&pick(i)).expect("get"));
        }),
    ));
    rows.push((
        "device_put",
        time_ns(scale(20_000), |i| {
            dev.put(&pick(i), &value).expect("put");
        }),
    ));
    rows
}

fn main() {
    let smoke = std::env::args().skip(1).any(|a| a == "--smoke");
    let geometries = [
        Geometry {
            name: "small",
            cfg: DeviceConfig::small(),
            keys: if smoke { 500 } else { 5_000 },
        },
        Geometry {
            name: "paper",
            cfg: DeviceConfig::paper(1 << 30, 4 << 20),
            keys: if smoke { 500 } else { 20_000 },
        },
    ];

    let measured: Vec<_> = geometries.iter().map(|g| (g, measure(g, smoke))).collect();
    let mut table = vec![vec!["row".to_string()]];
    table[0].extend(measured.iter().map(|(g, _)| format!("{} ns/op", g.name)));
    for (r, (row, _)) in measured[0].1.iter().enumerate() {
        let mut line = vec![row.to_string()];
        line.extend(measured.iter().map(|(_, rows)| format!("{:.1}", rows[r].1)));
        table.push(line);
    }
    println!("{}", render_table(&table));

    let geometry_json: Vec<_> = measured
        .iter()
        .map(|(g, rows)| {
            let ns = rows
                .iter()
                .map(|(row, ns)| (row.to_string(), json!((ns * 10.0).round() / 10.0)))
                .collect();
            json!({
                "geometry": g.name,
                "page_size": g.cfg.geometry.page_size,
                "records_per_table": RhikConfig::records_per_table(g.cfg.geometry.page_size),
                "preloaded_keys": g.keys,
                "ns_per_op": serde_json::Value::Object(ns),
            })
        })
        .collect();
    let blob = json!({
        "experiment": "layers",
        "unit": "host wall-clock ns/op, median of timed batches",
        "value_bytes": VALUE_BYTES,
        "smoke": smoke,
        "geometries": geometry_json,
    });
    emit_json("layers", &blob);
    if !smoke {
        if let Ok(s) = serde_json::to_string_pretty(&blob) {
            let path = "BENCH_layers.json";
            if std::fs::write(path, s).is_ok() {
                eprintln!("[wrote {path}]");
            }
        }
    }
}
