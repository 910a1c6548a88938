//! Self-tests of the benchmark: its names, its inputs, its summaries, and
//! that every workload reports every metric `BENCHMARK.json` declares.

use rhik_perfbench::gen::{KeyDist, Keyspace, Op, OpStream};
use rhik_perfbench::model::{Check, Versions};
use rhik_perfbench::respc::{parse_reply, Reply};
use rhik_perfbench::stats::{percentile, tail_percentile};
use rhik_perfbench::workload::{self, NAMES, UNGATED};

/// The `"name"` values of one top-level array of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split("\"name\"")
        .skip(1)
        .map(|rest| {
            let rest = &rest[rest.find('"').expect("name value") + 1..];
            rest[..rest.find('"').expect("name ends")].to_string()
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn names_are_valid_and_unique() {
    let mut all = Vec::new();
    for section in ["workloads", "end_to_end", "per_layer"] {
        let names = declared(section);
        assert!(!names.is_empty(), "{section} declares names");
        all.extend(names);
    }
    for name in &all {
        assert!(valid_name(name), "invalid name {name:?}");
    }
    let mut sorted = all.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(sorted.len(), all.len(), "a name is used twice");
    assert_eq!(declared("workloads"), NAMES, "workloads listed in run order");
}

fn ops(seed: u64, n: usize) -> Vec<Op> {
    let ks = Keyspace::new(seed, 1000, 32);
    let dist = KeyDist::Zipf(std::sync::Arc::new(rhik_perfbench::gen::Zipf::new(1000, 0.99)));
    let mut s = OpStream::new(seed, 0, dist, 0.9, &ks, 0, 2);
    (0..n).map(|_| s.next_op(&ks)).collect()
}

#[test]
fn one_seed_yields_one_op_sequence() {
    assert_eq!(ops(7, 5000), ops(7, 5000));
    assert_ne!(ops(7, 5000), ops(8, 5000));
    let (a, b) = (Keyspace::new(7, 100, 64), Keyspace::new(7, 100, 64));
    for id in 0..100 {
        assert_eq!(a.key(id), b.key(id));
        assert_eq!(a.value(id, 3), b.value(id, 3));
    }
}

#[test]
fn writes_come_from_one_client_per_key() {
    let ks = Keyspace::new(3, 1000, 32);
    for client in 0..2 {
        let mut s = OpStream::new(3, client as u64, KeyDist::Uniform, 0.5, &ks, client, 2);
        for _ in 0..2000 {
            if let Op::Put(id) = s.next_op(&ks) {
                assert_eq!(id % 2, client, "client {client} wrote key {id}");
            }
        }
    }
}

#[test]
fn percentile_helper_keeps_ten_samples_beyond() {
    assert_eq!(tail_percentile(1000, 99.0), 99.0);
    assert_eq!(tail_percentile(999, 99.0), 90.0);
    assert_eq!(tail_percentile(100, 99.0), 90.0);
    assert_eq!(tail_percentile(99, 99.0), 75.0);
    assert_eq!(tail_percentile(40, 99.0), 75.0);
    assert_eq!(tail_percentile(39, 99.0), 50.0);
    assert_eq!(tail_percentile(5, 99.0), 50.0);
    assert_eq!(tail_percentile(100_000, 90.0), 90.0, "never above the ceiling");
    let sorted: Vec<u64> = (1..=100).collect();
    assert_eq!(percentile(&sorted, 50.0), 50);
    assert_eq!(percentile(&sorted, 99.0), 99);
    assert_eq!(percentile(&[], 99.0), 0);
}

#[test]
fn checker_rejects_wrong_bytes_and_stale_versions() {
    let ks = Keyspace::new(1, 10, 40);
    let v = Versions::new(10);
    let seq = v.issue(4);
    v.ack(4, seq);
    assert_eq!(v.check_final(&ks, 4, Some(&ks.value(4, 2))), Check::Ok);
    assert_eq!(v.check_final(&ks, 4, Some(&ks.value(4, 1))), Check::Wrong, "stale");
    assert_eq!(v.check_final(&ks, 4, Some(&ks.value(5, 2))), Check::Wrong, "other key");
    assert_eq!(v.check_final(&ks, 4, None), Check::Wrong, "lost");
    let mut flipped = ks.value(4, 2);
    flipped[20] ^= 1;
    assert_eq!(v.check_final(&ks, 4, Some(&flipped)), Check::Wrong, "corrupt");
    assert_eq!(v.check_window(&ks, 4, 1, 2, Some(&ks.value(4, 1))), Check::Ok);
    assert_eq!(v.check_window(&ks, 4, 2, 2, Some(&ks.value(4, 1))), Check::Wrong);
    let failed = v.issue(4);
    v.fail(4, failed);
    assert_eq!(v.check_final(&ks, 4, Some(&ks.value(4, failed))), Check::Ok, "may land");
}

#[test]
fn reply_parser_waits_for_whole_replies_and_rejects_garbage() {
    assert_eq!(parse_reply(b"+OK\r\n").unwrap(), Some((Reply::Simple("OK".into()), 5)));
    assert_eq!(parse_reply(b"$-1\r\n").unwrap(), Some((Reply::Nil, 5)));
    assert_eq!(parse_reply(b"$3\r\nab").unwrap(), None, "bulk body incomplete");
    assert_eq!(parse_reply(b"$3\r\nabc\r\n+OK").unwrap(), Some((Reply::Bulk(b"abc".to_vec()), 9)));
    assert_eq!(parse_reply(b"-ERR x\r\n").unwrap(), Some((Reply::Error("ERR x".into()), 8)));
    assert_eq!(parse_reply(b"+OK").unwrap(), None, "line incomplete");
    for garbage in [&b"\r\n"[..], b"?x\r\n", b"$3\r\nabcXY", b"$99999999999\r\n"] {
        assert!(parse_reply(garbage).is_err(), "{garbage:?}");
    }
}

/// End-to-end metrics every run prints but `BENCHMARK.json` does not gate.
const INFORMATIONAL: [&str; 8] = [
    "ops_per_s",
    "get_p50_us",
    "put_p50_us",
    "get_p99_us",
    "put_p99_us",
    "rtt_p50_us",
    "rtt_p99_us",
    "cpu_us_per_op",
];

#[test]
fn every_workload_emits_every_declared_metric() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for name in NAMES.into_iter().chain(UNGATED) {
        let spec = workload::spec(name).expect("declared workload exists").scaled_down(50);
        for trace in [false, true] {
            let r = rhik_perfbench::run(&spec, 11, 0.3, trace);
            assert!(r.correct, "{name} trace={trace}: {:?}", r.notes);
            assert_eq!(r.failed, 0, "{name} trace={trace}: {:?}", r.notes);
            assert!(r.attempted > 0);
            let got: Vec<&str> = r.end_to_end.iter().map(|m| m.name).collect();
            assert_eq!(got, end_to_end, "{name}: end-to-end metrics");
            if trace {
                let got: Vec<&str> = r.per_layer.iter().map(|m| m.name).collect();
                assert_eq!(got, per_layer, "{name}: per-layer metrics");
            }
            let got: Vec<&str> = r.informational.iter().map(|m| m.name).collect();
            assert_eq!(got, INFORMATIONAL, "{name}: informational metrics");
            for m in r.end_to_end.iter().chain(&r.per_layer).chain(&r.informational) {
                assert!(m.value.is_finite(), "{name}: {} = {}", m.name, m.value);
            }
            let line = rhik_perfbench::result_json(&r, trace);
            assert!(line.starts_with("{\"correct\": ") && line.ends_with("}}"), "{line}");
        }
    }
}
