//! One benchmark run: set up, measure, replay layers, check outputs.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rhik_audit::DeviceAuditor;
use rhik_core::RhikIndex;
use rhik_kvssd::{Attribution, BatchOp, BatchReply, ShardedKvssd, Stage, TelemetrySink};
use rhik_nand::Ppa;
use rhik_server::resp::{decode, parse_frame, Limits, Parse};
use rhik_server::{ServerConfig, ServerHandle};

use crate::gen::{KeyDist, Keyspace, Op, OpStream, Zipf};
use crate::layers::{LayerDiff, LayerSnap};
use crate::model::{Check, Versions};
use crate::respc::{Reply, RespConn};
use crate::stats::{mean_ns, median, peak_rss_mib, process_cpu_s, ratio, Sample, Slices};
use crate::workload::{Front, Spec};

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run reports.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (tracing off) that `BENCHMARK.json` gates.
    pub end_to_end: Vec<Metric>,
    /// Wall-clock end-to-end metrics, printed but not gated: between runs
    /// they follow the host's speed, which moves by more than any bound.
    pub informational: Vec<Metric>,
    /// Per-layer metrics (traced runs only; empty otherwise).
    pub per_layer: Vec<Metric>,
    /// Human-readable context: percentiles used, sample counts, errors.
    pub notes: Vec<String>,
}

/// Minimum set-up repetitions, and the wall time they should cover at
/// least, so the reported median is not one noisy sample.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MIN_SECS: f64 = 1.0;
const SETUP_MAX_REPS: usize = 15;
/// Ops sampled from the workload's own stream for the layer replay.
const REPLAY_OPS: usize = 2_000;
/// Repetitions of the pure-CPU replays (signing, parsing).
const REPLAY_REPS: usize = 20;
/// Ops per pipelined RESP window (the replay's and `resp-pipelined`'s).
const WINDOW: usize = 32;
/// Length of the slices wall-clock metrics are computed over, and the
/// fewest slices worth slicing for (shorter phases are one slice).
const SLICE_NS: u64 = 2_000_000_000;
const MIN_SLICES: usize = 3;
/// Spans kept by the traced phase's telemetry sink.
const TRACE_SPANS: usize = 1 << 16;
/// Error messages kept verbatim in the notes.
const MAX_ERROR_NOTES: usize = 5;

/// The device and, for RESP workloads, the server and client connections.
struct Rig {
    dev: ShardedKvssd<RhikIndex>,
    server: Option<ServerHandle<RhikIndex>>,
    conns: Vec<RespConn>,
    /// The preload's puts, and the ids whose put returned an error.
    preload: PhaseOut,
    preload_failed: Vec<u32>,
}

fn build_rig(spec: &Spec, ks: &Keyspace, sink: Option<TelemetrySink>) -> Rig {
    let dev = ShardedKvssd::rhik(spec.cfg);
    let (preload, preload_failed) = preload(&dev, ks);
    if let Some(sink) = sink {
        dev.set_telemetry(sink);
    }
    let (server, conns) = match spec.front {
        Front::InProcess => (None, Vec::new()),
        Front::Resp => {
            let cfg = ServerConfig { workers: 1, ..ServerConfig::default() };
            let server = rhik_server::start(dev.clone(), cfg).expect("bind a loopback server");
            let conns = (0..spec.clients)
                .map(|_| RespConn::connect(server.addr()).expect("connect to the loopback server"))
                .collect();
            (Some(server), conns)
        }
    };
    Rig { dev, server, conns, preload, preload_failed }
}

/// Write version 1 of every key, one loader thread per group of shards
/// (at most the host's parallelism), each in `put_batch` chunks. A put
/// that fails is counted and its key left absent; nothing is retried.
fn preload(dev: &ShardedKvssd<RhikIndex>, ks: &Keyspace) -> (PhaseOut, Vec<u32>) {
    let loaders =
        std::thread::available_parallelism().map_or(1, |n| n.get()).min(dev.shard_count());
    let mut ids: Vec<Vec<u32>> = vec![Vec::new(); loaders];
    for id in 0..ks.len() {
        ids[dev.shard_for_key(&ks.key(id)) % loaders].push(id);
    }
    let mut out = PhaseOut { ops: ks.len() as u64, ..PhaseOut::default() };
    let mut failed_ids = Vec::new();
    std::thread::scope(|scope| {
        let loaders: Vec<_> = ids
            .iter()
            .map(|mine| {
                scope.spawn(move || {
                    let mut failed = Vec::new();
                    for chunk in mine.chunks(4096) {
                        let pairs: Vec<([u8; 16], Vec<u8>)> =
                            chunk.iter().map(|&id| (ks.key(id), ks.value(id, 1))).collect();
                        let items: Vec<(&[u8], &[u8])> =
                            pairs.iter().map(|(k, v)| (&k[..], &v[..])).collect();
                        for (&id, r) in chunk.iter().zip(dev.put_batch(&items)) {
                            if let Err(e) = r {
                                failed.push((id, e));
                            }
                        }
                    }
                    failed
                })
            })
            .collect();
        for loader in loaders {
            for (id, e) in loader.join().expect("preload thread panicked") {
                out.failed += 1;
                out.note_error(format!("preload put: {e:?}"));
                failed_ids.push(id);
            }
        }
    });
    (out, failed_ids)
}

/// What the clients of one phase did.
#[derive(Default)]
struct PhaseOut {
    ops: u64,
    failed: u64,
    wrong: u64,
    error_replies: u64,
    elapsed_s: f64,
    get_ns: Vec<Sample>,
    put_ns: Vec<Sample>,
    /// Per submission: one call in process, one window over RESP.
    rtt_ns: Vec<Sample>,
    errors: Vec<String>,
}

impl PhaseOut {
    /// Merge a concurrent client's part: counts, errors and samples.
    fn absorb(&mut self, other: PhaseOut) {
        self.tally(&other);
        self.elapsed_s = self.elapsed_s.max(other.elapsed_s);
        self.get_ns.extend(other.get_ns);
        self.put_ns.extend(other.put_ns);
        self.rtt_ns.extend(other.rtt_ns);
    }

    /// Add another part's counts and errors (not its samples).
    fn tally(&mut self, other: &PhaseOut) {
        self.ops += other.ops;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.error_replies += other.error_replies;
        for e in &other.errors {
            self.note_error(e.clone());
        }
    }

    fn note_error(&mut self, e: String) {
        if self.errors.len() < MAX_ERROR_NOTES {
            self.errors.push(e);
        }
    }

    fn ops_per_s(&self) -> f64 {
        ratio(self.ops as f64, self.elapsed_s)
    }
}

/// When a client stops: after `ops` ops or at `until`, whichever is first.
#[derive(Clone, Copy)]
struct Budget {
    ops: u64,
    until: Option<Instant>,
}

impl Budget {
    fn ops(n: u64) -> Self {
        Budget { ops: n, until: None }
    }

    fn done(self, ops: u64, now: Instant) -> bool {
        ops >= self.ops || self.until.is_some_and(|deadline| now >= deadline)
    }
}

fn key_dist(spec: &Spec, ks: &Keyspace) -> KeyDist {
    match spec.zipf {
        Some(theta) => KeyDist::Zipf(Arc::new(Zipf::new(ks.len() as usize, theta))),
        None => KeyDist::Uniform,
    }
}

/// The clients' op streams for one phase: the same seed gives the same
/// sequence in every phase and every run.
fn streams(spec: &Spec, ks: &Keyspace, seed: u64) -> Vec<OpStream> {
    let dist = key_dist(spec, ks);
    (0..spec.clients)
        .map(|c| OpStream::new(seed, c as u64, dist.clone(), spec.read_frac, ks, c, spec.clients))
        .collect()
}

/// One in-process client: call `get` / `put`, time each, check each.
fn kv_client(
    dev: &ShardedKvssd<RhikIndex>,
    ks: &Keyspace,
    versions: &Versions,
    stream: &mut OpStream,
    budget: Budget,
    start: Instant,
) -> PhaseOut {
    let mut out = PhaseOut::default();
    let mut now = Instant::now();
    while !budget.done(out.ops, now) {
        out.ops += 1;
        match stream.next_op(ks) {
            Op::Get(id) => {
                let key = ks.key(id);
                let lo = versions.acked(id);
                let t0 = Instant::now();
                let r = dev.get(&key);
                now = Instant::now();
                let hi = versions.issued(id);
                let sample = ((now - start).as_nanos() as u64, (now - t0).as_nanos() as u64);
                out.get_ns.push(sample);
                out.rtt_ns.push(sample);
                match r {
                    Ok(v) => {
                        if versions.check_window(ks, id, lo, hi, v.as_deref()) == Check::Wrong {
                            out.wrong += 1;
                        }
                    }
                    Err(e) => {
                        out.failed += 1;
                        out.note_error(format!("get: {e:?}"));
                    }
                }
            }
            Op::Put(id) => {
                let key = ks.key(id);
                let seq = versions.issue(id);
                let value = ks.value(id, seq);
                let t0 = Instant::now();
                let r = dev.put(&key, &value);
                now = Instant::now();
                let sample = ((now - start).as_nanos() as u64, (now - t0).as_nanos() as u64);
                out.put_ns.push(sample);
                out.rtt_ns.push(sample);
                match r {
                    Ok(()) => versions.ack(id, seq),
                    Err(e) => {
                        versions.fail(id, seq);
                        out.failed += 1;
                        out.note_error(format!("put: {e:?}"));
                    }
                }
            }
        }
    }
    out.elapsed_s = (now - start).as_secs_f64();
    out
}

fn kv_phase(
    dev: &ShardedKvssd<RhikIndex>,
    ks: &Keyspace,
    versions: &Versions,
    streams: &mut [OpStream],
    budget: Budget,
    start: Instant,
) -> PhaseOut {
    std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter_mut()
            .map(|stream| scope.spawn(move || kv_client(dev, ks, versions, stream, budget, start)))
            .collect();
        let mut out = PhaseOut::default();
        for h in handles {
            out.absorb(h.join().expect("client thread panicked"));
        }
        out
    })
}

fn enc_command(out: &mut Vec<u8>, args: &[&[u8]]) {
    out.extend_from_slice(format!("*{}\r\n", args.len()).as_bytes());
    for a in args {
        out.extend_from_slice(format!("${}\r\n", a.len()).as_bytes());
        out.extend_from_slice(a);
        out.extend_from_slice(b"\r\n");
    }
}

/// A sent op awaiting its reply.
enum Pending {
    /// A read must return a version in `lo..=` whatever is issued when
    /// its reply arrives.
    Get {
        id: u32,
        lo: u32,
    },
    Put {
        id: u32,
        seq: u32,
    },
}

/// One client thread driving every connection: write a window of ops to
/// each, then read each window's replies in order.
fn resp_phase(
    conns: &mut [RespConn],
    ks: &Keyspace,
    versions: &Versions,
    streams: &mut [OpStream],
    window: usize,
    budget: Budget,
    start: Instant,
) -> PhaseOut {
    let mut out = PhaseOut::default();
    let mut now = Instant::now();
    let mut wire = Vec::new();
    let mut pending: Vec<Vec<Pending>> = conns.iter().map(|_| Vec::new()).collect();
    let mut sent_at = vec![now; conns.len()];
    while !budget.done(out.ops, now) {
        for (c, conn) in conns.iter_mut().enumerate() {
            wire.clear();
            for _ in 0..window {
                match streams[c].next_op(ks) {
                    Op::Get(id) => {
                        // Same-connection writes are ordered before this
                        // read, so the connection that owns the key must
                        // see its own latest write.
                        let lo = if id % streams.len() as u32 == c as u32 {
                            versions.issued(id)
                        } else {
                            versions.acked(id)
                        };
                        enc_command(&mut wire, &[b"GET", &ks.key(id)]);
                        pending[c].push(Pending::Get { id, lo });
                    }
                    Op::Put(id) => {
                        let seq = versions.issue(id);
                        let key = ks.key(id);
                        let value = ks.value(id, seq);
                        enc_command(&mut wire, &[b"SET", &key, &value]);
                        pending[c].push(Pending::Put { id, seq });
                    }
                }
            }
            sent_at[c] = Instant::now();
            conn.send(&wire).expect("send a pipelined window");
        }
        for (c, conn) in conns.iter_mut().enumerate() {
            for p in pending[c].drain(..) {
                out.ops += 1;
                let reply = conn.read_reply().expect("read a reply");
                now = Instant::now();
                let sample =
                    ((now - start).as_nanos() as u64, (now - sent_at[c]).as_nanos() as u64);
                match (p, reply) {
                    (_, Reply::Error(e)) => {
                        out.error_replies += 1;
                        out.failed += 1;
                        out.note_error(format!("-{e}"));
                    }
                    (Pending::Get { id, lo }, reply) => {
                        out.get_ns.push(sample);
                        let got = match &reply {
                            Reply::Bulk(b) => Some(&b[..]),
                            _ => None,
                        };
                        let ok = matches!(reply, Reply::Bulk(_) | Reply::Nil)
                            && versions.check_window(ks, id, lo, versions.issued(id), got)
                                == Check::Ok;
                        if !ok {
                            out.wrong += 1;
                        }
                    }
                    (Pending::Put { id, seq }, reply) => {
                        out.put_ns.push(sample);
                        if reply == Reply::Simple("OK".into()) {
                            versions.ack(id, seq);
                        } else {
                            versions.fail(id, seq);
                            out.wrong += 1;
                        }
                    }
                }
            }
            out.rtt_ns
                .push(((now - start).as_nanos() as u64, (now - sent_at[c]).as_nanos() as u64));
        }
    }
    out.elapsed_s = (now - start).as_secs_f64();
    out
}

fn run_phase(
    spec: &Spec,
    rig: &mut Rig,
    ks: &Keyspace,
    versions: &Versions,
    streams: &mut [OpStream],
    budget: Budget,
    start: Instant,
) -> PhaseOut {
    match spec.front {
        Front::InProcess => kv_phase(&rig.dev, ks, versions, streams, budget, start),
        Front::Resp => {
            let budget = Budget { ops: budget.ops.saturating_mul(streams.len() as u64), ..budget };
            resp_phase(&mut rig.conns, ks, versions, streams, WINDOW, budget, start)
        }
    }
}

/// A measured phase: warm-up, counters before, traffic, counters after.
struct Measured {
    out: PhaseOut,
    before: LayerSnap,
    after: LayerSnap,
    /// Process CPU seconds (all threads) spent in the measured traffic.
    cpu_s: f64,
    /// Warm-up ops (checked, not timed).
    warm: PhaseOut,
}

impl Measured {
    fn diff(&self) -> LayerDiff<'_> {
        LayerDiff { before: &self.before, after: &self.after }
    }
}

fn measure(
    spec: &Spec,
    rig: &mut Rig,
    ks: &Keyspace,
    versions: &Versions,
    seed: u64,
    seconds: f64,
) -> Measured {
    let mut streams = streams(spec, ks, seed);
    let warm = run_phase(
        spec,
        rig,
        ks,
        versions,
        &mut streams,
        Budget::ops(spec.warmup_ops),
        Instant::now(),
    );
    let before = LayerSnap::take(&rig.dev);
    let cpu0 = process_cpu_s();
    let start = Instant::now();
    let budget = Budget { ops: u64::MAX, until: Some(start + Duration::from_secs_f64(seconds)) };
    let out = run_phase(spec, rig, ks, versions, &mut streams, budget, start);
    let cpu_s = process_cpu_s() - cpu0;
    let after = LayerSnap::take(&rig.dev);
    Measured { out, before, after, cpu_s, warm }
}

/// Read every key back with no writes in flight.
fn read_back(dev: &ShardedKvssd<RhikIndex>, ks: &Keyspace, versions: &Versions) -> PhaseOut {
    let mut out = PhaseOut::default();
    for id in 0..ks.len() {
        out.ops += 1;
        match dev.get(&ks.key(id)) {
            Ok(v) => {
                if versions.check_final(ks, id, v.as_deref()) == Check::Wrong {
                    out.wrong += 1;
                }
            }
            Err(e) => {
                out.failed += 1;
                out.note_error(format!("read-back get: {e:?}"));
            }
        }
    }
    out
}

/// Per-call wall times of each layer's public entry points, on ops drawn
/// from the workload's own stream. Runs after the measured phase with no
/// other client active, so it may write any key.
#[derive(Default)]
struct Replay {
    sign_ns: f64,
    lock_wait_ns: f64,
    lookup_ns: f64,
    read_data_page_ns: f64,
    media_read_ns: f64,
    /// Located pages the media refused (still in the DRAM write buffer).
    unreadable: u64,
    get_ns: f64,
    put_ns: f64,
    parse_ns: f64,
    submit_ns: f64,
    resp_ns: f64,
    checks: PhaseOut,
}

fn replay(
    spec: &Spec,
    dev: &ShardedKvssd<RhikIndex>,
    ks: &Keyspace,
    versions: &Versions,
    seed: u64,
) -> Replay {
    let mut r = Replay::default();
    let mut stream = OpStream::new(seed, 999, key_dist(spec, ks), spec.read_frac, ks, 0, 1);
    let ops: Vec<Op> = (0..REPLAY_OPS).map(|_| stream.next_op(ks)).collect();
    let id_of = |op: &Op| match *op {
        Op::Get(id) | Op::Put(id) => id,
    };
    let keys: Vec<[u8; 16]> = ops.iter().map(|op| ks.key(id_of(op))).collect();
    let n = ops.len() as f64;

    // sigs: SigHasher::sign.
    let hasher = spec.cfg.hasher;
    let t = Instant::now();
    for _ in 0..REPLAY_REPS {
        for k in &keys {
            black_box(hasher.sign(black_box(&k[..])));
        }
    }
    r.sign_ns = t.elapsed().as_nanos() as f64 / (n * REPLAY_REPS as f64);

    // kvssd shard lock + rhik-core lookup: with_shard(.., |d| d.locate(k)).
    let mut located: Vec<(usize, Ppa)> = Vec::new();
    let (mut wait, mut lookup) = (0u128, 0u128);
    for k in &keys {
        let shard = dev.shard_for_key(k);
        let t0 = Instant::now();
        let (w, l, ppa) = dev.with_shard(shard, |d| {
            let t1 = Instant::now();
            let ppa = d.locate(k);
            (t1 - t0, t1.elapsed(), ppa)
        });
        wait += w.as_nanos();
        lookup += l.as_nanos();
        if let Ok(Some(ppa)) = ppa {
            located.push((shard, ppa));
        }
    }
    r.lock_wait_ns = wait as f64 / n;
    r.lookup_ns = lookup as f64 / n;

    // ftl: read_data_page; nand: MediaReader::read_page.
    let readers: Vec<_> =
        (0..dev.shard_count()).map(|s| dev.with_shard(s, |d| d.media_reader())).collect();
    let (mut ftl_ns, mut ftl_ok, mut nand_ns, mut nand_ok) = (0u128, 0u64, 0u128, 0u64);
    for &(shard, ppa) in &located {
        let (el, ok) = dev.with_shard(shard, |d| {
            let t = Instant::now();
            let ok = d.ftl_mut().read_data_page(ppa).is_ok();
            (t.elapsed(), ok)
        });
        let t = Instant::now();
        let nand = readers[shard].read_page(ppa).is_ok();
        let nand_el = t.elapsed();
        if ok {
            ftl_ns += el.as_nanos();
            ftl_ok += 1;
        }
        if nand {
            nand_ns += nand_el.as_nanos();
            nand_ok += 1;
        } else {
            r.unreadable += 1;
        }
    }
    r.read_data_page_ns = ratio(ftl_ns as f64, ftl_ok as f64);
    r.media_read_ns = ratio(nand_ns as f64, nand_ok as f64);

    // kvssd: direct ShardedKvssd::get / put.
    let direct = kv_client(
        dev,
        ks,
        versions,
        &mut OpStream::replaying(ops.clone()),
        Budget::ops(n as u64),
        Instant::now(),
    );
    r.get_ns = mean_ns(&direct.get_ns);
    r.put_ns = mean_ns(&direct.put_ns);
    r.checks.absorb(direct);

    // server: resp::parse_frame + decode on the wire bytes of the sample.
    let mut wire = Vec::new();
    for (op, k) in ops.iter().zip(&keys) {
        match *op {
            Op::Get(_) => enc_command(&mut wire, &[b"GET", k]),
            Op::Put(id) => enc_command(&mut wire, &[b"SET", k, &ks.value(id, 1)]),
        }
    }
    let limits = Limits::default();
    let mut args = Vec::new();
    let t = Instant::now();
    for _ in 0..REPLAY_REPS {
        let mut pos = 0;
        while let Ok(Parse::Frame { consumed }) = parse_frame(&wire[pos..], &limits, &mut args) {
            black_box(decode(&wire[pos..], &args).is_ok());
            pos += consumed;
        }
        assert_eq!(pos, wire.len(), "the replay's own wire bytes must parse");
    }
    r.parse_ns = t.elapsed().as_nanos() as f64 / (n * REPLAY_REPS as f64);

    // server: submit_batch of the ops as the server would batch one
    // window (per shard, in order), and the same ops as pipelined RESP
    // windows. Each runs twice, alternating, and the second run is timed,
    // so both see caches warmed the same way.
    let cfg = ServerConfig { workers: 1, ..ServerConfig::default() };
    let server = rhik_server::start(dev.clone(), cfg).expect("bind a loopback server");
    let mut conn = vec![RespConn::connect(server.addr()).expect("connect to the loopback server")];
    for _ in 0..2 {
        r.submit_ns = submit_pass(dev, ks, versions, &ops, &mut r.checks) / n;
        let t = Instant::now();
        let budget = Budget::ops(n as u64);
        let mut stream = [OpStream::replaying(ops.clone())];
        let out = resp_phase(&mut conn, ks, versions, &mut stream, WINDOW, budget, t);
        r.resp_ns = t.elapsed().as_nanos() as f64 / out.ops.max(1) as f64;
        r.checks.absorb(out);
    }
    drop(conn);
    server.shutdown();
    r
}

/// `submit_batch` the ops window by window, each window split per shard
/// in order; returns the nanoseconds spent inside `submit_batch`.
fn submit_pass(
    dev: &ShardedKvssd<RhikIndex>,
    ks: &Keyspace,
    versions: &Versions,
    ops: &[Op],
    checks: &mut PhaseOut,
) -> f64 {
    let mut spent = 0u128;
    for window in ops.chunks(WINDOW) {
        let mut by_shard: Vec<(Vec<BatchOp>, Vec<Pending>)> =
            (0..dev.shard_count()).map(|_| Default::default()).collect();
        for op in window {
            match *op {
                Op::Get(id) => {
                    let key = ks.key(id);
                    let (batch, expect) = &mut by_shard[dev.shard_for_key(&key)];
                    batch.push(BatchOp::Get { key: key.to_vec() });
                    expect.push(Pending::Get { id, lo: versions.acked(id) });
                }
                Op::Put(id) => {
                    let key = ks.key(id);
                    let seq = versions.issue(id);
                    let (batch, expect) = &mut by_shard[dev.shard_for_key(&key)];
                    batch.push(BatchOp::Put { key: key.to_vec(), value: ks.value(id, seq) });
                    expect.push(Pending::Put { id, seq });
                }
            }
        }
        for (shard, (batch, expect)) in by_shard.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            let t = Instant::now();
            let replies = dev.submit_batch(shard, &batch);
            spent += t.elapsed().as_nanos();
            for (p, reply) in expect.into_iter().zip(replies) {
                checks.ops += 1;
                match (p, reply) {
                    (Pending::Get { id, lo }, BatchReply::Get(Ok(v))) => {
                        let hi = versions.issued(id);
                        if versions.check_window(ks, id, lo, hi, v.as_deref()) == Check::Wrong {
                            checks.wrong += 1;
                        }
                    }
                    (Pending::Put { id, seq }, BatchReply::Put(Ok(()))) => versions.ack(id, seq),
                    (p, reply) => {
                        if let Pending::Put { id, seq } = p {
                            versions.fail(id, seq);
                        }
                        checks.failed += 1;
                        checks.note_error(format!("submit_batch: {reply:?}"));
                    }
                }
            }
        }
    }
    spent as f64
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The end-to-end metrics of one measured phase: gated, then informational.
fn end_to_end(setup: &[f64], ms: &Measured, notes: &mut Vec<String>) -> (Vec<Metric>, Vec<Metric>) {
    let out = &ms.out;
    let d = ms.diff();
    let slices = Slices::new((out.elapsed_s * 1e9) as u64, SLICE_NS, MIN_SLICES);
    let get = slices.latency(&out.get_ns);
    let put = slices.latency(&out.put_ns);
    let rtt = slices.latency(&out.rtt_ns);
    let slice_s = slices.slice_ns as f64 / 1e9;
    let per_slice: Vec<String> = slices
        .counts(&[&out.get_ns, &out.put_ns])
        .iter()
        .map(|&c| format!("{:.0}", c as f64 / slice_s))
        .collect();
    notes.push(format!(
        "wall-clock metrics: median over {} slices of {:.1} s; ops/s per slice: {}",
        slices.count,
        slice_s,
        per_slice.join(" ")
    ));
    for (what, l) in [("get", &get), ("put", &put), ("rtt", &rtt)] {
        notes.push(format!(
            "{what}: {} slices, >= {} samples each; tail metric reports p{} \
             (highest with >= 10 samples beyond)",
            l.slices, l.fewest, l.tail_pct
        ));
    }
    // Device-clock metrics are simulated, so host noise cannot touch them:
    // take them over the whole phase.
    let get_dev = d.get_lat();
    let put_dev = d.put_lat();
    let user_bytes = d.delta(|s| s.device.bytes_written);
    let gated = vec![
        m("setup_s", median(setup), "s"),
        m("dev_ops_per_s", ratio(out.ops as f64, d.device_secs()), "1/s"),
        m("dev_get_mean_us", get_dev.mean_ns() / 1e3, "us"),
        m("dev_put_mean_us", put_dev.mean_ns() / 1e3, "us"),
        m("write_amp", ratio(d.delta(|s| s.nand_bytes_programmed), user_bytes), "x"),
        m("peak_rss_mib", peak_rss_mib(), "MiB"),
        m("ok_frac", 1.0 - ratio((out.failed + out.wrong) as f64, out.ops as f64), "frac"),
    ];
    let informational = vec![
        m("ops_per_s", slices.rate(&[&out.get_ns, &out.put_ns]), "1/s"),
        m("get_p50_us", get.p50_us, "us"),
        m("put_p50_us", put.p50_us, "us"),
        m("get_p99_us", get.tail_us, "us"),
        m("put_p99_us", put.tail_us, "us"),
        m("rtt_p50_us", rtt.p50_us, "us"),
        m("rtt_p99_us", rtt.tail_us, "us"),
        m("cpu_us_per_op", ratio(ms.cpu_s * 1e6, out.ops as f64), "us"),
    ];
    (gated, informational)
}

/// The per-layer metrics of one traced run.
fn per_layer(
    spec: &Spec,
    ms: &Measured,
    rp: &Replay,
    traced: &Measured,
    attribution: &Attribution,
) -> Vec<Metric> {
    let d = ms.diff();
    let out = &ms.out;
    let gets = d.delta(|s| s.device.gets);
    let puts = d.delta(|s| s.device.puts);
    let lookups = d.delta(|s| s.lookups);
    let (kv_get_ns, kv_put_ns) = match spec.front {
        // Spans around ShardedKvssd::get / put in the measured traffic.
        Front::InProcess => (mean_ns(&out.get_ns), mean_ns(&out.put_ns)),
        // Behind the server the device is driven by submit_batch; time
        // direct calls on the replay sample instead.
        Front::Resp => (rp.get_ns, rp.put_ns),
    };
    let hot_hits = d.delta(|s| s.hot.hits);
    let lockfree = d.delta(|s| s.lockfree_gets);
    let locked = (gets - hot_hits - lockfree).max(0.0);
    // What the replayed calls explain of a get: signing, then for a
    // lock-free get one media read, for a locked get the shard lock, the
    // index lookup and the FTL data-page read. Hot-cache probes and the
    // put path's record-page update are not replayed.
    let explained_get = rp.sign_ns
        + ratio(lockfree, gets) * rp.media_read_ns
        + ratio(locked, gets) * (rp.lock_wait_ns + rp.lookup_ns + rp.read_data_page_ns);
    let explained_put = rp.sign_ns + rp.lock_wait_ns + rp.lookup_ns;
    // Doublings happen while keys are first written, in set-up; count
    // every resize of the device's life.
    let resizes = &ms.after.resizes;
    let traced_ops = traced.out.ops_per_s();
    vec![
        m("server.parse_ns_per_op", rp.parse_ns, "ns"),
        m("server.device_ns_per_op", rp.submit_ns, "ns"),
        m("server.overhead_ns_per_op", rp.resp_ns - rp.parse_ns - rp.submit_ns, "ns"),
        m("server.error_replies", (out.error_replies + rp.checks.error_replies) as f64, "count"),
        m("kvssd.get_ns", kv_get_ns, "ns"),
        m("kvssd.put_ns", kv_put_ns, "ns"),
        m("kvssd.shard_lock_wait_ns", rp.lock_wait_ns, "ns"),
        m("kvssd.lockfree_share", ratio(lockfree, gets), "frac"),
        m(
            "kvssd.lockfree_fallback_ratio",
            ratio(d.delta(|s| s.lockfree_fallbacks), lockfree + d.delta(|s| s.lockfree_fallbacks)),
            "frac",
        ),
        m(
            "kvssd.group_commit_batch_mean",
            ratio(d.delta(|s| s.commit_puts), d.delta(|s| s.commit_batches)),
            "ops",
        ),
        m("kvssd.get_unexplained_share", 1.0 - ratio(explained_get, kv_get_ns), "frac"),
        m("kvssd.put_unexplained_share", 1.0 - ratio(explained_put, kv_put_ns), "frac"),
        m("hotcache.hit_ratio", ratio(hot_hits, d.delta(|s| s.hot.lookups)), "frac"),
        m(
            "hotcache.stale_hit_ratio",
            ratio(d.delta(|s| s.hot.stale_hits), d.delta(|s| s.hot.lookups)),
            "frac",
        ),
        m(
            "hotcache.admit_ratio",
            ratio(
                d.delta(|s| s.hot.admits),
                d.delta(|s| s.hot.admits) + d.delta(|s| s.hot.rejects),
            ),
            "frac",
        ),
        m("hotcache.evictions", d.delta(|s| s.hot.evictions), "count"),
        m("hotcache.bytes", ms.after.hot.bytes as f64, "B"),
        m("rhik-core.lookup_ns", rp.lookup_ns, "ns"),
        m(
            "rhik-core.metadata_reads_per_lookup",
            ratio(d.delta(|s| s.metadata_reads), lookups),
            "reads",
        ),
        m("rhik-core.max_reads_per_lookup", d.max_reads_per_lookup() as f64, "reads"),
        m(
            "rhik-core.zero_flash_lookup_share",
            ratio(d.delta(|s| s.zero_flash_lookups), lookups),
            "frac",
        ),
        m(
            "rhik-core.metadata_programs_per_put",
            ratio(d.delta(|s| s.metadata_programs), puts),
            "programs",
        ),
        m("rhik-core.resizes", resizes.len() as f64, "count"),
        m("rhik-core.resize_media_ms", resizes.iter().map(|r| r.0).sum::<u64>() as f64 / 1e6, "ms"),
        m(
            "rhik-core.resize_max_step_us",
            resizes.iter().map(|r| r.1).max().unwrap_or(0) as f64 / 1e3,
            "us",
        ),
        m(
            "rhik-core.dram_bytes_per_key",
            ratio(ms.after.dram_bytes as f64, ms.after.keys as f64),
            "B",
        ),
        m("rhik-core.insert_aborts", d.delta(|s| s.insert_aborts), "count"),
        m(
            "ftl.page_cache_hit_ratio",
            ratio(
                d.delta(|s| s.page_cache_hits),
                d.delta(|s| s.page_cache_hits) + d.delta(|s| s.page_cache_misses),
            ),
            "frac",
        ),
        m("ftl.page_cache_dirty_evictions", d.delta(|s| s.page_cache_dirty_evictions), "count"),
        m("ftl.data_reads_per_get", ratio(d.delta(|s| s.lockfree_pages), lockfree), "reads"),
        m("ftl.read_data_page_ns", rp.read_data_page_ns, "ns"),
        m("ftl.gc_runs", d.delta(|s| s.gc_runs), "count"),
        m(
            "ftl.gc_relocated_per_run",
            ratio(d.delta(|s| s.gc_relocated), d.delta(|s| s.gc_runs)),
            "pairs",
        ),
        m("ftl.block_erases", d.delta(|s| s.block_erases), "count"),
        m("ftl.index_page_programs", d.delta(|s| s.index_page_programs), "count"),
        m("nand.page_reads", d.delta(|s| s.nand_reads), "count"),
        m("nand.page_programs", d.delta(|s| s.nand_programs), "count"),
        m("nand.bytes_programmed", d.delta(|s| s.nand_bytes_programmed), "B"),
        m("nand.read_page_ns", rp.media_read_ns, "ns"),
        m("sigs.sign_ns", rp.sign_ns, "ns"),
        m("dev_stage.flash_read_pct", attribution.share_pct(Stage::FlashRead), "%"),
        m("dev_stage.flash_program_pct", attribution.share_pct(Stage::FlashProgram), "%"),
        m("dev_stage.gc_step_pct", attribution.share_pct(Stage::GcStep), "%"),
        m(
            "dev_stage.resize_migrate_batch_pct",
            attribution.share_pct(Stage::ResizeMigrateBatch),
            "%",
        ),
        m("dev_stage.queue_wait_pct", attribution.share_pct(Stage::QueueWait), "%"),
        m("trace.ops_per_s", traced_ops, "1/s"),
        m("trace.overhead_pct", 100.0 * (1.0 - ratio(traced_ops, out.ops_per_s())), "%"),
    ]
}

/// Run one workload for `seconds` of measured traffic.
pub fn run(spec: &Spec, seed: u64, seconds: f64, trace: bool) -> RunResult {
    let ks = Keyspace::new(seed, spec.keys, spec.value_len);
    let mut notes = Vec::new();

    // Set-up, repeated so its median is steady; the last rig is used.
    let mut setup = Vec::new();
    let mut rig = None;
    while setup.len() < SETUP_MIN_REPS
        || (setup.iter().sum::<f64>() < SETUP_MIN_SECS && setup.len() < SETUP_MAX_REPS)
    {
        drop(rig.take());
        let t = Instant::now();
        rig = Some(build_rig(spec, &ks, None));
        setup.push(t.elapsed().as_secs_f64());
        if trace {
            break;
        }
    }
    let mut rig = rig.expect("set-up ran at least once");
    notes.push(format!("setup: {} repetitions, median {:.4} s", setup.len(), median(&setup)));

    let versions = Versions::new(spec.keys);
    for &id in &rig.preload_failed {
        versions.preload_failed(id);
    }
    let ms = measure(spec, &mut rig, &ks, &versions, seed, seconds);
    rig.conns.clear();
    if let Some(server) = rig.server.take() {
        server.shutdown();
    }

    let rp = trace.then(|| replay(spec, &rig.dev, &ks, &versions, seed));
    let back = read_back(&rig.dev, &ks, &versions);
    let report = rig.dev.audit(&mut DeviceAuditor::new());
    let max_reads = LayerSnap::take(&rig.dev).max_reads_per_lookup();
    let rig_preload = std::mem::take(&mut rig.preload);
    drop(rig);
    if !report.is_ok() {
        notes.push(format!(
            "audit: {} violations, first: {:?}",
            report.violations.len(),
            report.violations.first()
        ));
    }
    if max_reads > 1 {
        notes.push(format!("read bound violated: a lookup needed {max_reads} flash reads"));
    }

    // Everything issued to the program counts: warm-up, traffic, replay,
    // read-back and the traced phase. Nothing is retried.
    let mut checks = PhaseOut::default();
    checks.tally(&rig_preload);
    checks.tally(&ms.warm);
    checks.tally(&ms.out);
    checks.tally(&back);
    let (end, informational) = end_to_end(&setup, &ms, &mut notes);
    let per = match rp {
        Some(rp) => {
            // Traced phase: a fresh rig with the device's telemetry sink
            // attached, driven by the same seed, for stage shares and the
            // tracing overhead.
            let sink = TelemetrySink::with_trace_capacity(TRACE_SPANS);
            let mut traced_rig = build_rig(spec, &ks, Some(sink.clone()));
            let traced_versions = Versions::new(spec.keys);
            for &id in &traced_rig.preload_failed {
                traced_versions.preload_failed(id);
            }
            let traced = measure(spec, &mut traced_rig, &ks, &traced_versions, seed, seconds);
            checks.tally(&traced_rig.preload);
            drop(traced_rig);
            checks.tally(&rp.checks);
            checks.tally(&traced.warm);
            checks.tally(&traced.out);
            if rp.unreadable > 0 {
                notes.push(format!(
                    "replay: {} located pages were still in the write buffer (not timed)",
                    rp.unreadable
                ));
            }
            per_layer(spec, &ms, &rp, &traced, &sink.attribution())
        }
        None => Vec::new(),
    };
    for e in &checks.errors {
        notes.push(format!("error: {e}"));
    }

    RunResult {
        correct: checks.wrong == 0 && report.is_ok() && max_reads <= 1,
        attempted: checks.ops,
        failed: checks.failed,
        end_to_end: end,
        informational,
        per_layer: per,
        notes,
    }
}
