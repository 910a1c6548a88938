//! Sharded multi-queue device execution.
//!
//! [`crate::SharedKvssd`] serializes every command behind one global
//! mutex — one submission queue, like a single-queue host driver. Real
//! KV-SSDs expose multiple submission queues, and RHIK's directory makes
//! the keyspace trivially partitionable: the directory entry is selected
//! by *low* signature bits, so taking the *high* bits as a shard id
//! splits the signature space into `S` disjoint slices whose index
//! structures never interact.
//!
//! [`ShardedKvssd`] exploits that: each shard owns a full device
//! front-end (its own `RhikIndex` directory slice, submission-queue
//! mutex, timing engine, and latency histograms), while all shards lease
//! erase blocks from one shared [`FlashPool`] — one physical flash
//! array, many command streams. Commands route by the high signature
//! bits of the key, so:
//!
//! * threads hitting different shards proceed in parallel;
//! * a directory resize (the reconfiguration stall of §IV-C) runs inside
//!   one shard and stalls only that shard's queue — a `1/S` partial
//!   stall instead of a whole-device pause;
//! * per-shard stats and histograms aggregate into a device-wide view
//!   via [`DeviceStats::merge`] / `LatencyHistogram::merge`.
//!
//! Trade-offs (documented, not hidden): GC and wear accounting are per
//! shard — a shard can only reclaim its *own* leased blocks, and the
//! global free-block watermark may trigger GC in a shard with little to
//! reclaim. When one shard exhausts the pool while another still holds
//! garbage, the router runs a device-wide GC sweep (every shard's
//! collector, serialized by the pool's GC permit) and retries before
//! surfacing `DeviceFull`. The single-queue `SharedKvssd` remains the
//! baseline for timing-faithful single-stream experiments.

use std::sync::Arc;

use bytes::Bytes;
use rhik_core::{IndexReader, ReadLookup, RhikIndex};
use rhik_ftl::layout;
// Per-shard locks via ftl::sync so `cfg(loom)` builds model them (and
// wslint's `std-mutex-outside-sync` rule holds workspace-wide).
use rhik_ftl::sync::{Condvar, Counter, Mutex, MutexGuard};
use rhik_ftl::{FlashPool, Ftl, IndexBackend};
use rhik_sigs::{KeySignature, SigHasher};
use rhik_telemetry::{LatencyHistogram, OpKind, OpSpan, TelemetrySink};

use crate::cache_tier::{CacheTier, Probe};
use crate::config::DeviceConfig;
use crate::device::{DeviceStats, ExistReport, KvssdDevice};
use crate::error::KvError;
use crate::Result;

// ------------------------------------------------------ lock-free reads

/// Per-shard lock-free get machinery: an [`IndexReader`] over the
/// shard's published directory, page cache and media — never the
/// shard's command mutex. All counters are relaxed [`Counter`]s; the
/// latency histogram and telemetry sink sit behind their own short-hold
/// mutexes, touched only *after* the lookup and flash reads complete.
struct ReadPath {
    index: IndexReader,
    gets: Counter,
    hits: Counter,
    not_found: Counter,
    fallbacks: Counter,
    pages_read: Counter,
    bytes_read: Counter,
    /// Simulated media time spent by lock-free reads (pages × t_read).
    /// Folded into the shard's device clock: these reads bypass the
    /// timing engine, so the clock must account for them separately.
    read_ns: Counter,
    latencies: Mutex<LatencyHistogram>,
    /// 1 when an enabled telemetry sink is installed (checked before
    /// taking the sink mutex, so disabled telemetry costs one load).
    telemetry_on: Counter,
    telemetry: Mutex<TelemetrySink>,
}

impl ReadPath {
    fn new(index: IndexReader) -> Self {
        ReadPath {
            index,
            gets: Counter::new(),
            hits: Counter::new(),
            not_found: Counter::new(),
            fallbacks: Counter::new(),
            pages_read: Counter::new(),
            bytes_read: Counter::new(),
            read_ns: Counter::new(),
            latencies: Mutex::new(LatencyHistogram::new()),
            telemetry_on: Counter::new(),
            telemetry: Mutex::new(TelemetrySink::disabled()),
        }
    }

    /// Charge the reads of an abandoned attempt to the shard clock: they
    /// happened on real media even though the locked retry pays again.
    fn charge_wasted(&self, index_reads: u64, pages: u64) {
        self.pages_read.add(pages);
        self.read_ns.add((index_reads + pages) * self.index.media().page_read_ns());
    }

    /// Record one completed lock-free get: `index_reads` record-page and
    /// `pages` data-page reads.
    fn record(&self, shard: u32, index_reads: u64, pages: u64, bytes: u64, hit: bool) {
        let latency = (index_reads + pages) * self.index.media().page_read_ns();
        let start = self.read_ns.get();
        self.read_ns.add(latency);
        self.index.note_lookup(index_reads);
        self.gets.incr();
        if hit {
            self.hits.incr();
            self.bytes_read.add(bytes);
        } else {
            self.not_found.incr();
        }
        self.pages_read.add(pages);
        self.latencies.lock().unwrap_or_else(|p| p.into_inner()).record(latency);
        if self.telemetry_on.get() != 0 {
            let sink = self.telemetry.lock().unwrap_or_else(|p| p.into_inner()).clone();
            let span = OpSpan {
                kind: OpKind::Get,
                shard,
                submitted_ns: start,
                completed_ns: start + latency,
                lookup_flash_reads: index_reads,
                stages: Vec::new(), // bounded-by: built empty; the read path records no stages
            };
            let latency = Some(("get_latency_ns", latency));
            sink.record_op(span, "kvssd_gets", latency, Some(index_reads), &[]);
        }
    }
}

/// Aggregated lock-free read-path counters (diagnostics, benches, the
/// adversarial snapshot-read test).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LockfreeReadStats {
    /// Gets completed entirely on the lock-free path.
    pub gets: u64,
    /// Of those, gets that returned a value.
    pub hits: u64,
    /// Validated misses.
    pub not_found: u64,
    /// Attempts that bounced to the locked path (contention, pending
    /// write buffer, failed post-read validation).
    pub fallbacks: u64,
    /// Data pages read through the media lock (head + continuation).
    pub pages_read: u64,
    /// Value bytes returned by lock-free hits.
    pub bytes_read: u64,
}

// ------------------------------------------------------- group commit

/// One waiter's mailbox in the put group-commit queue.
struct PutSlot {
    result: Mutex<Option<Result<()>>>,
    ready: Condvar,
}

struct PendingPut {
    key: Vec<u8>,
    value: Vec<u8>,
    slot: Arc<PutSlot>,
}

struct CommitQueue {
    items: Vec<PendingPut>,
    /// True while some thread is draining the queue into the shard.
    /// Cleared only in the same critical section that observes the
    /// queue empty, so no enqueued item can be stranded: a push either
    /// lands before that observation (the leader drains it) or after
    /// the flag cleared (the pusher elects itself leader).
    leader_active: bool,
}

/// Per-shard write group commit: concurrent puts enqueue, the first
/// arrival becomes the *leader* and drains the queue into the shard
/// under one lock acquisition per batch (one compound submission),
/// while followers block on their slot's condvar. Coalescing turns N
/// contended lock hand-offs into one critical section per batch.
struct GroupCommit {
    queue: Mutex<CommitQueue>,
    batches: Counter,
    batched_puts: Counter,
    max_batch: Counter,
}

impl GroupCommit {
    fn new() -> Self {
        GroupCommit {
            // bounded-by: the batch leader swaps out the whole queue each
            // commit round (drain_commits), so it holds at most the puts
            // enqueued during one batch submission.
            queue: Mutex::new(CommitQueue { items: Vec::new(), leader_active: false }),
            batches: Counter::new(),
            batched_puts: Counter::new(),
            max_batch: Counter::new(),
        }
    }

    fn lock_queue(&self) -> MutexGuard<'_, CommitQueue> {
        self.queue.lock().unwrap_or_else(|poison| poison.into_inner())
    }
}

/// Aggregated group-commit counters (diagnostics and benches).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GroupCommitStats {
    /// Batches drained (shard-lock acquisitions for puts).
    pub batches: u64,
    /// Puts that flowed through the queue.
    pub batched_puts: u64,
    /// Largest single batch observed on any shard.
    pub max_batch: u64,
}

// ---------------------------------------------------- batch submission

/// One operation in a host-assembled per-shard batch. Network front ends
/// (`rhik-server`) coalesce pipelined commands per shard and hand the
/// whole batch over in one [`ShardedKvssd::submit_batch`] call, so N
/// pipelined ops cost one shard handoff instead of N.
#[derive(Clone, Debug)]
pub enum BatchOp {
    Get { key: Vec<u8> },
    Put { key: Vec<u8>, value: Vec<u8> },
    Delete { key: Vec<u8> },
    Exists { key: Vec<u8> },
}

impl BatchOp {
    /// The key this op addresses (routing + cost accounting).
    pub fn key(&self) -> &[u8] {
        match self {
            BatchOp::Get { key }
            | BatchOp::Put { key, .. }
            | BatchOp::Delete { key }
            | BatchOp::Exists { key } => key,
        }
    }

    /// Payload bytes this op carries (admission-control cost accounting).
    pub fn payload_bytes(&self) -> usize {
        match self {
            BatchOp::Put { key, value } => key.len() + value.len(),
            BatchOp::Get { key } | BatchOp::Delete { key } | BatchOp::Exists { key } => key.len(),
        }
    }
}

/// Reply to one [`BatchOp`], in submission order.
#[derive(Clone, Debug)]
pub enum BatchReply {
    Get(Result<Option<Bytes>>),
    Put(Result<()>),
    Delete(Result<()>),
    Exists(Result<bool>),
}

/// Outcome of one fast-path (no shard lock) get attempt.
enum FastGet {
    /// Completed on the cache or lock-free path; stats recorded.
    Done(Result<Option<Bytes>>),
    /// Needs the locked path; carries the cache fill ticket (version
    /// observed before the read) so a locked-path hit can still be
    /// admitted under the re-check protocol.
    NeedsLock { fill_version: Option<u64> },
}

/// Per-shard state living *outside* the shard's command mutex.
struct ShardExt {
    read: ReadPath,
    commit: GroupCommit,
}

/// A cloneable handle to a sharded device: `S` independent command
/// queues over one shared flash array.
pub struct ShardedKvssd<I: IndexBackend> {
    shards: Arc<[Mutex<KvssdDevice<I>>]>,
    ext: Arc<[ShardExt]>,
    pool: Arc<FlashPool>,
    hasher: SigHasher,
    /// High signature bits selecting the shard (`log2(shard count)`).
    shard_bits: u32,
    /// DRAM hot-object cache tier, `Some` when `cfg.hot_cache.enabled`
    /// and every shard's index accepted the invalidation version table.
    cache: Option<Arc<CacheTier>>,
}

impl<I: IndexBackend> Clone for ShardedKvssd<I> {
    fn clone(&self) -> Self {
        ShardedKvssd {
            shards: Arc::clone(&self.shards),
            ext: Arc::clone(&self.ext),
            pool: Arc::clone(&self.pool),
            hasher: self.hasher,
            shard_bits: self.shard_bits,
            cache: self.cache.clone(),
        }
    }
}

impl ShardedKvssd<RhikIndex> {
    /// Build a sharded RHIK device with `cfg.shards` shards (see
    /// [`DeviceConfig::with_shards`]).
    ///
    /// Each shard gets `1/S` of the DRAM cache budget and a directory
    /// starting `log2(S)` bits smaller ([`rhik_core::RhikConfig::for_shard`]),
    /// so aggregate initial capacity matches the unsharded device. The
    /// GC reserve is global: at least one scratch block per shard.
    pub fn rhik(cfg: DeviceConfig) -> Self {
        let count = cfg.shards;
        let shard_bits = cfg.shard_bits();
        // The reserve is tiered (see [`rhik_ftl::AcquireClass`]): host
        // writes stop at `reserve` free blocks, index write-backs at
        // `reserve/2`, GC at zero. Collection is serialized device-wide
        // (the pool's GC permit), so the bottom half must cover ONE
        // collection's worst-case scratch — open data/extent/index
        // relocation targets plus a directory resize triggered
        // mid-relocation, and any open blocks an aborted collection left
        // behind. Scale with shard count, floor of 8, capped for tiny
        // geometries.
        let reserve =
            (2 * cfg.gc_reserve_blocks * count).max(8).min(cfg.geometry.blocks / 4).max(1);
        let pool = Arc::new(FlashPool::new(cfg.geometry, reserve));

        let mut shard_cfg = cfg;
        shard_cfg.cache_budget_bytes =
            (cfg.cache_budget_bytes / count as usize).max(cfg.geometry.page_size as usize);
        shard_cfg.rhik = cfg.rhik.for_shard(shard_bits);
        // The GC watermarks are compared against the *global* free count
        // (above the reserve), but each shard can only reclaim its own
        // garbage — and S shards together keep up to 3·S blocks open.
        // Add one block of trigger margin and two of target hysteresis
        // per shard so every shard starts collecting while the others
        // still have allocation headroom.
        shard_cfg.gc = rhik_ftl::GcConfig {
            low_watermark: cfg.gc.low_watermark + count,
            high_watermark: cfg.gc.high_watermark + 2 * count,
            // Incremental collection: one huge run would land on
            // whichever shard holds the GC permit and serialize the
            // whole debt onto that one queue's clock. Small slices let
            // the watermark re-trigger on later commands, spreading
            // collection across shards.
            max_victims_per_run: 2,
            ..cfg.gc
        };

        // One version table + hot cache for the whole device: mutations
        // route to exactly one shard per signature, so a single table
        // sees every bump for a given key.
        let mut cache =
            cfg.hot_cache.enabled.then(|| Arc::new(CacheTier::new(cfg.hot_cache, count as usize)));

        let mut shards: Vec<Mutex<KvssdDevice<RhikIndex>>> = Vec::with_capacity(count as usize);
        let mut ext: Vec<ShardExt> = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let ftl = Ftl::with_pool(shard_cfg.ftl_config(), Arc::clone(&pool));
            let index = RhikIndex::new(shard_cfg.rhik, shard_cfg.geometry.page_size);
            let mut dev = KvssdDevice::with_index_and_ftl(shard_cfg, ftl, index);
            let read = ReadPath::new(dev.index_reader());
            // The cache tier requires the backend to bump invalidation
            // versions; a refusal disables the cache (fail-open).
            if let Some(tier) = &cache {
                if !dev.attach_versions(Arc::clone(&tier.versions)) {
                    cache = None;
                }
            }
            shards.push(Mutex::new(dev));
            ext.push(ShardExt { read, commit: GroupCommit::new() });
        }

        ShardedKvssd {
            shards: shards.into(),
            ext: ext.into(),
            pool,
            hasher: cfg.hasher,
            shard_bits,
            cache,
        }
    }

    /// Cross-layer audit over every shard, including the global checks no
    /// single shard can run: no PPA claimed by two shards' directories,
    /// no erase block leased twice, and free + leased covering the pool
    /// exactly. Holds every shard's lock simultaneously (acquired in
    /// shard order; no other path holds two at once) so the cross-shard
    /// pool accounting is one consistent snapshot — safe to call while
    /// other threads keep issuing commands.
    pub fn audit(&self, auditor: &mut rhik_audit::DeviceAuditor) -> rhik_audit::AuditReport {
        let guards: Vec<_> = (0..self.shards.len()).map(|s| self.lock(s)).collect();
        let mut shards = Vec::with_capacity(self.shards.len());
        let mut gauges = Vec::new();
        let mut cache_samples = Vec::new();
        for (shard, dev) in guards.iter().enumerate() {
            let (flash, index, shard_gauges) = dev.audit_parts();
            shards.push((flash, index));
            gauges.extend(shard_gauges);
            // Cache↔index coherence: with every shard lock held the
            // keyspace is quiescent — join every still-current cached
            // entry of this shard's slice against the directory →
            // record-page → head-page chain.
            self.collect_cache_samples(shard, dev, &mut cache_samples);
        }
        let mut report = auditor.check_sharded(&shards, &gauges);
        report.violations.extend(auditor.check_cache(&cache_samples).violations);
        report
    }

    /// Gather [`rhik_audit::CacheCoherenceSample`]s for `shard`'s slice
    /// of the signature space, reading the index through `dev` — the
    /// shard's device, whose lock the caller holds, so versions observed
    /// here are stable for the join.
    fn collect_cache_samples(
        &self,
        shard: usize,
        dev: &KvssdDevice<RhikIndex>,
        samples: &mut Vec<rhik_audit::CacheCoherenceSample>,
    ) {
        let Some(tier) = &self.cache else { return };
        for entry in tier.snapshot() {
            if self.shard_of(KeySignature(entry.sig)) != shard {
                continue;
            }
            let current = tier.versions.load(entry.sig);
            if current != entry.version {
                continue; // unservable by construction — not sampled
            }
            samples.push(rhik_audit::CacheCoherenceSample {
                shard: shard as u32,
                sig: entry.sig,
                fill_version: entry.version,
                current_version: current,
                cached_value: entry.value.to_vec(),
                index_value: dev.audit_read(&entry.key),
            });
        }
    }
}

impl<I: IndexBackend + Send> ShardedKvssd<I> {
    /// Which shard serves `sig`: the high `shard_bits` bits of the
    /// signature. Disjoint from the directory's low-bit selection, so
    /// sharding never skews per-shard directory occupancy.
    pub fn shard_of(&self, sig: KeySignature) -> usize {
        if self.shard_bits == 0 {
            0
        } else {
            (sig.0 >> (64 - self.shard_bits)) as usize
        }
    }

    fn route(&self, key: &[u8]) -> usize {
        self.shard_of(self.hasher.sign(key))
    }

    /// Take one shard's submission-queue lock. Poisoning is not fatal
    /// (a panicked command leaves the shard at a command boundary).
    fn lock(&self, shard: usize) -> MutexGuard<'_, KvssdDevice<I>> {
        self.shards[shard].lock().unwrap_or_else(|poison| poison.into_inner())
    }

    /// Device-wide GC sweep. A shard's collector can only reclaim blocks
    /// that shard leased, so when the pool runs dry the garbage may sit
    /// in *other* shards' blocks — unreachable to the shard that hit the
    /// wall. Runs every shard's collector (one at a time; the pool's GC
    /// permit serializes collection anyway) and reports whether anything
    /// was reclaimed.
    fn gc_sweep(&self) -> Result<bool> {
        let mut reclaimed = false;
        for shard in 0..self.shards.len() {
            reclaimed |= self.lock(shard).collect_garbage()?;
        }
        Ok(reclaimed)
    }

    /// Run `op` on one shard, recovering from `DeviceFull` with a
    /// device-wide GC sweep. Retries as long as each sweep reclaims
    /// blocks; `DeviceFull` surfaces only when no shard has garbage
    /// left. The shard lock is released between attempt and sweep so
    /// the sweep can visit this shard too.
    fn with_full_retry<R>(
        &self,
        shard: usize,
        mut op: impl FnMut(&mut KvssdDevice<I>) -> Result<R>,
    ) -> Result<R> {
        loop {
            let r = op(&mut self.lock(shard));
            match r {
                Err(KvError::DeviceFull) => {
                    if !self.gc_sweep()? {
                        return Err(KvError::DeviceFull);
                    }
                }
                other => return other,
            }
        }
    }

    /// `put` with write group commit: enqueue, then either drain the
    /// shard as batch leader or wait for the current leader to carry
    /// this item in its next batch. Either way the result comes back
    /// through the slot; `DeviceFull` is retried by the *owner* (with a
    /// device-wide GC sweep) outside all queue and shard locks.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        let shard = self.route(key);
        let slot = Arc::new(PutSlot { result: Mutex::new(None), ready: Condvar::new() });
        let lead = {
            let mut q = self.ext[shard].commit.lock_queue();
            q.items.push(PendingPut {
                key: key.to_vec(),
                value: value.to_vec(),
                slot: Arc::clone(&slot),
            });
            !std::mem::replace(&mut q.leader_active, true)
        };
        if lead {
            self.drain_commits(shard);
        }
        // The leader filled its own slot while draining; followers wait.
        let result = {
            let mut done = slot.result.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if let Some(r) = done.take() {
                    break r;
                }
                done = slot.ready.wait(done).unwrap_or_else(|p| p.into_inner());
            }
        };
        match result {
            Err(KvError::DeviceFull) => self.with_full_retry(shard, |dev| dev.put(key, value)),
            other => other,
        }
    }

    /// Batch leader: repeatedly swap the queue out and execute it as one
    /// compound submission under a single shard-lock acquisition. The
    /// `leader_active` flag is cleared only in the critical section that
    /// sees the queue empty, so every concurrently enqueued item is
    /// either drained here or enqueued by a thread that sees the flag
    /// down and leads its own batch.
    fn drain_commits(&self, shard: usize) {
        let commit = &self.ext[shard].commit;
        loop {
            let batch = {
                let mut q = commit.lock_queue();
                if q.items.is_empty() {
                    q.leader_active = false;
                    return;
                }
                std::mem::take(&mut q.items)
            };
            commit.batches.incr();
            commit.batched_puts.add(batch.len() as u64);
            commit.max_batch.note_max(batch.len() as u64);
            let mut results = Vec::with_capacity(batch.len());
            {
                let mut dev = self.lock(shard);
                if batch.len() > 1 {
                    dev.begin_compound();
                }
                for item in &batch {
                    results.push(dev.put(&item.key, &item.value));
                }
                if batch.len() > 1 {
                    dev.end_compound();
                }
            }
            for (item, result) in batch.into_iter().zip(results) {
                let mut done = item.slot.result.lock().unwrap_or_else(|p| p.into_inner());
                *done = Some(result);
                item.slot.ready.notify_one();
            }
        }
    }

    /// `get`: the hot-object cache answers first (a validated DRAM hit
    /// costs zero directory work and zero flash reads), then the
    /// lock-free path — take the slot from the published directory,
    /// probe its record page (page cache, or one flash read), read the
    /// data page through the media lock, validate, and return without
    /// ever touching the shard's command mutex. Any ambiguity (contended
    /// slot, pending write buffer, failed validation) falls back to the
    /// classic locked path. Values read from the index are offered back
    /// to the cache under the version-re-check fill protocol (see
    /// `cache_tier`).
    pub fn get(&self, key: &[u8]) -> Result<Option<Bytes>> {
        let sig = self.hasher.sign(key);
        let shard = self.shard_of(sig);
        match self.fast_get(shard, sig, key) {
            FastGet::Done(result) => result,
            FastGet::NeedsLock { fill_version } => {
                let result = self.lock(shard).get(key);
                self.admit_after_read(shard, sig, key, fill_version, &result);
                result
            }
        }
    }

    /// The no-shard-lock prefix of a get: cache probe, then a lock-free
    /// index lookup. Both `get` and `submit_batch` start here; only the
    /// locked fallback differs (single command vs. compound batch).
    fn fast_get(&self, shard: usize, sig: KeySignature, key: &[u8]) -> FastGet {
        if key.is_empty() {
            // The locked path owns argument validation.
            return FastGet::NeedsLock { fill_version: None };
        }
        let fill_version = match &self.cache {
            Some(tier) => match tier.probe(shard as u32, sig, key) {
                Probe::Hit(value) => return FastGet::Done(Ok(Some(value))),
                Probe::Fill(v1) => Some(v1),
            },
            None => None,
        };
        let read = &self.ext[shard].read;
        match self.lockfree_get(read, shard as u32, sig, key) {
            Some(result) => {
                self.admit_after_read(shard, sig, key, fill_version, &result);
                FastGet::Done(result)
            }
            None => {
                read.fallbacks.incr();
                FastGet::NeedsLock { fill_version }
            }
        }
    }

    /// Step 3 of the cache fill protocol, shared by every read path.
    fn admit_after_read(
        &self,
        shard: usize,
        sig: KeySignature,
        key: &[u8],
        fill_version: Option<u64>,
        result: &Result<Option<Bytes>>,
    ) {
        if let (Some(tier), Some(v1), Ok(Some(value))) = (&self.cache, fill_version, result) {
            tier.try_admit(shard as u32, sig, key, value, v1);
        }
    }

    /// Which shard a key routes to (front ends use this to assemble
    /// per-shard batches for [`ShardedKvssd::submit_batch`]).
    pub fn shard_for_key(&self, key: &[u8]) -> usize {
        self.route(key)
    }

    /// Execute a host-assembled batch of ops that all route to `shard`,
    /// in order, under at most one shard-lock acquisition. Gets are first
    /// answered on the cache / lock-free path (no lock at all); whatever
    /// remains — puts, deletes, exists, fallback gets — runs as one
    /// compound submission, so the modeled device sees one queue handoff
    /// for the whole batch. Replies come back in submission order.
    /// `DeviceFull` is retried per op with a device-wide GC sweep after
    /// the compound ends (the sweep needs the shard lock released).
    pub fn submit_batch(&self, shard: usize, ops: &[BatchOp]) -> Vec<BatchReply> {
        let mut replies: Vec<Option<BatchReply>> = ops.iter().map(|_| None).collect();
        let mut locked: Vec<(usize, Option<u64>)> = Vec::new();
        // Gets may leave the batch for the no-lock fast path only while
        // no earlier op in the batch mutates: a get *after* a put/delete
        // must observe it (pipelined read-your-writes), and neither the
        // cache nor the published read view reflects the mutation until
        // the locked pass below actually runs it.
        let mut mutated = false;
        for (i, op) in ops.iter().enumerate() {
            debug_assert_eq!(
                self.route(op.key()),
                shard,
                "batch op routed to the wrong shard queue"
            );
            match op {
                BatchOp::Get { key } if !mutated => {
                    let sig = self.hasher.sign(key);
                    match self.fast_get(shard, sig, key) {
                        FastGet::Done(result) => replies[i] = Some(BatchReply::Get(result)),
                        FastGet::NeedsLock { fill_version } => locked.push((i, fill_version)),
                    }
                }
                BatchOp::Get { .. } | BatchOp::Exists { .. } => locked.push((i, None)),
                BatchOp::Put { .. } | BatchOp::Delete { .. } => {
                    mutated = true;
                    locked.push((i, None));
                }
            }
        }
        if !locked.is_empty() {
            let mut dev = self.lock(shard);
            if locked.len() > 1 {
                dev.begin_compound();
            }
            for &(i, _) in &locked {
                replies[i] = Some(match &ops[i] {
                    BatchOp::Get { key } => BatchReply::Get(dev.get(key)),
                    BatchOp::Put { key, value } => BatchReply::Put(dev.put(key, value)),
                    BatchOp::Delete { key } => BatchReply::Delete(dev.delete(key)),
                    BatchOp::Exists { key } => {
                        BatchReply::Exists(dev.exist(key).map(|r| r.probably_exists))
                    }
                });
            }
            if locked.len() > 1 {
                dev.end_compound();
            }
        }
        for &(i, fill_version) in &locked {
            match (&ops[i], &replies[i]) {
                // Locked-path read hits still feed the hot cache.
                (BatchOp::Get { key }, Some(BatchReply::Get(result))) => {
                    let sig = self.hasher.sign(key);
                    self.admit_after_read(shard, sig, key, fill_version, result);
                }
                // Full-device mutations retry outside the compound, where
                // the device-wide sweep can take every shard lock.
                (BatchOp::Put { key, value }, Some(BatchReply::Put(Err(KvError::DeviceFull)))) => {
                    replies[i] = Some(BatchReply::Put(
                        self.with_full_retry(shard, |dev| dev.put(key, value)),
                    ));
                }
                (BatchOp::Delete { key }, Some(BatchReply::Delete(Err(KvError::DeviceFull)))) => {
                    replies[i] = Some(BatchReply::Delete(
                        self.with_full_retry(shard, |dev| dev.delete(key)),
                    ));
                }
                _ => {}
            }
        }
        replies
            .into_iter()
            .map(|r| match r {
                Some(reply) => reply,
                // Unreachable: every index is either answered in pass 1 or
                // pushed to `locked` and answered in pass 2.
                None => BatchReply::Get(Err(KvError::Corrupt("unanswered batch op".into()))),
            })
            .collect()
    }

    /// One lock-free get attempt. `Some(result)` is a completed command
    /// (stats and latency recorded); `None` means fall back to the
    /// locked path, which re-runs the command from scratch.
    fn lockfree_get(
        &self,
        read: &ReadPath,
        shard: u32,
        sig: KeySignature,
        key: &[u8],
    ) -> Option<Result<Option<Bytes>>> {
        let (head, index_reads, slot) = match read.index.lookup(sig) {
            ReadLookup::Done { head, index_reads, slot } => (head, index_reads, slot),
            ReadLookup::Contended { index_reads } => {
                read.charge_wasted(index_reads, 0);
                return None;
            }
        };
        let Some(head) = head else {
            // The §IV-A3 signature-only answer: no data page read.
            if !slot.validate() {
                read.charge_wasted(index_reads, 0);
                return None;
            }
            read.record(shard, index_reads, 0, 0, false);
            return Some(Ok(None));
        };
        // Optimistic flash read: the head may be stale (concurrent
        // update/GC) or still in the DRAM write buffer (unprogrammed
        // page ⇒ the media read errors). Validation decides.
        let media = read.index.media();
        let mut pages = 1u64;
        let Ok((data, _)) = media.read_page(head) else {
            read.charge_wasted(index_reads, 0);
            return None;
        };
        let page_size = media.geometry().page_size as usize;
        let Some(entry) = layout::find_in_head(&data, page_size, sig) else {
            read.charge_wasted(index_reads, pages);
            return None;
        };
        if entry.key != key {
            // Stored pair is a different key: either a true signature
            // collision (report not-found) or a stale page — validate
            // to tell them apart.
            if !slot.validate() {
                read.charge_wasted(index_reads, pages);
                return None;
            }
            read.record(shard, index_reads, pages, 0, false);
            return Some(Ok(None));
        }
        let mut value = entry.value_frag.to_vec();
        let body = (entry.val_total_len - entry.frag_len) as usize;
        if body > 0 {
            let read_body = entry.cont_start.ok_or(()).and_then(|start| {
                layout::append_body(&mut value, start, body, |ppa| {
                    let (page, _) = media.read_page(ppa).map_err(|_| ())?;
                    pages += 1;
                    Ok(page)
                })
            });
            if read_body.is_err() {
                read.charge_wasted(index_reads, pages);
                return None;
            }
        }
        if !slot.validate() {
            read.charge_wasted(index_reads, pages);
            return None;
        }
        read.record(shard, index_reads, pages, value.len() as u64, true);
        Some(Ok(Some(Bytes::from(value))))
    }

    pub fn delete(&self, key: &[u8]) -> Result<()> {
        self.with_full_retry(self.route(key), |dev| dev.delete(key))
    }

    pub fn exist(&self, key: &[u8]) -> Result<ExistReport> {
        self.lock(self.route(key)).exist(key)
    }

    /// Store a batch of pairs, grouped by shard so each shard's queue is
    /// locked once and its commands run as one compound submission.
    /// Results come back in input order.
    pub fn put_batch(&self, items: &[(&[u8], &[u8])]) -> Vec<Result<()>> {
        let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (i, (key, _)) in items.iter().enumerate() {
            by_shard[self.route(key)].push(i);
        }
        let mut results: Vec<Option<Result<()>>> = items.iter().map(|_| None).collect();
        for (shard, idxs) in by_shard.iter().enumerate() {
            if idxs.is_empty() {
                continue;
            }
            let mut dev = self.lock(shard);
            dev.begin_compound();
            for &i in idxs {
                let (key, value) = items[i];
                results[i] = Some(dev.put(key, value));
            }
            dev.end_compound();
        }
        // Items that hit a full device retry individually: the compound
        // holds the shard lock, so the device-wide sweep must run after
        // it ends.
        for (i, slot) in results.iter_mut().enumerate() {
            if matches!(slot, Some(Err(KvError::DeviceFull))) {
                let (key, value) = items[i];
                *slot = Some(self.with_full_retry(self.route(key), |dev| dev.put(key, value)));
            }
        }
        results.into_iter().map(|r| r.expect("every item routed to a shard")).collect()
    }

    /// Fetch a batch of keys, grouped by shard (one lock + one compound
    /// submission per shard). Results come back in input order.
    pub fn get_batch(&self, keys: &[&[u8]]) -> Vec<Result<Option<Bytes>>> {
        let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (i, key) in keys.iter().enumerate() {
            by_shard[self.route(key)].push(i);
        }
        let mut results: Vec<Option<Result<Option<Bytes>>>> = keys.iter().map(|_| None).collect();
        for (shard, idxs) in by_shard.iter().enumerate() {
            if idxs.is_empty() {
                continue;
            }
            let mut dev = self.lock(shard);
            dev.begin_compound();
            for &i in idxs {
                results[i] = Some(dev.get(keys[i]));
            }
            dev.end_compound();
        }
        results.into_iter().map(|r| r.expect("every key routed to a shard")).collect()
    }

    /// Flush every shard (shutdown / checkpoint).
    pub fn flush(&self) -> Result<()> {
        for shard in 0..self.shards.len() {
            self.lock(shard).flush()?;
        }
        Ok(())
    }

    /// Device-wide stats: field-wise sum over shards.
    pub fn stats(&self) -> DeviceStats {
        let mut total = DeviceStats::default();
        for shard in 0..self.shards.len() {
            total.merge(&self.shard_stats(shard));
        }
        total
    }

    /// Stats of one shard (diagnostics, load-balance analysis). Gets
    /// completed on the lock-free path are folded in, so per-shard and
    /// device-wide views both cover every command.
    pub fn shard_stats(&self, shard: usize) -> DeviceStats {
        let mut stats = self.lock(shard).stats();
        let read = &self.ext[shard].read;
        stats.gets += read.gets.get();
        stats.not_found += read.not_found.get();
        stats.bytes_read += read.bytes_read.get();
        if let Some(tier) = &self.cache {
            tier.fold_shard_stats(shard, &mut stats);
        }
        stats
    }

    /// Hot-object cache counters and occupancy; `None` when the cache
    /// tier is disabled.
    pub fn hot_cache_stats(&self) -> Option<rhik_hotcache::CacheStats> {
        self.cache.as_ref().map(|tier| tier.stats())
    }

    /// Aggregated lock-free read-path counters over every shard.
    pub fn lockfree_read_stats(&self) -> LockfreeReadStats {
        let mut total = LockfreeReadStats::default();
        for ext in self.ext.iter() {
            let read = &ext.read;
            total.gets += read.gets.get();
            total.hits += read.hits.get();
            total.not_found += read.not_found.get();
            total.fallbacks += read.fallbacks.get();
            total.pages_read += read.pages_read.get();
            total.bytes_read += read.bytes_read.get();
        }
        total
    }

    /// Aggregated put group-commit counters over every shard.
    pub fn group_commit_stats(&self) -> GroupCommitStats {
        let mut total = GroupCommitStats::default();
        for ext in self.ext.iter() {
            total.batches += ext.commit.batches.get();
            total.batched_puts += ext.commit.batched_puts.get();
            total.max_batch = total.max_batch.max(ext.commit.max_batch.get());
        }
        total
    }

    pub fn key_count(&self) -> u64 {
        (0..self.shards.len()).map(|s| self.lock(s).key_count()).sum()
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    pub fn shard_bits(&self) -> u32 {
        self.shard_bits
    }

    /// The shared free-block pool (capacity diagnostics).
    pub fn pool(&self) -> &FlashPool {
        &self.pool
    }

    /// Simulated device time since power-on. Shard queues run in
    /// parallel on the modeled hardware, so the device is done when its
    /// *slowest* shard is — the max over per-shard clocks. (Compare:
    /// `SharedKvssd` accrues every command on one clock.)
    pub fn device_elapsed_secs(&self) -> f64 {
        (0..self.shards.len())
            .map(|s| {
                // Lock-free reads bypass the timing engine; their media
                // time is accrued separately and charged to the shard's
                // clock serially (a conservative bound — on the modeled
                // hardware they could overlap queued commands).
                let lockfree = self.ext[s].read.read_ns.get() as f64 / 1e9;
                self.lock(s).elapsed_secs() + lockfree
            })
            .fold(0.0, f64::max)
    }

    /// Merged put-latency histogram across shards.
    pub fn put_latencies(&self) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for shard in 0..self.shards.len() {
            h.merge(self.lock(shard).put_latencies());
        }
        h
    }

    /// Merged get-latency histogram across shards (locked-path and
    /// lock-free gets both included).
    pub fn get_latencies(&self) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for shard in 0..self.shards.len() {
            h.merge(self.lock(shard).get_latencies());
            let read = &self.ext[shard].read;
            h.merge(&read.latencies.lock().unwrap_or_else(|p| p.into_inner()));
        }
        if let Some(tier) = &self.cache {
            tier.merge_latencies(&mut h);
        }
        h
    }

    /// Run `f` with exclusive access to one shard's device (diagnostics,
    /// targeted fault injection, forcing a resize in tests). The index
    /// stats `f` sees include the shard's lock-free lookups.
    pub fn with_shard<R>(&self, shard: usize, f: impl FnOnce(&mut KvssdDevice<I>) -> R) -> R {
        let mut dev = self.lock(shard);
        dev.sync_index_stats();
        f(&mut dev)
    }

    /// Install one telemetry sink across every shard. Shards share the
    /// sink's registry and trace ring; spans and gauges are tagged with
    /// the shard id, so per-queue behaviour (resize stalls, queue depth,
    /// occupancy skew) stays distinguishable in the merged stream.
    pub fn set_telemetry(&self, sink: rhik_telemetry::TelemetrySink) {
        for shard in 0..self.shards.len() {
            self.lock(shard).set_telemetry_shard(sink.clone(), shard as u32);
            let read = &self.ext[shard].read;
            *read.telemetry.lock().unwrap_or_else(|p| p.into_inner()) = sink.clone();
            read.telemetry_on.set(u64::from(sink.is_enabled()));
        }
        if let Some(tier) = &self.cache {
            tier.set_telemetry(sink);
        }
    }

    /// Whether any shard is mid-way through an incremental directory
    /// doubling.
    pub fn resize_in_progress(&self) -> bool {
        (0..self.shards.len()).any(|s| self.lock(s).resize_in_progress())
    }

    /// Run one bounded maintenance slice on every shard whose queue is
    /// idle right now (its mutex is uncontended). A host driver calls
    /// this between submissions so in-flight directory migrations drain
    /// on idle time instead of riding foreground commands. Returns how
    /// many shards made progress.
    pub fn maintain_idle(&self) -> Result<usize> {
        let mut progressed = 0;
        for shard in self.shards.iter() {
            // Never queue behind a command: busy shard ⇒ not idle ⇒ skip.
            let Ok(mut dev) = shard.try_lock() else { continue };
            if dev.maintain_step()? {
                progressed += 1;
            }
        }
        Ok(progressed)
    }
}

impl<I: IndexBackend + Send> std::fmt::Debug for ShardedKvssd<I> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedKvssd")
            .field("shards", &self.shards.len())
            .field("keys", &self.key_count())
            .field("pool", &self.pool)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::KvError;

    fn sharded(shards: u32) -> ShardedKvssd<RhikIndex> {
        ShardedKvssd::rhik(DeviceConfig::small().with_shards(shards))
    }

    #[test]
    fn roundtrip_across_shards() {
        let dev = sharded(4);
        assert_eq!(dev.shard_count(), 4);
        for i in 0..200u64 {
            let key = format!("key-{i:04}");
            dev.put(key.as_bytes(), format!("val-{i}").as_bytes()).unwrap();
        }
        for i in 0..200u64 {
            let key = format!("key-{i:04}");
            assert_eq!(
                &dev.get(key.as_bytes()).unwrap().unwrap()[..],
                format!("val-{i}").as_bytes()
            );
        }
        assert_eq!(dev.key_count(), 200);
        assert_eq!(dev.get(b"absent").unwrap(), None);
        dev.delete(b"key-0000").unwrap();
        assert_eq!(dev.get(b"key-0000").unwrap(), None);
        assert_eq!(dev.delete(b"key-0000").unwrap_err(), KvError::KeyNotFound);
    }

    #[test]
    fn keys_actually_spread_over_shards() {
        let dev = sharded(4);
        for i in 0..400u64 {
            dev.put(format!("spread-{i}").as_bytes(), b"v").unwrap();
        }
        let mut busy = 0;
        for s in 0..dev.shard_count() {
            if dev.shard_stats(s).puts > 0 {
                busy += 1;
            }
        }
        // 400 murmur-hashed keys over 4 shards: every shard sees traffic.
        assert_eq!(
            busy,
            4,
            "per-shard puts: {:?}",
            (0..4).map(|s| dev.shard_stats(s).puts).collect::<Vec<_>>()
        );
    }

    #[test]
    fn aggregate_stats_are_shard_sums() {
        let dev = sharded(2);
        for i in 0..100u64 {
            dev.put(format!("k{i}").as_bytes(), b"v").unwrap();
        }
        for i in 0..100u64 {
            dev.get(format!("k{i}").as_bytes()).unwrap();
        }
        dev.get(b"missing").unwrap();
        let total = dev.stats();
        assert_eq!(total.puts, 100);
        assert_eq!(total.gets, 101);
        assert_eq!(total.not_found, 1);
        let mut summed = DeviceStats::default();
        for s in 0..dev.shard_count() {
            summed.merge(&dev.shard_stats(s));
        }
        assert_eq!(total, summed);
        assert_eq!(dev.put_latencies().count(), 100);
        assert_eq!(dev.get_latencies().count(), 101);
    }

    #[test]
    fn single_shard_matches_unsharded_results() {
        let dev = sharded(1);
        assert_eq!(dev.shard_bits(), 0);
        dev.put(b"k", b"v").unwrap();
        assert_eq!(&dev.get(b"k").unwrap().unwrap()[..], b"v");
        assert_eq!(dev.shard_of(KeySignature(u64::MAX)), 0);
    }

    #[test]
    fn routing_uses_high_bits() {
        let dev = sharded(4);
        assert_eq!(dev.shard_of(KeySignature(0)), 0);
        assert_eq!(dev.shard_of(KeySignature(1 << 62)), 1);
        assert_eq!(dev.shard_of(KeySignature(u64::MAX)), 3);
        // Low bits (directory selection) never influence the shard.
        assert_eq!(dev.shard_of(KeySignature(0xFFFF)), 0);
    }

    #[test]
    fn batch_apis_preserve_input_order() {
        let dev = sharded(4);
        let keys: Vec<String> = (0..50).map(|i| format!("batch-{i:03}")).collect();
        let values: Vec<String> = (0..50).map(|i| format!("value-{i:03}")).collect();
        let items: Vec<(&[u8], &[u8])> =
            keys.iter().zip(values.iter()).map(|(k, v)| (k.as_bytes(), v.as_bytes())).collect();
        for r in dev.put_batch(&items) {
            r.unwrap();
        }
        let key_refs: Vec<&[u8]> = keys.iter().map(|k| k.as_bytes()).collect();
        let got = dev.get_batch(&key_refs);
        for (i, r) in got.iter().enumerate() {
            assert_eq!(&r.as_ref().unwrap().as_ref().unwrap()[..], values[i].as_bytes());
        }
        // Batch with an invalid key: the error lands at the right index.
        let mixed: Vec<(&[u8], &[u8])> = vec![(b"ok-1", b"v"), (b"", b"v"), (b"ok-2", b"v")];
        let results = dev.put_batch(&mixed);
        assert!(results[0].is_ok());
        assert_eq!(results[1].as_ref().unwrap_err(), &KvError::EmptyKey);
        assert!(results[2].is_ok());
    }

    #[test]
    fn shards_share_one_flash_pool() {
        let dev = sharded(4);
        let before = dev.pool().free_blocks_raw();
        for i in 0..300u64 {
            dev.put(format!("fill-{i}").as_bytes(), &[0u8; 512]).unwrap();
        }
        dev.flush().unwrap();
        // Writing through any shard consumes device-wide capacity.
        assert!(dev.pool().free_blocks_raw() < before);
        assert_eq!(dev.pool().total_blocks(), DeviceConfig::small().geometry.blocks);
    }

    #[test]
    fn sharded_telemetry_tags_spans_per_shard() {
        let dev = sharded(4);
        let sink = rhik_telemetry::TelemetrySink::enabled();
        dev.set_telemetry(sink.clone());
        for i in 0..400u64 {
            dev.put(format!("obs-{i}").as_bytes(), b"v").unwrap();
            dev.get(format!("obs-{i}").as_bytes()).unwrap();
        }
        let spans = sink.spans();
        let shards_seen: std::collections::BTreeSet<u32> = spans.iter().map(|s| s.shard).collect();
        assert!(shards_seen.len() > 1, "spans from one shard only: {shards_seen:?}");
        let snap = sink.snapshot().unwrap();
        assert_eq!(snap.counter("kvssd_puts"), 400);
        assert_eq!(snap.counter("kvssd_gets"), 400);
        // Per-shard gauges exist for every shard that saw traffic.
        for s in &shards_seen {
            assert!(snap.gauge(&format!("shard{s}_index_occupancy")).is_some());
        }
    }

    #[test]
    fn lockfree_gets_bypass_the_shard_locks() {
        let dev = sharded(4);
        for i in 0..300u64 {
            dev.put(format!("lf-{i:04}").as_bytes(), format!("value-{i}").as_bytes()).unwrap();
        }
        // Seal the write buffers so every head page is on flash: from
        // here on a quiet get must complete on the lock-free path.
        dev.flush().unwrap();
        let before = dev.lockfree_read_stats();
        for i in 0..300u64 {
            let got = dev.get(format!("lf-{i:04}").as_bytes()).unwrap().unwrap();
            assert_eq!(&got[..], format!("value-{i}").as_bytes());
        }
        assert_eq!(dev.get(b"lf-absent").unwrap(), None);
        let after = dev.lockfree_read_stats();
        assert_eq!(after.gets - before.gets, 301, "quiet gets must not fall back");
        assert_eq!(after.hits - before.hits, 300);
        assert_eq!(after.not_found - before.not_found, 1);
        assert_eq!(after.fallbacks, before.fallbacks);
        // The miss cost zero flash reads; the ≤1-read lookup bound means
        // page reads are bounded by hits (single-page values here).
        assert_eq!(after.pages_read - before.pages_read, 300);
        // Lock-free gets still land in the merged stats and histograms.
        let total = dev.stats();
        assert_eq!(total.gets, 301);
        assert_eq!(dev.get_latencies().count(), 301);
    }

    #[test]
    fn group_commit_carries_every_put() {
        let dev = sharded(2);
        for i in 0..80u64 {
            dev.put(format!("gc-{i}").as_bytes(), b"v").unwrap();
        }
        let gc = dev.group_commit_stats();
        // Single-threaded: every put leads its own batch of one.
        assert_eq!(gc.batched_puts, 80);
        assert_eq!(gc.batches, 80);
        assert_eq!(gc.max_batch, 1);
        assert_eq!(dev.stats().puts, 80);
    }

    #[test]
    fn concurrent_puts_and_gets_stay_coherent() {
        let dev = sharded(4);
        for i in 0..64u64 {
            dev.put(format!("mix-{i:02}").as_bytes(), format!("seed-{i}").as_bytes()).unwrap();
        }
        std::thread::scope(|scope| {
            for t in 0..2 {
                let dev = dev.clone();
                scope.spawn(move || {
                    for i in 0..64u64 {
                        let key = format!("mix-{i:02}");
                        dev.put(key.as_bytes(), format!("w{t}-{i}").as_bytes()).unwrap();
                    }
                });
            }
            for _ in 0..2 {
                let dev = dev.clone();
                scope.spawn(move || {
                    for round in 0..128u64 {
                        let i = (round * 7) % 64;
                        let got = dev.get(format!("mix-{i:02}").as_bytes()).unwrap();
                        let got = got.expect("seeded key never deleted");
                        // Any of the three writers' values is coherent;
                        // a torn or stale-beyond-linearizable read is not.
                        let s = std::str::from_utf8(&got).unwrap();
                        assert!(
                            s == format!("seed-{i}") || s.ends_with(&format!("-{i}")),
                            "incoherent value for key {i}: {s:?}"
                        );
                    }
                });
            }
        });
        assert_eq!(dev.key_count(), 64);
        let mut auditor = rhik_audit::DeviceAuditor::new();
        let report = dev.audit(&mut auditor);
        assert!(report.is_ok(), "audit after concurrent load:\n{report}");
    }

    #[test]
    fn submit_batch_matches_single_op_semantics() {
        let dev =
            ShardedKvssd::rhik(DeviceConfig::small().with_shards(4).with_hot_cache(64 * 1024));
        for i in 0..120u64 {
            dev.put(format!("sb-{i:03}").as_bytes(), format!("v{i}").as_bytes()).unwrap();
        }
        dev.flush().unwrap();
        // Assemble one mixed batch per shard, exactly as a front end would.
        let mut per_shard: Vec<Vec<BatchOp>> = vec![Vec::new(); dev.shard_count()];
        for i in 0..120u64 {
            let key = format!("sb-{i:03}").into_bytes();
            let shard = dev.shard_for_key(&key);
            let op = match i % 4 {
                0 => BatchOp::Get { key },
                1 => BatchOp::Put { key, value: format!("w{i}").into_bytes() },
                2 => BatchOp::Exists { key },
                _ => BatchOp::Delete { key },
            };
            per_shard[shard].push(op);
        }
        for (shard, ops) in per_shard.iter().enumerate() {
            let replies = dev.submit_batch(shard, ops);
            assert_eq!(replies.len(), ops.len());
            for (op, reply) in ops.iter().zip(&replies) {
                match (op, reply) {
                    (BatchOp::Get { key }, BatchReply::Get(Ok(Some(v)))) => {
                        let i: u64 = std::str::from_utf8(&key[3..6]).unwrap().parse().unwrap();
                        assert_eq!(&v[..], format!("v{i}").as_bytes());
                    }
                    (BatchOp::Put { .. }, BatchReply::Put(Ok(()))) => {}
                    (BatchOp::Exists { .. }, BatchReply::Exists(Ok(true))) => {}
                    (BatchOp::Delete { .. }, BatchReply::Delete(Ok(()))) => {}
                    other => panic!("unexpected batch outcome: {other:?}"),
                }
            }
        }
        // Post-batch reads see the batch's writes and deletes.
        for i in 0..120u64 {
            let got = dev.get(format!("sb-{i:03}").as_bytes()).unwrap();
            match i % 4 {
                1 => assert_eq!(&got.unwrap()[..], format!("w{i}").as_bytes()),
                3 => assert!(got.is_none(), "deleted key sb-{i:03} still present"),
                _ => assert_eq!(&got.unwrap()[..], format!("v{i}").as_bytes()),
            }
        }
        // Batched gets ride the lock-free read path, not the shard locks.
        assert!(dev.lockfree_read_stats().gets > 0);
        let mut auditor = rhik_audit::DeviceAuditor::new();
        let report = dev.audit(&mut auditor);
        assert!(report.is_ok(), "audit after batches:\n{report}");
    }

    #[test]
    fn submit_batch_get_observes_earlier_writes_in_same_batch() {
        // Read-your-writes inside one batch: a pipelined client that
        // sends SET then GET of the same key may land both in a single
        // submit_batch call. The GET must not ride the lock-free fast
        // path (or a stale cache entry) past the not-yet-executed PUT.
        let dev =
            ShardedKvssd::rhik(DeviceConfig::small().with_shards(2).with_hot_cache(64 * 1024));
        dev.put(b"ryw-warm", b"old").unwrap();
        // Admit the warm key into the hot cache so a stale hit is possible.
        assert_eq!(dev.get(b"ryw-warm").unwrap().as_deref(), Some(&b"old"[..]));
        assert_eq!(dev.get(b"ryw-warm").unwrap().as_deref(), Some(&b"old"[..]));

        let shard = dev.shard_for_key(b"ryw-warm");
        let mut fresh = b"ryw-fresh".to_vec();
        while dev.shard_for_key(&fresh) != shard {
            fresh.push(b'x');
        }
        let ops = [
            // Pre-mutation get: still eligible for the fast path.
            BatchOp::Get { key: b"ryw-warm".to_vec() },
            BatchOp::Put { key: b"ryw-warm".to_vec(), value: b"new".to_vec() },
            BatchOp::Get { key: b"ryw-warm".to_vec() },
            BatchOp::Put { key: fresh.clone(), value: b"first".to_vec() },
            BatchOp::Get { key: fresh.clone() },
            BatchOp::Exists { key: fresh.clone() },
            BatchOp::Delete { key: fresh.clone() },
            BatchOp::Get { key: fresh.clone() },
        ];
        let replies = dev.submit_batch(shard, &ops);
        match &replies[0] {
            BatchReply::Get(Ok(Some(v))) => assert_eq!(&v[..], b"old"),
            other => panic!("pre-mutation get: {other:?}"),
        }
        match &replies[2] {
            BatchReply::Get(Ok(Some(v))) => assert_eq!(&v[..], b"new", "get missed same-batch put"),
            other => panic!("get after put: {other:?}"),
        }
        match &replies[4] {
            BatchReply::Get(Ok(Some(v))) => assert_eq!(&v[..], b"first"),
            other => panic!("get after first-ever put: {other:?}"),
        }
        match &replies[5] {
            BatchReply::Exists(Ok(true)) => {}
            other => panic!("exists after put: {other:?}"),
        }
        match &replies[7] {
            BatchReply::Get(Ok(None)) => {}
            other => panic!("get after same-batch delete: {other:?}"),
        }
    }

    #[test]
    fn submit_batch_reports_per_op_errors_in_place() {
        let dev = sharded(2);
        dev.put(b"present", b"v").unwrap();
        let ops = [
            BatchOp::Get { key: b"present".to_vec() },
            BatchOp::Delete { key: b"absent".to_vec() },
            BatchOp::Get { key: b"missing".to_vec() },
        ];
        // Route each op through its own shard's queue like a server would;
        // single-op batches take the uncompounded path.
        for (i, op) in ops.iter().enumerate() {
            let shard = dev.shard_for_key(op.key());
            let replies = dev.submit_batch(shard, std::slice::from_ref(op));
            match (i, &replies[0]) {
                (0, BatchReply::Get(Ok(Some(v)))) => assert_eq!(&v[..], b"v"),
                (1, BatchReply::Delete(Err(KvError::KeyNotFound))) => {}
                (2, BatchReply::Get(Ok(None))) => {}
                other => panic!("unexpected reply: {other:?}"),
            }
        }
    }

    #[test]
    fn exist_routes_like_get() {
        let dev = sharded(4);
        dev.put(b"present", b"v").unwrap();
        assert!(dev.exist(b"present").unwrap().probably_exists);
        assert!(!dev.exist(b"absent-key").unwrap().probably_exists);
    }

    #[test]
    fn sharded_audit_stays_clean_under_load() {
        let dev = sharded(4);
        let sink = rhik_telemetry::TelemetrySink::enabled();
        dev.set_telemetry(sink);
        let mut auditor = rhik_audit::DeviceAuditor::new();
        for i in 0..600u64 {
            dev.put(format!("audit-{i:04}").as_bytes(), format!("v{i}").as_bytes()).unwrap();
            if i % 3 == 0 {
                dev.get(format!("audit-{i:04}").as_bytes()).unwrap();
            }
            if i % 7 == 0 && i > 0 {
                let _ = dev.delete(format!("audit-{:04}", i - 7).as_bytes());
            }
            if i % 50 == 0 {
                let report = dev.audit(&mut auditor);
                assert!(report.is_ok(), "audit after op {i}:\n{report}");
            }
        }
        dev.flush().unwrap();
        let report = dev.audit(&mut auditor);
        assert!(report.is_ok(), "final audit:\n{report}");
    }

    #[test]
    fn audit_reports_a_current_cache_entry_holding_a_wrong_value() {
        let dev =
            ShardedKvssd::rhik(DeviceConfig::small().with_shards(2).with_hot_cache(64 * 1024));
        dev.put(b"victim", b"right").unwrap();
        let mut auditor = rhik_audit::DeviceAuditor::new();
        assert!(dev.audit(&mut auditor).is_ok());
        // Admit a wrong value at the key's current version, as a broken
        // fill protocol would.
        let tier = dev.cache.as_ref().expect("cache enabled");
        let sig = dev.hasher.sign(b"victim");
        let wrong = Bytes::from_static(b"wrong");
        tier.try_admit(dev.shard_of(sig) as u32, sig, b"victim", &wrong, tier.versions.load(sig.0));
        // Both while the pair is in the write buffer and once on flash.
        for flushed in [false, true] {
            if flushed {
                dev.flush().unwrap();
            }
            let report = dev.audit(&mut auditor);
            let caught = report.violations.iter().any(|v| {
                matches!(v, rhik_audit::InvariantViolation::CacheIncoherent { sig: s, .. } if *s == sig.0)
            });
            assert!(caught, "flushed={flushed}: wrong cached value not reported:\n{report}");
        }
    }

    #[test]
    fn lockfree_lookups_land_in_the_index_stats() {
        let dev = sharded(2);
        for i in 0..100u64 {
            dev.put(format!("st-{i}").as_bytes(), b"v").unwrap();
        }
        dev.flush().unwrap();
        let stats = |dev: &ShardedKvssd<RhikIndex>| {
            (0..dev.shard_count()).map(|s| dev.with_shard(s, |d| d.index().stats().clone())).fold(
                (0, 0, 0),
                |acc, st| {
                    (
                        acc.0 + st.lookups,
                        acc.1 + st.zero_flash_lookups,
                        acc.2 + st.reads_per_lookup_histo[1],
                    )
                },
            )
        };
        let before = stats(&dev);
        let lf = dev.lockfree_read_stats();
        for i in 0..100u64 {
            dev.get(format!("st-{i}").as_bytes()).unwrap().unwrap();
        }
        let gets = dev.lockfree_read_stats().gets - lf.gets;
        assert_eq!(gets, 100, "quiet gets go lock-free");
        let after = stats(&dev);
        assert_eq!(after.0 - before.0, 100, "every lock-free lookup is counted");
        // Every record page is cached after the flush: zero index reads.
        assert_eq!(after.1 - before.1, 100);
        assert_eq!(after.2, before.2);
    }

    #[test]
    fn hot_cache_hits_skip_flash_and_stay_coherent() {
        let dev =
            ShardedKvssd::rhik(DeviceConfig::small().with_shards(4).with_hot_cache(128 * 1024));
        let sink = rhik_telemetry::TelemetrySink::enabled();
        dev.set_telemetry(sink.clone());
        for i in 0..100u64 {
            dev.put(format!("hc-{i:03}").as_bytes(), format!("v0-{i}").as_bytes()).unwrap();
        }
        dev.flush().unwrap();
        // Pass 1 fills, pass 2 hits DRAM.
        for _ in 0..2 {
            for i in 0..100u64 {
                let got = dev.get(format!("hc-{i:03}").as_bytes()).unwrap().unwrap();
                assert_eq!(&got[..], format!("v0-{i}").as_bytes());
            }
        }
        let stats = dev.hot_cache_stats().expect("cache enabled");
        assert!(stats.admits > 0, "pass 1 should admit: {stats:?}");
        assert_eq!(stats.hits, 100, "pass 2 should be all hits: {stats:?}");
        let snap = sink.snapshot().unwrap();
        assert_eq!(snap.counter("hot_cache_hits"), 100);
        assert_eq!(snap.counter("kvssd_gets"), 200, "hits still count as gets");
        assert!(snap.gauge("hot_cache_bytes").unwrap() > 0.0);

        // Every mutation invalidates its cached entry.
        for i in 0..100u64 {
            let key = format!("hc-{i:03}");
            if i % 2 == 0 {
                dev.put(key.as_bytes(), format!("v1-{i}").as_bytes()).unwrap();
            } else {
                dev.delete(key.as_bytes()).unwrap();
            }
        }
        for i in 0..100u64 {
            let got = dev.get(format!("hc-{i:03}").as_bytes()).unwrap();
            if i % 2 == 0 {
                assert_eq!(&got.unwrap()[..], format!("v1-{i}").as_bytes());
            } else {
                assert!(got.is_none(), "deleted key hc-{i:03} resurrected from cache");
            }
        }
        // Cache hits fold into aggregate and per-shard stats identically.
        let total = dev.stats();
        let summed: u64 = (0..dev.shard_count()).map(|s| dev.shard_stats(s).gets).sum();
        assert_eq!(total.gets, summed);
        // The audit's cache↔index coherence pass sees only clean entries.
        let mut auditor = rhik_audit::DeviceAuditor::new();
        let report = dev.audit(&mut auditor);
        assert!(report.is_ok(), "coherence audit:\n{report}");
    }
}
