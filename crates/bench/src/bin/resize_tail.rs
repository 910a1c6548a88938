//! Resize tail latency: incremental migration vs stop-the-world doubling.
//!
//! Grows two identical RHIK devices from a single-table directory through
//! several doublings with the same sequential put stream — one with the
//! default incremental migration (`resize_migration_batch` slots piggyback
//! on each command), one with `stop_the_world: true` (the paper's §IV-A2
//! monolithic pass, as measured in Fig. 7). Per-put device-time latency is
//! sampled from the simulated clock, and fixed-width windows around every
//! doubling are pooled per mode so the percentiles describe exactly the
//! ops that a reconfiguration can stall.
//!
//! Headline: pooled-window p99.9 improvement (stop-the-world / incremental)
//! at equal throughput (same key stream, same device geometry). The two
//! modes must also do the same migration work: summed resize flash
//! reads+programs within 10 % of each other (amortization moves the work,
//! it must not multiply it).
//!
//! Emits `BENCH_resize_tail.json` plus `target/experiments/resize_tail.json`.

use rhik_bench::{
    attribution_json, attribution_table, audit_requested, emit_json, reads_per_lookup_json,
    render_table, trace_dump_requested, BenchAuditor, Scale,
};
use rhik_core::RhikConfig;
use rhik_ftl::IndexBackend;
use rhik_kvssd::{DeviceConfig, KvssdDevice, TelemetrySink};
use rhik_nand::DeviceProfile;
use serde_json::{json, Value};

/// Window width (ops) pooled around each doubling. Wide enough to hold a
/// whole early migration, narrow enough that one stop-the-world stall is
/// above the 0.1 % rank (1/400 = 0.25 %), so p99.9 sees it.
const WINDOW: usize = 400;

struct ModeRun {
    label: &'static str,
    latencies_ns: Vec<u64>,
    /// Op index at which each doubling began (first op that observed the
    /// migration in flight, or the op that absorbed the monolithic pass).
    begins: Vec<usize>,
    /// Op index at which each doubling completed.
    ends: Vec<usize>,
    resize_flash_reads: u64,
    resize_flash_programs: u64,
    max_step_media_ns: u64,
    device_secs: f64,
}

fn run_mode(
    label: &'static str,
    stop_the_world: bool,
    scale: Scale,
    keys: u64,
    sink: Option<TelemetrySink>,
) -> ModeRun {
    let mut cfg = DeviceConfig::small().with_profile(DeviceProfile::kvemu_like());
    // Room for the whole fill.
    cfg.geometry.blocks = scale.pick(256, 2048);
    // One slot per command: a directory slot is a full-page record table,
    // so batch=1 is the finest (and for 4 KiB pages the natural) migration
    // granularity — the per-op stall is one table split, independent of
    // directory size. stop_the_world ignores the batch.
    cfg.rhik = RhikConfig {
        initial_dir_bits: 0,
        resize_migration_batch: 1,
        stop_the_world,
        ..Default::default()
    };
    let mut dev = KvssdDevice::rhik(cfg);
    if let Some(s) = sink {
        dev.set_telemetry(s);
    }

    // `--audit`: prove cross-layer consistency of this exact run every
    // 500 ops (and at the end). Latencies are simulated device time, so
    // the host-side audit cost never shows in the measurements.
    let mut audit = BenchAuditor::new(audit_requested(), 500);

    let mut latencies_ns = Vec::with_capacity(keys as usize);
    let mut begins = Vec::new();
    let mut ends = Vec::new();
    let mut completed = 0usize;
    let mut in_flight = false;
    for i in 0..keys {
        let t0 = dev.engine().now_ns();
        dev.put(format!("rt-{i:010}").as_bytes(), &[0u8; 64]).expect("put");
        latencies_ns.push(dev.engine().now_ns() - t0);
        audit.tick(&dev, i + 1 == keys);

        let now_done = dev.index().stats().resizes.len();
        if now_done > completed {
            // A doubling finished inside this op. If we never saw it in
            // flight (stop-the-world), it also began here.
            if !in_flight {
                begins.push(i as usize);
            }
            ends.push(i as usize);
            completed = now_done;
            in_flight = dev.resize_in_progress();
        } else if dev.resize_in_progress() && !in_flight {
            begins.push(i as usize);
            in_flight = true;
        }
    }

    if audit.audits_run > 0 {
        eprintln!("[{label}] --audit: {} clean cross-layer audits", audit.audits_run);
    }
    let stats = dev.index().stats().clone();
    ModeRun {
        label,
        latencies_ns,
        begins,
        ends,
        resize_flash_reads: stats.resizes.iter().map(|e| e.flash_reads).sum(),
        resize_flash_programs: stats.resizes.iter().map(|e| e.flash_programs).sum(),
        max_step_media_ns: stats.resizes.iter().map(|e| e.max_step_media_ns).max().unwrap_or(0),
        device_secs: dev.elapsed_secs(),
    }
}

/// Exact percentile from a sorted sample set (nearest-rank).
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Pool fixed-width windows of per-op latencies around each doubling.
/// Every window spans the whole migration (begin..=end) plus enough ops
/// after it to reach at least `WINDOW` samples, so the stop-the-world
/// spike and the incremental spread both land fully inside.
fn pooled_windows(run: &ModeRun) -> Vec<u64> {
    let mut pool = Vec::new();
    let n = run.latencies_ns.len();
    let mut covered_to = 0usize; // avoid double-counting overlapping windows
    for (k, &begin) in run.begins.iter().enumerate() {
        let end = run.ends.get(k).copied().unwrap_or(n - 1);
        let stop = (begin + WINDOW).max(end + 1).min(n);
        let start = begin.max(covered_to);
        pool.extend_from_slice(&run.latencies_ns[start..stop]);
        covered_to = stop;
    }
    pool.sort_unstable();
    pool
}

fn main() {
    let scale = Scale::from_args();
    let keys: u64 = scale.pick(6_000, 25_000);

    let runs = [
        run_mode("incremental", false, scale, keys, None),
        run_mode("stop_the_world", true, scale, keys, None),
    ];

    let mut rows = vec![vec![
        "mode".to_string(),
        "doublings".to_string(),
        "window ops".to_string(),
        "p50 µs".to_string(),
        "p99 µs".to_string(),
        "p99.9 µs".to_string(),
        "max µs".to_string(),
        "worst step ms".to_string(),
        "resize flash ops".to_string(),
    ]];
    let mut results: Vec<Value> = Vec::new();
    let mut p999_by_mode = Vec::new();
    for run in &runs {
        let pool = pooled_windows(run);
        let (p50, p99, p999) =
            (percentile(&pool, 50.0), percentile(&pool, 99.0), percentile(&pool, 99.9));
        let max = pool.last().copied().unwrap_or(0);
        p999_by_mode.push(p999);
        rows.push(vec![
            run.label.to_string(),
            run.ends.len().to_string(),
            pool.len().to_string(),
            format!("{:.1}", p50 as f64 / 1e3),
            format!("{:.1}", p99 as f64 / 1e3),
            format!("{:.1}", p999 as f64 / 1e3),
            format!("{:.1}", max as f64 / 1e3),
            format!("{:.3}", run.max_step_media_ns as f64 / 1e6),
            (run.resize_flash_reads + run.resize_flash_programs).to_string(),
        ]);
        results.push(json!({
            "mode": run.label,
            "keys": keys,
            "doublings": run.ends.len(),
            "doubling_begin_ops": run.begins.clone(),
            "doubling_end_ops": run.ends.clone(),
            "window_samples": pool.len(),
            "window_p50_ns": p50,
            "window_p99_ns": p99,
            "window_p999_ns": p999,
            "window_max_ns": max,
            "max_step_media_ns": run.max_step_media_ns,
            "resize_flash_reads": run.resize_flash_reads,
            "resize_flash_programs": run.resize_flash_programs,
            "device_secs": run.device_secs,
        }));
    }

    println!("{}", render_table(&rows));

    let p999_improvement = p999_by_mode[1] as f64 / (p999_by_mode[0].max(1)) as f64;
    let work = |r: &ModeRun| (r.resize_flash_reads + r.resize_flash_programs) as f64;
    let media_ratio = work(&runs[0]) / work(&runs[1]).max(1.0);
    println!(
        "p99.9 during doublings: stop-the-world / incremental = {p999_improvement:.1}x \
         (migration flash-op ratio incremental/monolithic = {media_ratio:.3})"
    );

    let blob = json!({
        "experiment": "resize_tail",
        "scale": scale.pick("small", "full"),
        "metric_note": "latencies are simulated device time; windows pool \
                        ops from each doubling's begin through max(begin+400, end)",
        "window_ops": WINDOW as u64,
        "keys": keys,
        "results": results,
        "headline_p999_improvement": p999_improvement,
        "migration_flash_op_ratio_incremental_over_monolithic": media_ratio,
    });
    emit_json("resize_tail", &blob);
    if let Ok(s) = serde_json::to_string_pretty(&blob) {
        let path = "BENCH_resize_tail.json";
        if std::fs::write(path, s).is_ok() {
            eprintln!("[wrote {path}]");
        }
    }

    // `--trace-dump`: rerun the incremental mode with a live telemetry
    // sink and attribute per-op device time across stages — directory
    // walks, flash reads/programs, cache traffic, GC, migration batches,
    // and queue stalls all become visible, including mid-resize.
    if trace_dump_requested() {
        let sink = TelemetrySink::with_trace_capacity(keys as usize);
        let _ = run_mode("incremental-traced", false, scale, keys, Some(sink.clone()));
        let attr = sink.attribution();
        let rpl = sink.reads_per_lookup().unwrap_or_default();
        println!("per-stage device-time attribution (incremental run, telemetry on):");
        println!("{}", attribution_table(&attr));
        println!(
            "traced reads-per-lookup: {} lookups, max {} ({})",
            rpl.lookups,
            rpl.max,
            if rpl.invariant_ok() { "invariant holds" } else { "INVARIANT VIOLATED" },
        );
        let trace = json!({
            "experiment": "resize_tail_trace",
            "scale": scale.pick("small", "full"),
            "keys": keys,
            "attribution": attribution_json(&attr),
            "reads_per_lookup": reads_per_lookup_json(&rpl),
            "trace_spans_dropped": sink.trace_dropped(),
        });
        emit_json("resize_tail_trace", &trace);
    }
}
