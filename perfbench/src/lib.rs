//! End-to-end and per-layer benchmark of the RHIK KVSSD stack.
//!
//! Three seeded workloads drive the repository's crates from outside:
//! in-process clients on `ShardedKvssd` (`kv-zipf-read`,
//! `kv-uniform-write`) and a pipelined RESP client against
//! `rhik_server` (`resp-pipelined`, not gated). An untraced run reports
//! end-to-end metrics on the simulated device clock (gated) and the host
//! wall clock (printed); a traced run diffs each layer's public counters,
//! times each layer's public entry points on a replay of the workload's
//! own keys, and runs the traffic again with the device's telemetry sink
//! attached. See `README.md` beside this crate.

pub mod gen;
pub mod layers;
pub mod model;
pub mod respc;
pub mod run;
pub mod stats;
pub mod workload;

pub use run::{run, Metric, RunResult};

/// Render a result as the single JSON line the benchmark ends with.
/// Traced runs report the per-layer metrics, untraced runs the
/// end-to-end ones.
pub fn result_json(r: &RunResult, trace: bool) -> String {
    let metrics = if trace { &r.per_layer } else { &r.end_to_end };
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        body.join(", ")
    )
}

/// JSON has no NaN or infinity; a metric that is not finite is reported
/// as 0 (and the run's notes say which).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}
