//! `rhik-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one line per metric, then notes, then the result as one JSON
//! object on the last line of standard output.

use std::process::ExitCode;

use rhik_perfbench::{result_json, run, workload};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workload::spec(&args.workload) else {
        eprintln!(
            "error: unknown workload {:?}; one of {:?} or {:?}",
            args.workload,
            workload::NAMES,
            workload::UNGATED
        );
        return ExitCode::from(2);
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload {} seed {} seconds {} trace {} host_threads {}",
        spec.name, args.seed, args.seconds, args.trace as u8, threads
    );
    let r = run(&spec, args.seed, args.seconds, args.trace);
    for m in r.end_to_end.iter().chain(&r.per_layer) {
        println!("{:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for m in &r.informational {
        println!("{:<40} {:>16.4} {} (not gated)", m.name, m.value, m.unit);
    }
    for note in &r.notes {
        println!("note: {note}");
    }
    println!("{}", result_json(&r, args.trace));
    ExitCode::SUCCESS
}
