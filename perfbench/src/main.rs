//! minex-perfbench: wall-time benchmark of the minex query and serving
//! paths, end to end and layer by layer, timed from outside the program.
//!
//! ```text
//! minex-perfbench --workload <round-loop|session-mix|serve-mix>
//!                 --seed <n> --seconds <s> --trace <0|1> [--rev <git revision>]
//! ```
//!
//! With `--trace 0` the last output line is a JSON object carrying every
//! end-to-end metric; with `--trace 1` it carries every per-layer metric.
//! Every answer is checked against a sequential reference outside the
//! timed regions; a mismatch makes the run exit with status 1. See
//! `METRICS.md` for what each metric means and why each workload exists.

mod inproc;
mod oracle;
mod probes;
mod report;
mod round_loop;
mod serve_mix;
mod session_mix;

use report::{Figure, Figures, Recorder};

/// Parsed command line.
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub rev: String,
}

const WORKLOADS: [&str; 3] = ["round-loop", "session-mix", "serve-mix"];

fn parse_args() -> Result<RunArgs, String> {
    let mut args = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        rev: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("expected a number"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--rev" => args.rev = value.clone(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

fn main() {
    if cfg!(debug_assertions) {
        eprintln!("minex-perfbench: refusing to report timings from a debug build");
        std::process::exit(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("minex-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!(
        "# minex-perfbench workload={} seed={} seconds={} trace={} nproc={nproc} \
         profile=release rev={} engine_threads=1",
        args.workload, args.seed, args.seconds, args.trace as u8, args.rev
    );
    let (rec, layers): (Recorder, Figures) = match args.workload.as_str() {
        "round-loop" => round_loop::run(&args),
        "session-mix" => session_mix::run(&args),
        _ => serve_mix::run(&args),
    };
    let e2e = report::end_to_end(&rec);
    let named = report::named(&rec, &args.workload);
    let metrics: Vec<(String, Figure)> = if args.trace {
        report::per_layer_names()
            .into_iter()
            .map(|(name, unit)| {
                let fig = layers.0.get(&name).cloned().unwrap_or(Figure {
                    value: 0.0,
                    unit,
                    samples: 0,
                });
                (name, Figure { unit, ..fig })
            })
            .collect()
    } else {
        e2e.0.into_iter().collect()
    };
    report::print_result(&rec, &named, &metrics);
    if !rec.mismatches.is_empty() {
        std::process::exit(1);
    }
}
