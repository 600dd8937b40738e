//! `sessionbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints diagnostics on standard error and, as the last line of standard
//! output, one JSON object: `correct`, `attempted`, `failed` and the
//! metrics (end-to-end with `--trace 0`, per-layer with `--trace 1`).
//! Exits 1 when the correctness gate fails and 2 on bad arguments.

use std::process::ExitCode;

use sessionbench::run::{run, RunConfig};

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut cfg = RunConfig {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        corrupt_reference: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cfg.workload = value()?.clone(),
            "--seed" => cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cfg.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cfg.seconds > 0.0 && cfg.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if cfg.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("sessionbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("sessionbench: {e}");
            return ExitCode::from(2);
        }
    };
    for v in &outcome.violations {
        eprintln!("correctness gate: {v}");
    }
    println!("{}", outcome.to_json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
