//! End-to-end benchmark of the sbdms TCP server, split by layer.
//!
//! ```text
//! perfbench --workload <point_read|write_txn|scan_mix> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Each run deploys the full-fledged profile with `Durability::Full`,
//! loads seeded data, serves it with `sbdms_server::Server` and drives
//! it from this process over two connections. Every answer is checked.
//! After the run the database is shut down cleanly, reopened, and every
//! acknowledged write must be present.
//!
//! `--trace 0` measures the end-to-end metrics. `--trace 1` runs the
//! workload twice, untraced and then over the instrumented storage
//! backend, and reports the per-layer metrics, including the tracing
//! overhead. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Details (seed,
//! host, flush policy, table sizes, error codes, tail sample counts)
//! are printed above it and, with the spans, written under
//! `.bench_work/`.

mod gen;
mod load;
mod replay;
mod report;
mod setup;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use load::Workload;

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} `{value}`: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad(&"unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => trace = Some(value != "0"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Scratch space inside the checkout: databases, spans, full results.
fn work_dir() -> PathBuf {
    PathBuf::from(".bench_work")
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <point_read|write_txn|scan_mix> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match report::run(&args, &work_dir()) {
        Ok(result) => {
            result.print();
            if result.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload scan_mix --seed 42 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::ScanMix);
        assert_eq!((a.seed, a.seconds, a.trace), (42, 10.0, true));
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload point_read --seed 1 --trace 0").is_err());
        assert!(args("--workload point_read --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload point_read --seed 1 --seconds 1 --trace").is_err());
    }
}
