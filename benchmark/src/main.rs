//! The fixed ruler for dgnn-rs: five workloads, six end-to-end metrics and
//! a traced run that splits time by layer. See `README.md` beside this
//! package for what each workload and metric is and why it exists.
//!
//! ```text
//! dgnn-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1 | --traced]
//! dgnn-benchmark --all [--seed N] [--seconds S] [--repeat R]
//! dgnn-benchmark --compare A.json B.json
//! dgnn-benchmark --manifest
//! ```

mod compare;
mod http;
mod json;
mod kernels;
mod load;
mod report;
mod serve;
mod spec;
mod stats;
mod sysinfo;
mod trace;
mod train;
mod world;
mod zipf;

use std::process::ExitCode;

use report::RunResult;
use spec::Workload;

struct Args {
    workload: Option<Workload>,
    all: bool,
    compare: Option<(String, String)>,
    manifest: bool,
    seed: u64,
    seconds: u64,
    traced: bool,
    repeat: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        all: false,
        compare: None,
        manifest: false,
        seed: 2023,
        seconds: spec::RUN_SECONDS,
        traced: false,
        repeat: 1,
    };
    let mut it = argv.iter();
    let value = |it: &mut std::slice::Iter<'_, String>, flag: &str| -> Result<String, String> {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |text: String, flag: &str| -> Result<u64, String> {
        text.parse::<u64>()
            .map_err(|_| format!("{flag} needs a whole number, got {text:?}"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let name = value(&mut it, flag)?;
                args.workload = Some(
                    Workload::from_name(&name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => args.seed = number(value(&mut it, flag)?, flag)?,
            "--seconds" => args.seconds = number(value(&mut it, flag)?, flag)?,
            "--trace" => args.traced = number(value(&mut it, flag)?, flag)? != 0,
            "--traced" => args.traced = true,
            "--repeat" => args.repeat = number(value(&mut it, flag)?, flag)? as usize,
            "--all" => args.all = true,
            "--manifest" => args.manifest = true,
            "--compare" => args.compare = Some((value(&mut it, flag)?, value(&mut it, flag)?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(1..=60).contains(&args.seconds) {
        return Err(format!("--seconds must be 1..=60, got {}", args.seconds));
    }
    if args.repeat == 0 {
        return Err("--repeat must be at least 1".to_string());
    }
    let modes = usize::from(args.workload.is_some())
        + usize::from(args.all)
        + usize::from(args.compare.is_some())
        + usize::from(args.manifest);
    if modes != 1 {
        return Err(
            "give exactly one of --workload NAME, --all, --compare A B, --manifest".to_string(),
        );
    }
    Ok(args)
}

/// Runs one workload in this process, prints every metric, writes
/// `out/<workload>[-traced].json` (and the Chrome trace of a traced run),
/// and returns the result.
fn run_workload(workload: Workload, seed: u64, seconds: u64, traced: bool) -> RunResult {
    let header = report::header_json();
    println!("header {header}");
    let result = match (workload, traced) {
        (Workload::ServeSmall | Workload::ServeScale, false) => serve::run(workload, seed, seconds),
        (_, false) => train::run(workload, seed, seconds),
        (_, true) => {
            let (result, tracer) = match workload {
                Workload::ServeSmall | Workload::ServeScale => {
                    serve::run_traced(workload, seed, seconds)
                }
                _ => train::run_traced(workload, seed, seconds),
            };
            let path = report::out_dir().join(format!("trace-{}.json", workload.name()));
            tracer.write_chrome(&path).expect("writing the trace");
            println!("trace {} ({} spans)", path.display(), tracer.spans().len());
            result
        }
    };
    result.print();
    let path = report::out_dir().join(format!("{}.json", result.file_stem()));
    std::fs::write(&path, report::file_json(&header, &[result.to_json()]))
        .expect("writing the result file");
    result
}

/// 0 when everything held, 1 when a run was incorrect or a metric regressed,
/// 2 when the harness itself could not do what was asked.
fn exit_code(outcome: Result<bool, String>) -> ExitCode {
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("dgnn-benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    sysinfo::pin_malloc();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => return exit_code(Err(msg)),
    };
    if args.manifest {
        print!("{}", spec::manifest());
        return ExitCode::SUCCESS;
    }
    if let Some((a, b)) = &args.compare {
        return exit_code(compare::compare(a, b));
    }
    // The benchmark measures what a user of `fit` / `Server::start` gets by
    // default; a DGNN_* knob in the environment would silently measure
    // something else.
    if let Some((key, _)) =
        std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("DGNN_"))
    {
        eprintln!(
            "dgnn-benchmark: refusing to run with {} set",
            key.to_string_lossy()
        );
        return ExitCode::from(2);
    }
    if args.all {
        return exit_code(compare::run_all(args.seed, args.seconds, args.repeat));
    }
    let workload = args.workload.expect("parse_args guarantees a mode");
    let result = run_workload(workload, args.seed, args.seconds, args.traced);
    // The contract's last line. An incorrect run still reports (with
    // `"correct": false`); the exit code says so too.
    println!("{}", result.last_line());
    exit_code(Ok(result.correct()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_driver_command_line_parses() {
        let a = parse(&[
            "--workload",
            "serve_scale",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.traced),
            (Some(Workload::ServeScale), 7, 10, true)
        );
        let a = parse(&["--workload", "train_dgnn", "--trace", "0"]).unwrap();
        assert_eq!(
            (a.seed, a.seconds, a.traced),
            (2023, spec::RUN_SECONDS, false)
        );
        assert!(
            parse(&["--workload", "train_dgnn", "--traced"])
                .unwrap()
                .traced
        );
        assert_eq!(parse(&["--all", "--repeat", "10"]).unwrap().repeat, 10);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            &["--workload", "train_gpt"][..],
            &["--workload"],
            &["--seed", "1"],
            &["--all", "--workload", "train_dgnn"],
            &["--all", "--seconds", "0"],
            &["--all", "--seconds", "x"],
            &["--compare", "a.json"],
            &["--frobnicate"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
