//! Regenerates the paper's tables and figures from the experiment table
//! (`dgnn_bench::experiments`).
//!
//! ```text
//! reproduce            every experiment, in order: E1 E2 E4 … E11 EXT
//! reproduce E1 E5      only these, in the order given
//! ```
//!
//! E2 prints Table II and Table III (E3) from the same rows. Tables go to
//! stdout, progress to stderr, and the raw rows into `results/`. An
//! unknown id exits with status 2 and lists the valid ones.

use std::process::ExitCode;

use dgnn_bench::experiments;

fn main() -> ExitCode {
    let ids: Vec<String> = std::env::args().skip(1).collect();
    let selected = match experiments::select(&ids) {
        Ok(selected) => selected,
        Err(msg) => {
            eprintln!("reproduce: {msg}");
            return ExitCode::from(2);
        }
    };
    match experiments::run(&selected) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("reproduce: writing results: {e}");
            ExitCode::FAILURE
        }
    }
}
