//! Std-only source-level lint harness for the DGNN workspace.
//!
//! Walks every `crates/*/src/**/*.rs` file and enforces:
//!
//! 1. no bare `.unwrap()` in library code outside `#[cfg(test)]` blocks;
//! 2. `.expect(...)` needs a justifying message (≥ 10 chars) or a nearby
//!    `// INVARIANT:` / `// PANICS:` comment;
//! 3. `panic!` needs a nearby `// PANICS:` comment;
//! 4. `unsafe` needs a nearby `// SAFETY:` comment;
//! 5. a workspace-wide TODO/FIXME budget;
//! 6. (retired with the static memory planner; later rules keep their
//!    numbers because code comments and the docs cite them.)
//! 7. no ad-hoc timing or printing in the training hot path: `Instant`
//!    and `println!` inside `crates/core/src` or `crates/autograd/src`
//!    need a nearby `// OBS:` comment — instrumentation belongs in
//!    `dgnn-obs` spans/metrics so it shows up in exported traces and can
//!    be disabled globally.
//! 8. no raw thread spawning (`thread::spawn` / `thread::Builder`) outside
//!    `crates/tensor/src/parallel.rs` without a nearby `// PAR:` comment —
//!    kernel work must go through the deterministic worker pool so the
//!    bit-identity and allocation-accounting guarantees hold.
//! 9. the serving tier fails soft: `.unwrap()` / `.expect(` / `panic!`
//!    anywhere in `crates/serve/src` needs a nearby `// SERVE:` comment
//!    proving the path is unreachable from request handling — a panic
//!    there kills a worker or the batcher instead of returning a 4xx/5xx,
//!    so even a well-messaged expect is not acceptable by default.
//! 10. (retired with the graph rewriter; rules 11–15 keep their numbers
//!    because code comments and the docs cite them.)
//! 11. unsafe-contract: every `unsafe` block / `unsafe impl` — *including*
//!    those inside `#[cfg(test)]` regions, which rule 4 exempts — needs an
//!    adjacent `// SAFETY:` comment whose justification text is at least
//!    20 characters (marker-only or token justifications don't count; the
//!    comment must actually argue the invariant).
//! 12. (retired with the race sanitizer; rules 13–15 keep their numbers
//!    because code comments and the docs cite them.)
//! 13. metric-name: a string literal passed as the first argument of
//!    `hist_record(` / `gauge_set(` / `counter_add(` must
//!    match `^[a-z0-9_]+(/[a-z0-9_]+)*$` (lower_snake segments joined by
//!    `/`) or carry a nearby `// OBS:` comment. The Prometheus exporter
//!    sanitizes names on the way out, so two sloppy spellings would merge
//!    into one exported series; keeping registry names canonical at the
//!    call site makes `/metrics` ↔ registry lookups one-to-one.
//! 14. simd-justification: `std::arch` / `core::arch` intrinsics outside
//!    the packed-GEMM kernel module (`crates/tensor/src/gemm/`) need a
//!    nearby `// SIMD:` comment — hand-rolled SIMD scattered through the
//!    codebase bypasses the backend-selection, feature-detection, and
//!    determinism contracts the GEMM subsystem centralizes.
//! 15. shard-bounds: raw segment I/O — `mmap` / `munmap` / `pread` /
//!    `read_at(` / `read_exact_at(` — outside the shard-loader module
//!    (`crates/serve/src/shard.rs`) needs a nearby `// SHARD:` comment.
//!    The loader module is the one place that owns mapped-region
//!    lifetimes and pre-allocation length checks; scattered positional
//!    I/O reintroduces exactly the unchecked-length / dangling-map bugs
//!    the segmented checkpoint format's corruption tests pin down.
//!
//! `target/` and `third_party/` directories are never scanned.
//!
//! Run with `cargo run -p dgnn-analysis --bin lint [--json] [workspace-root]`.
//! `--json` prints one machine-readable report object instead of plain
//! lines. Exits non-zero when any rule fires, so `ci.sh` can gate on it.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Maximum tolerated TODO/FIXME markers across all scanned sources.
const TODO_BUDGET: usize = 8;

/// How many preceding lines may carry a `// SAFETY:` / `// PANICS:` /
/// `// INVARIANT:` marker for it to justify a flagged construct.
const MARKER_WINDOW: usize = 4;

/// Minimum characters of justification text a `// SAFETY:` comment must
/// carry (rule 11): the comment must argue the invariant, not just name
/// the marker.
const MIN_SAFETY_JUSTIFICATION: usize = 20;

struct Violation {
    file: PathBuf,
    line: usize,
    rule: &'static str,
    detail: String,
}

/// The needles are assembled at runtime so this file does not flag itself
/// when the harness scans its own crate.
struct Needles {
    unwrap: String,
    expect: String,
    panic: String,
    todo: String,
    fixme: String,
    instant: String,
    println: String,
    spawn: String,
    thread_builder: String,
    std_arch: String,
    core_arch: String,
    hist_record: String,
    gauge_set: String,
    counter_add: String,
    map_sys: String,
    unmap_sys: String,
    pread_sys: String,
    read_at_pos: String,
    read_exact_at_pos: String,
}

impl Needles {
    fn new() -> Self {
        Self {
            unwrap: format!(".unwr{}()", "ap"),
            expect: format!(".exp{}(", "ect"),
            panic: format!("pan{}!", "ic"),
            todo: format!("TO{}", "DO"),
            fixme: format!("FIX{}", "ME"),
            instant: format!("Inst{}", "ant"),
            println: format!("print{}!", "ln"),
            spawn: format!("thread::sp{}", "awn"),
            thread_builder: format!("thread::Buil{}", "der"),
            std_arch: format!("std::a{}", "rch"),
            core_arch: format!("core::a{}", "rch"),
            hist_record: format!("hist_rec{}(", "ord"),
            gauge_set: format!("gauge_s{}(", "et"),
            counter_add: format!("counter_a{}(", "dd"),
            map_sys: format!("mm{}", "ap"),
            unmap_sys: format!("munm{}", "ap"),
            pread_sys: format!("pre{}", "ad"),
            read_at_pos: format!("read_{}(", "at"),
            read_exact_at_pos: format!("read_exact_{}(", "at"),
        }
    }
}

fn main() -> ExitCode {
    let mut json = false;
    let mut root = ".".to_string();
    for arg in std::env::args().skip(1) {
        if arg == "--json" {
            json = true;
        } else {
            root = arg;
        }
    }
    let crates_dir = Path::new(&root).join("crates");
    let mut files = Vec::new();
    collect_rs_files(&crates_dir, &mut files);
    files.sort();
    if files.is_empty() {
        eprintln!("lint: no Rust sources found under {}", crates_dir.display());
        return ExitCode::FAILURE;
    }

    let needles = Needles::new();
    let mut violations = Vec::new();
    let mut todo_count = 0usize;
    for file in &files {
        match std::fs::read_to_string(file) {
            Ok(text) => lint_file(file, &text, &needles, &mut violations, &mut todo_count),
            Err(e) => violations.push(Violation {
                file: file.clone(),
                line: 0,
                rule: "io",
                detail: format!("unreadable source file: {e}"),
            }),
        }
    }
    if todo_count > TODO_BUDGET {
        violations.push(Violation {
            file: crates_dir.clone(),
            line: 0,
            rule: "todo-budget",
            detail: format!(
                "{todo_count} TODO/FIXME markers exceed the budget of {TODO_BUDGET}"
            ),
        });
    }

    if json {
        let items: Vec<String> = violations
            .iter()
            .map(|v| {
                format!(
                    "{{\"file\":{},\"line\":{},\"rule\":{},\"detail\":{}}}",
                    dgnn_analysis::json::string(&v.file.display().to_string()),
                    v.line,
                    dgnn_analysis::json::string(v.rule),
                    dgnn_analysis::json::string(&v.detail),
                )
            })
            .collect();
        println!(
            "{{\"clean\":{},\"files\":{},\"todo_count\":{},\"violations\":[{}]}}",
            violations.is_empty(),
            files.len(),
            todo_count,
            items.join(","),
        );
        return if violations.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }
    if violations.is_empty() {
        println!(
            "lint: {} files clean ({} TODO/FIXME within budget {})",
            files.len(),
            todo_count,
            TODO_BUDGET
        );
        return ExitCode::SUCCESS;
    }
    let mut out = String::new();
    for v in &violations {
        let _ = writeln!(
            out,
            "{}:{}: [{}] {}",
            v.file.display(),
            v.line,
            v.rule,
            v.detail
        );
    }
    eprint!("{out}");
    eprintln!("lint: {} violation(s) in {} files", violations.len(), files.len());
    ExitCode::FAILURE
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            // Only library/binary sources: crates/<name>/src/**; skip each
            // crate's tests/ and benches/ trees where panics are idiomatic,
            // plus build artifacts and vendored code.
            let name = entry.file_name();
            if name == "target" || name == "third_party" {
                continue;
            }
            if dir.ends_with("crates") || name == "src" || under_src(&path) {
                collect_rs_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") && under_src(&path) {
            out.push(path);
        }
    }
}

fn under_src(path: &Path) -> bool {
    path.components().any(|c| c.as_os_str() == "src")
}

/// Strips `//` line comments and the contents of ordinary string literals,
/// so needles inside docs or message strings do not fire. This is a lexer
/// approximation (no raw-string support), which is exactly as much as the
/// workspace's own sources need.
fn strip_comments_and_strings(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut chars = line.chars().peekable();
    let mut in_str = false;
    let mut in_char = false;
    while let Some(c) = chars.next() {
        if in_str {
            match c {
                '\\' => {
                    let _ = chars.next();
                }
                '"' => {
                    in_str = false;
                    out.push('"');
                }
                _ => {}
            }
            continue;
        }
        if in_char {
            if c == '\\' {
                let _ = chars.next();
            } else if c == '\'' {
                in_char = false;
            }
            continue;
        }
        match c {
            '"' => {
                in_str = true;
                out.push('"');
            }
            '\'' => {
                // Heuristic: treat as char literal only when it closes soon;
                // otherwise it is a lifetime tick.
                let rest: String = chars.clone().take(3).collect();
                if rest.starts_with('\\') || rest.chars().nth(1) == Some('\'') {
                    in_char = true;
                } else {
                    out.push('\'');
                }
            }
            '/' if chars.peek() == Some(&'/') => break,
            _ => out.push(c),
        }
    }
    out
}

/// Does any of the `window` lines before `idx` (or the line itself) carry
/// the marker comment?
fn has_marker(lines: &[&str], idx: usize, marker: &str) -> bool {
    let start = idx.saturating_sub(MARKER_WINDOW);
    lines[start..=idx].iter().any(|l| l.contains(marker))
}

/// Justification length (in chars) of the nearest `// SAFETY:` marker in
/// the window before `idx`: the text after the marker on its own line plus
/// any immediately following comment-only continuation lines. `None` when
/// no marker is in the window at all (rule 4's case).
fn safety_justification_len(lines: &[&str], idx: usize) -> Option<usize> {
    let start = idx.saturating_sub(MARKER_WINDOW);
    let marker_at = (start..=idx).rev().find(|&j| lines[j].contains("SAFETY:"))?;
    let tail = match lines[marker_at].find("SAFETY:") {
        Some(p) => &lines[marker_at][p + "SAFETY:".len()..],
        None => "",
    };
    let mut len = tail.trim().chars().count();
    for l in lines.iter().take(idx).skip(marker_at + 1) {
        match l.trim_start().strip_prefix("//") {
            Some(rest) => len += rest.trim().chars().count(),
            None => break,
        }
    }
    Some(len)
}

/// `.expect("...")` with a message of at least 10 characters counts as
/// self-justifying. `start` points at the needle's opening parenthesis.
fn expect_message_len(code: &str, paren: usize) -> usize {
    let rest = &code[paren..];
    let open = match rest.find('"') {
        Some(i) => i,
        None => return 0,
    };
    let body = &rest[open + 1..];
    match body.find('"') {
        Some(close) => close,
        None => body.len(), // message continues past the stripped region
    }
}

/// The string literal opening right after a metric-call needle, read from
/// the RAW line (the stripper blanks string contents, so the name only
/// survives there). `after` points one past the needle's `(`. Returns
/// `None` when the first argument is not a literal on this line — a
/// `format!`/variable name is dynamic and rule 13 does not judge it.
fn metric_name_literal(raw: &str, after: usize) -> Option<&str> {
    let rest = raw.get(after..)?;
    let rest = rest.trim_start();
    let body = rest.strip_prefix('"')?;
    let close = body.find('"')?;
    Some(&body[..close])
}

/// Rule 13's canonical-name check: `^[a-z0-9_]+(/[a-z0-9_]+)*$`, spelled
/// out by hand because the workspace has no regex crate.
fn valid_metric_literal(name: &str) -> bool {
    !name.is_empty()
        && name.split('/').all(|seg| {
            !seg.is_empty()
                && seg.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        })
}

fn lint_file(
    file: &Path,
    text: &str,
    needles: &Needles,
    violations: &mut Vec<Violation>,
    todo_count: &mut usize,
) {
    let lines: Vec<&str> = text.lines().collect();
    // Rule 7 applies to the training hot path: core and autograd must route
    // timing and output through dgnn-obs, never roll their own.
    let obs_scope = ["core", "autograd"].iter().any(|c| {
        let marker: PathBuf = ["crates", c, "src"].iter().collect();
        file.components()
            .collect::<Vec<_>>()
            .windows(3)
            .any(|w| w.iter().map(|c| c.as_os_str()).eq(marker.iter()))
    });
    // Rule 8 applies everywhere except the kernel pool itself: the one
    // place allowed to own worker threads.
    let par_scope = !file.ends_with(Path::new("tensor/src/parallel.rs"));
    // Rule 14 exempts the packed-GEMM kernel module, the one place that
    // owns raw SIMD: its microkernels sit behind runtime feature detection
    // and the backend-selection/determinism contracts.
    let simd_scope = {
        let marker: PathBuf = ["crates", "tensor", "src", "gemm"].iter().collect();
        !file
            .components()
            .collect::<Vec<_>>()
            .windows(4)
            .any(|w| w.iter().map(|c| c.as_os_str()).eq(marker.iter()))
    };
    // Rule 15 exempts the shard-loader module, the one place that owns
    // mapped-region lifetimes and segment read bounds; everywhere else
    // positional segment I/O must justify why it is not loader business.
    let shard_scope = !file.ends_with(Path::new("serve/src/shard.rs"));
    // Rule 9 applies to the serving tier, which must fail soft: request
    // handling answers bad input with 4xx/5xx JSON, never a panic.
    let serve_scope = {
        let marker: PathBuf = ["crates", "serve", "src"].iter().collect();
        file.components()
            .collect::<Vec<_>>()
            .windows(3)
            .any(|w| w.iter().map(|c| c.as_os_str()).eq(marker.iter()))
    };
    // Track `#[cfg(test)]`-gated regions by brace depth: everything between
    // the attribute's following `{` and its matching `}` is test code where
    // unwrap/expect/panic are idiomatic.
    let mut test_depth: i64 = -1; // -1: not inside a test region
    let mut pending_test_attr = false;
    let mut depth: i64 = 0;

    for (i, raw) in lines.iter().enumerate() {
        let code = strip_comments_and_strings(raw);
        let lineno = i + 1;

        if raw.contains("#[cfg(test)]") {
            pending_test_attr = true;
        }
        let opens = code.matches('{').count() as i64;
        let closes = code.matches('}').count() as i64;
        if pending_test_attr && opens > 0 {
            test_depth = depth + 1;
            pending_test_attr = false;
        }
        depth += opens - closes;
        let in_test = test_depth >= 0 && depth >= test_depth;
        if test_depth >= 0 && depth < test_depth {
            test_depth = -1;
        }

        if raw.contains(&needles.todo) || raw.contains(&needles.fixme) {
            *todo_count += 1;
        }
        // Rule 11 runs before the test-region skip: unlike rule 4 it
        // exempts no region, and it additionally demands that the SAFETY
        // comment argue the invariant rather than merely exist. It fires
        // only for the cases rule 4 misses (marker absent inside test
        // code, or marker present but too thin), so the two never
        // double-report one site.
        if contains_unsafe_keyword(&code) {
            match safety_justification_len(&lines, i) {
                Some(len) if len < MIN_SAFETY_JUSTIFICATION => {
                    violations.push(Violation {
                        file: file.to_path_buf(),
                        line: lineno,
                        rule: "unsafe-contract",
                        detail: format!(
                            "SAFETY comment carries only {len} chars of \
                             justification (minimum {MIN_SAFETY_JUSTIFICATION}); \
                             it must argue the invariant, not just name the marker"
                        ),
                    });
                }
                None if in_test => {
                    violations.push(Violation {
                        file: file.to_path_buf(),
                        line: lineno,
                        rule: "unsafe-contract",
                        detail: "unsafe in test code without a nearby // SAFETY: \
                                 comment; test unsafety needs the same argued \
                                 invariant as library unsafety"
                            .to_string(),
                    });
                }
                _ => {}
            }
        }
        if in_test {
            continue;
        }

        if code.contains(needles.unwrap.as_str()) {
            violations.push(Violation {
                file: file.to_path_buf(),
                line: lineno,
                rule: "no-unwrap",
                detail: "bare unwrap in library code; use expect with a message, \
                         propagate the error, or handle the None/Err arm"
                    .to_string(),
            });
        }
        if let Some(pos) = code.find(needles.expect.as_str()) {
            let msg_len = expect_message_len(raw, pos + needles.expect.len() - 1);
            let justified = msg_len >= 10
                || has_marker(&lines, i, "INVARIANT:")
                || has_marker(&lines, i, "PANICS:");
            if !justified {
                violations.push(Violation {
                    file: file.to_path_buf(),
                    line: lineno,
                    rule: "expect-message",
                    detail: "expect without a justifying message (>= 10 chars) or a \
                             nearby INVARIANT:/PANICS: comment"
                        .to_string(),
                });
            }
        }
        if code.contains(needles.panic.as_str()) && !has_marker(&lines, i, "PANICS:") {
            violations.push(Violation {
                file: file.to_path_buf(),
                line: lineno,
                rule: "panic-doc",
                detail: "panic! without a nearby // PANICS: comment explaining why \
                         the condition is unreachable or fatal"
                    .to_string(),
            });
        }
        if obs_scope && !has_marker(&lines, i, "OBS:") {
            for (needle, what) in
                [(&needles.instant, "Instant timing"), (&needles.println, "println! output")]
            {
                if code.contains(needle.as_str()) {
                    violations.push(Violation {
                        file: file.to_path_buf(),
                        line: lineno,
                        rule: "obs-instrumentation",
                        detail: format!(
                            "ad-hoc {what} in the training hot path without a nearby \
                             // OBS: comment; route it through dgnn-obs spans/metrics"
                        ),
                    });
                }
            }
        }
        if par_scope
            && (code.contains(needles.spawn.as_str())
                || code.contains(needles.thread_builder.as_str()))
            && !has_marker(&lines, i, "PAR:")
        {
            violations.push(Violation {
                file: file.to_path_buf(),
                line: lineno,
                rule: "par-raw-thread",
                detail: "raw thread spawn outside the kernel pool without a nearby \
                         // PAR: comment; kernel work must run on the deterministic \
                         pool in crates/tensor/src/parallel.rs"
                    .to_string(),
            });
        }
        if serve_scope
            && (code.contains(needles.unwrap.as_str())
                || code.contains(needles.expect.as_str())
                || code.contains(needles.panic.as_str()))
            && !has_marker(&lines, i, "SERVE:")
        {
            violations.push(Violation {
                file: file.to_path_buf(),
                line: lineno,
                rule: "serve-fail-soft",
                detail: "potential panic in the serving tier without a nearby \
                         // SERVE: comment; request paths must return JSON \
                         errors, never panic"
                    .to_string(),
            });
        }
        if contains_unsafe_keyword(&code) && !has_marker(&lines, i, "SAFETY:") {
            violations.push(Violation {
                file: file.to_path_buf(),
                line: lineno,
                rule: "undocumented-unsafe",
                detail: "unsafe without a nearby // SAFETY: comment".to_string(),
            });
        }
        if simd_scope
            && (code.contains(needles.std_arch.as_str())
                || code.contains(needles.core_arch.as_str()))
            && !has_marker(&lines, i, "SIMD:")
        {
            violations.push(Violation {
                file: file.to_path_buf(),
                line: lineno,
                rule: "simd-justification",
                detail: "raw std::arch/core::arch intrinsics outside \
                         crates/tensor/src/gemm/ without a nearby // SIMD: \
                         comment; SIMD belongs behind the GEMM subsystem's \
                         feature detection and determinism contracts"
                    .to_string(),
            });
        }
        if shard_scope
            && (contains_word(&code, needles.map_sys.as_str())
                || contains_word(&code, needles.unmap_sys.as_str())
                || contains_word(&code, needles.pread_sys.as_str())
                || contains_prefix_bounded(&code, needles.read_at_pos.as_str())
                || contains_prefix_bounded(&code, needles.read_exact_at_pos.as_str()))
            && !has_marker(&lines, i, "SHARD:")
        {
            violations.push(Violation {
                file: file.to_path_buf(),
                line: lineno,
                rule: "shard-bounds",
                detail: "raw segment I/O (map/positional read) outside \
                         crates/serve/src/shard.rs without a nearby \
                         // SHARD: comment; mapped-region lifetimes and \
                         length-checked reads belong to the shard loader"
                    .to_string(),
            });
        }
        for needle in [&needles.hist_record, &needles.gauge_set, &needles.counter_add] {
            // Gate on the stripped code (so doc/comment examples never
            // fire), then read the literal back out of the raw line where
            // the stripper blanked it.
            if !code.contains(needle.as_str()) {
                continue;
            }
            let Some(pos) = raw.find(needle.as_str()) else { continue };
            let Some(name) = metric_name_literal(raw, pos + needle.len()) else { continue };
            if !valid_metric_literal(name) && !has_marker(&lines, i, "OBS:") {
                violations.push(Violation {
                    file: file.to_path_buf(),
                    line: lineno,
                    rule: "metric-name",
                    detail: format!(
                        "metric name `{name}` is not canonical \
                         (lower_snake segments joined by `/`); the Prometheus \
                         exporter would silently merge sloppy spellings — \
                         rename it or justify with a nearby // OBS: comment"
                    ),
                });
            }
        }
    }
}

/// Word-boundary match: `needle` must not be embedded in a longer
/// identifier on either side (so `spread` never trips the `pread` check).
fn contains_word(code: &str, needle: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = code[start..].find(needle) {
        let abs = start + pos;
        let before_ok = abs == 0
            || !code[..abs].chars().next_back().is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = &code[abs + needle.len()..];
        let after_ok = !after.chars().next().is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = abs + needle.len();
    }
    false
}

/// Like [`contains_word`] but for needles that already end in `(`: only
/// the leading boundary needs checking.
fn contains_prefix_bounded(code: &str, needle: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = code[start..].find(needle) {
        let abs = start + pos;
        let before_ok = abs == 0
            || !code[..abs].chars().next_back().is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok {
            return true;
        }
        start = abs + needle.len();
    }
    false
}

/// Word-boundary match for the `unsafe` keyword.
fn contains_unsafe_keyword(code: &str) -> bool {
    let mut rest = code;
    while let Some(pos) = rest.find("unsafe") {
        let before_ok = pos == 0
            || !rest[..pos]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = &rest[pos + "unsafe".len()..];
        let after_ok =
            !after.chars().next().is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        rest = &rest[pos + "unsafe".len()..];
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_line_comments() {
        assert_eq!(strip_comments_and_strings("let x = 1; // .unwrap()"), "let x = 1; ");
    }

    #[test]
    fn strips_string_contents() {
        assert_eq!(
            strip_comments_and_strings(r#"let s = "call .unwrap() here";"#),
            r#"let s = "";"#
        );
    }

    #[test]
    fn unsafe_word_boundary() {
        assert!(contains_unsafe_keyword("unsafe { }"));
        assert!(!contains_unsafe_keyword("let not_unsafe_name = 1;"));
        assert!(!contains_unsafe_keyword("unsafety"));
    }

    #[test]
    fn obs_rule_fires_only_in_hot_path_scope() {
        let needles = Needles::new();
        let text = format!("let t = std::time::{}::now();\n", needles.instant);
        let hot = Path::new("crates/core/src/training.rs");
        let mut violations = Vec::new();
        let mut todos = 0;
        lint_file(hot, &text, &needles, &mut violations, &mut todos);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].rule, "obs-instrumentation");

        // An OBS: marker within the window justifies the use.
        violations.clear();
        let justified = format!("// OBS: one-shot startup cost, not a training loop\n{text}");
        lint_file(hot, &justified, &needles, &mut violations, &mut todos);
        assert!(violations.is_empty());

        // Outside core/autograd the same line is fine.
        violations.clear();
        lint_file(Path::new("crates/bench/src/lib.rs"), &text, &needles, &mut violations, &mut todos);
        assert!(violations.is_empty());
    }

    #[test]
    fn par_rule_exempts_the_kernel_pool() {
        let needles = Needles::new();
        let text = format!("let h = std::{}(move || work());\n", needles.spawn);
        let mut violations = Vec::new();
        let mut todos = 0;

        lint_file(Path::new("crates/core/src/model.rs"), &text, &needles, &mut violations, &mut todos);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].rule, "par-raw-thread");

        // The pool itself may spawn workers freely.
        violations.clear();
        lint_file(
            Path::new("crates/tensor/src/parallel.rs"),
            &text,
            &needles,
            &mut violations,
            &mut todos,
        );
        assert!(violations.is_empty());

        // A PAR: marker justifies a spawn elsewhere (e.g. a test harness).
        violations.clear();
        let justified =
            format!("// PAR: cross-thread determinism probe, not kernel work\n{text}");
        lint_file(Path::new("crates/obs/src/lib.rs"), &justified, &needles, &mut violations, &mut todos);
        assert!(violations.is_empty());
    }

    #[test]
    fn serve_rule_demands_a_serve_marker() {
        let needles = Needles::new();
        // A well-messaged expect passes rule 2 everywhere, but rule 9
        // still rejects it inside the serving tier.
        let text = format!("let v = maybe{}\"invariant holds by construction\");\n", needles.expect);
        let mut violations = Vec::new();
        let mut todos = 0;
        lint_file(Path::new("crates/serve/src/http.rs"), &text, &needles, &mut violations, &mut todos);
        assert_eq!(violations.len(), 1, "got {:?}", violations.iter().map(|v| v.rule).collect::<Vec<_>>());
        assert_eq!(violations[0].rule, "serve-fail-soft");

        // A SERVE: marker within the window justifies it.
        violations.clear();
        let justified = format!("// SERVE: load-time only, no request path reaches this\n{text}");
        lint_file(Path::new("crates/serve/src/engine.rs"), &justified, &needles, &mut violations, &mut todos);
        assert!(violations.is_empty(), "got {:?}", violations.iter().map(|v| v.rule).collect::<Vec<_>>());

        // The same line outside crates/serve/src does not trip rule 9.
        violations.clear();
        lint_file(Path::new("crates/bench/src/lib.rs"), &text, &needles, &mut violations, &mut todos);
        assert!(violations.iter().all(|v| v.rule != "serve-fail-soft"));
    }

    #[test]
    fn unsafe_contract_demands_substantive_justification() {
        let needles = Needles::new();
        let mut violations = Vec::new();
        let mut todos = 0;
        let path = Path::new("crates/tensor/src/buf.rs");

        // Marker present (rule 4 passes) but the justification is thin.
        let thin = "// SAFETY: fine\nlet v = unsafe { p.read() };\n";
        lint_file(path, thin, &needles, &mut violations, &mut todos);
        assert_eq!(violations.len(), 1, "got {:?}", violations.iter().map(|v| v.rule).collect::<Vec<_>>());
        assert_eq!(violations[0].rule, "unsafe-contract");

        // A multi-line argued invariant satisfies both rules 4 and 11.
        // (Kept as single-line literals: the lexer is line-based, so a
        // backslash-continued literal would read as code when this file
        // scans itself.)
        violations.clear();
        let ok = "// SAFETY: the pointer derives from a live Vec whose length\n// bounds every index this block reads.\nlet v = unsafe { p.read() };\n";
        lint_file(path, ok, &needles, &mut violations, &mut todos);
        assert!(violations.is_empty(), "got {:?}", violations.iter().map(|v| v.rule).collect::<Vec<_>>());

        // Test regions are exempt from rule 4 but not from rule 11. The
        // attribute is assembled at runtime so this file's own test-region
        // tracking does not trip over the literal.
        violations.clear();
        let attr = format!("#[cfg(te{})]", "st");
        let in_test =
            format!("{attr}\nmod tests {{\n    fn f() {{ let v = unsafe {{ p.read() }}; }}\n}}\n");
        lint_file(path, &in_test, &needles, &mut violations, &mut todos);
        assert_eq!(violations.len(), 1, "got {:?}", violations.iter().map(|v| v.rule).collect::<Vec<_>>());
        assert_eq!(violations[0].rule, "unsafe-contract");

        // ... and a substantive comment clears test-region unsafety too.
        violations.clear();
        let in_test_ok = format!(
            "{attr}\nmod tests {{\n    // SAFETY: test-local buffer outlives the read and is in-bounds.\n    fn f() {{ let v = unsafe {{ p.read() }}; }}\n}}\n"
        );
        lint_file(path, &in_test_ok, &needles, &mut violations, &mut todos);
        assert!(violations.is_empty(), "got {:?}", violations.iter().map(|v| v.rule).collect::<Vec<_>>());
    }

    #[test]
    fn simd_rule_exempts_the_gemm_module() {
        let needles = Needles::new();
        let mut violations = Vec::new();
        let mut todos = 0;
        let text = format!("use std::{}::x86_64::_mm256_setzero_ps;\n", &needles.std_arch[5..]);

        // Raw intrinsics outside the GEMM module fire.
        lint_file(Path::new("crates/core/src/model.rs"), &text, &needles, &mut violations, &mut todos);
        assert_eq!(violations.len(), 1, "got {:?}", violations.iter().map(|v| v.rule).collect::<Vec<_>>());
        assert_eq!(violations[0].rule, "simd-justification");

        // core::arch is covered by the same rule.
        violations.clear();
        let core_text = format!("use core::{}::aarch64::vfmaq_f32;\n", &needles.core_arch[6..]);
        lint_file(Path::new("crates/obs/src/lib.rs"), &core_text, &needles, &mut violations, &mut todos);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].rule, "simd-justification");

        // A SIMD: marker within the window justifies one elsewhere.
        violations.clear();
        let justified = format!("// SIMD: CPU-feature probe only, no data path\n{text}");
        lint_file(Path::new("crates/core/src/model.rs"), &justified, &needles, &mut violations, &mut todos);
        assert!(violations.is_empty(), "got {:?}", violations.iter().map(|v| v.rule).collect::<Vec<_>>());

        // The GEMM kernel module owns raw SIMD.
        violations.clear();
        lint_file(Path::new("crates/tensor/src/gemm/avx2.rs"), &text, &needles, &mut violations, &mut todos);
        assert!(violations.is_empty(), "got {:?}", violations.iter().map(|v| v.rule).collect::<Vec<_>>());
    }

    #[test]
    fn shard_bounds_rule_exempts_the_loader_module() {
        let needles = Needles::new();
        let mut violations = Vec::new();
        let mut todos = 0;
        let text = format!("let n = file.{}&mut buf, off)?;\n", needles.read_at_pos);

        // Positional segment I/O outside the loader fires.
        lint_file(Path::new("crates/serve/src/engine.rs"), &text, &needles, &mut violations, &mut todos);
        assert_eq!(violations.len(), 1, "got {:?}", violations.iter().map(|v| v.rule).collect::<Vec<_>>());
        assert_eq!(violations[0].rule, "shard-bounds");

        // Raw map syscalls are covered by the same rule.
        violations.clear();
        let map_text = format!("let p = {}(core::ptr::null_mut(), len);\n", needles.map_sys);
        lint_file(Path::new("crates/tensor/src/dense.rs"), &map_text, &needles, &mut violations, &mut todos);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].rule, "shard-bounds");

        // A SHARD: marker within the window justifies it.
        violations.clear();
        let justified = format!(
            "// SHARD: gauge plumbing reading procfs, not segment bytes\n{text}"
        );
        lint_file(Path::new("crates/obs/src/procstat.rs"), &justified, &needles, &mut violations, &mut todos);
        assert!(violations.is_empty(), "got {:?}", violations.iter().map(|v| v.rule).collect::<Vec<_>>());

        // The shard loader owns raw maps and positional reads.
        violations.clear();
        lint_file(Path::new("crates/serve/src/shard.rs"), &map_text, &needles, &mut violations, &mut todos);
        assert!(violations.is_empty(), "got {:?}", violations.iter().map(|v| v.rule).collect::<Vec<_>>());

        // Identifier boundaries hold: `spread` is not `pread`.
        violations.clear();
        let word = format!("let s{} = 1.0;\n", needles.pread_sys);
        lint_file(Path::new("crates/core/src/model.rs"), &word, &needles, &mut violations, &mut todos);
        assert!(violations.is_empty(), "got {:?}", violations.iter().map(|v| v.rule).collect::<Vec<_>>());
    }

    #[test]
    fn metric_name_rule_demands_canonical_literals() {
        let needles = Needles::new();
        let mut violations = Vec::new();
        let mut todos = 0;
        let path = Path::new("crates/core/src/training.rs");

        // A canonical slash-joined lower_snake name passes.
        let ok = format!("dgnn_obs::{}\"train/epoch_loss\", 1.0);\n", needles.hist_record);
        lint_file(path, &ok, &needles, &mut violations, &mut todos);
        assert!(violations.is_empty(), "got {:?}", violations.iter().map(|v| v.rule).collect::<Vec<_>>());

        // Uppercase, dots, and empty segments all fire.
        for bad in ["Train/Loss", "train.loss", "train//loss", "/train", "train/"] {
            violations.clear();
            let text = format!("dgnn_obs::{}\"{bad}\", 1.0);\n", needles.gauge_set);
            lint_file(path, &text, &needles, &mut violations, &mut todos);
            assert_eq!(violations.len(), 1, "`{bad}` should fire, got {:?}",
                violations.iter().map(|v| v.rule).collect::<Vec<_>>());
            assert_eq!(violations[0].rule, "metric-name");
            assert!(violations[0].detail.contains(bad));
        }

        // An OBS: marker within the window justifies a non-canonical name.
        violations.clear();
        let justified = format!(
            "// OBS: legacy dashboard key, renaming would break saved queries\ndgnn_obs::{}\"Legacy.Name\", 1);\n",
            needles.counter_add
        );
        lint_file(path, &justified, &needles, &mut violations, &mut todos);
        assert!(violations.is_empty(), "got {:?}", violations.iter().map(|v| v.rule).collect::<Vec<_>>());

        // Dynamic names (format!/variables) are not judged by this rule.
        violations.clear();
        let dynamic = format!("dgnn_obs::{}&format!(\"serve/phase/{{p}}_ms\"), v);\n", needles.gauge_set);
        lint_file(path, &dynamic, &needles, &mut violations, &mut todos);
        assert!(violations.is_empty(), "got {:?}", violations.iter().map(|v| v.rule).collect::<Vec<_>>());

        // Test regions keep their one-letter scratch names.
        violations.clear();
        let attr = format!("#[cfg(te{})]", "st");
        let in_test = format!(
            "{attr}\nmod tests {{\n    fn f() {{ {}\"BAD NAME\", 2.0); }}\n}}\n",
            needles.hist_record
        );
        lint_file(path, &in_test, &needles, &mut violations, &mut todos);
        assert!(violations.is_empty(), "got {:?}", violations.iter().map(|v| v.rule).collect::<Vec<_>>());

        // A doc-comment usage example never fires: the stripped code gate
        // sees only the comment-free line.
        violations.clear();
        let doc = format!("// e.g. {}\"Bad.Example\", 1.0);\nlet x = 1;\n", needles.hist_record);
        lint_file(path, &doc, &needles, &mut violations, &mut todos);
        assert!(violations.is_empty(), "got {:?}", violations.iter().map(|v| v.rule).collect::<Vec<_>>());
    }

    #[test]
    fn metric_literal_charset() {
        assert!(valid_metric_literal("serve/latency_ms"));
        assert!(valid_metric_literal("loss"));
        assert!(valid_metric_literal("a/b/c_0"));
        assert!(!valid_metric_literal(""));
        assert!(!valid_metric_literal("A"));
        assert!(!valid_metric_literal("a-b"));
        assert!(!valid_metric_literal("a b"));
        assert!(!valid_metric_literal("a//b"));
    }

    #[test]
    fn expect_message_length() {
        let line = r#"foo.expect("short");"#;
        let pos = line.find("(").unwrap();
        assert_eq!(expect_message_len(line, pos), 5);
        let line2 = r#"foo.expect("a much longer justification");"#;
        let pos2 = line2.find("(").unwrap();
        assert!(expect_message_len(line2, pos2) >= 10);
    }
}
