//! The source rules clippy cannot say, over `crates/*/src/**/*.rs` (the rest
//! are clippy lints; DESIGN.md §2 maps each to the rule it replaced). Run
//! with `cargo run -p dgnn-analysis --bin lint [workspace-root]`.
//!
//! 5. A workspace budget of to-do markers (the two upper-case words).
//! 13. metric-name: a string literal passed first to `hist_record(` /
//!     `gauge_set(` / `counter_add(` outside test code must match
//!     `^[a-z0-9_]+(/[a-z0-9_]+)*$` or carry a nearby `// OBS:` comment. The
//!     Prometheus exporter sanitizes names, so sloppy spellings would merge.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

// The to-do marker budget, and how far above a metric call its `// OBS:` may sit.
const MARKER_BUDGET: u32 = 1;
const MARKER_WINDOW: usize = 4;

struct Violation {
    file: PathBuf,
    line: usize,
    rule: &'static str,
    detail: String,
}

struct Needles {
    hist_record: &'static str,
    gauge_set: &'static str,
    counter_add: &'static str,
}

impl Needles {
    fn new() -> Self {
        Self { hist_record: "hist_record(", gauge_set: "gauge_set(", counter_add: "counter_add(" }
    }
}

fn main() -> std::io::Result<ExitCode> {
    let root = PathBuf::from(std::env::args().nth(1).unwrap_or_else(|| ".".to_string()));
    let mut files = Vec::new();
    for krate in std::fs::read_dir(root.join("crates"))? {
        collect_rs_files(&krate?.path().join("src"), &mut files);
    }
    files.sort();
    let (mut violations, mut markers) = (Vec::new(), 0);
    for file in &files {
        let text = std::fs::read_to_string(file)?;
        lint_file(file, &text, &Needles::new(), &mut violations, &mut markers);
    }
    for v in &violations {
        eprintln!("{}:{}: [{}] {}", v.file.display(), v.line, v.rule, v.detail);
    }
    let (n, bad) = (files.len(), violations.len());
    println!("lint: {n} files, {bad} violation(s), {markers} to-do markers (max {MARKER_BUDGET})");
    let clean = n > 0 && bad == 0 && markers <= MARKER_BUDGET;
    Ok(if clean { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for path in std::fs::read_dir(dir).into_iter().flatten().flatten().map(|e| e.path()) {
        if path.is_dir() {
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Strips `//` line comments, char literals and the contents of ordinary
/// strings (`"..."` becomes `""`), so needles and braces in them do not count.
/// A lexer approximation (no raw strings), as much as the sources need.
fn strip_comments_and_strings(line: &str) -> String {
    let (mut out, mut chars, mut quote) = (String::new(), line.chars().peekable(), None);
    while let Some(c) = chars.next() {
        // A tick opens a char literal only when it closes soon (`'x'`,
        // `'\n'`); otherwise it is a lifetime.
        let mut next = chars.clone();
        let char_literal = c == '\'' && (next.next() == Some('\\') || next.next() == Some('\''));
        match quote {
            Some(_) if c == '\\' => _ = chars.next(),
            Some(q) if c == q => quote = None,
            Some(_) => {}
            None if c == '/' && chars.peek() == Some(&'/') => break,
            None if c == '"' || char_literal => quote = Some(c),
            None => out.push(c),
        }
        if c == '"' && quote != Some('\'') {
            out.push(c);
        }
    }
    out
}

/// Rule 13's `^[a-z0-9_]+(/[a-z0-9_]+)*$`, by hand: the workspace has no regex crate.
fn valid_metric_literal(name: &str) -> bool {
    !name.is_empty()
        && name.split('/').all(|seg| {
            !seg.is_empty()
                && seg.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        })
}

fn lint_file(file: &Path, src: &str, needles: &Needles, out: &mut Vec<Violation>, todo: &mut u32) {
    let lines: Vec<&str> = src.lines().collect();
    // `#[cfg(test)]` regions, tracked by brace depth, are exempt from rule 13.
    let (mut depth, mut test_depth, mut pending_test_attr) = (0i64, None, false);
    for (i, raw) in lines.iter().enumerate() {
        let marker = [concat!("TO", "DO"), concat!("FIX", "ME")].iter().any(|m| raw.contains(m));
        *todo += u32::from(marker);
        let code = strip_comments_and_strings(raw);
        pending_test_attr |= raw.contains("#[cfg(test)]");
        let opens = code.matches('{').count() as i64;
        if pending_test_attr && opens > 0 {
            (test_depth, pending_test_attr) = (Some(depth + 1), false);
        }
        depth += opens - code.matches('}').count() as i64;
        match test_depth {
            Some(t) if depth >= t => continue,
            _ => test_depth = None,
        }
        for needle in [needles.hist_record, needles.gauge_set, needles.counter_add] {
            // Gate on the stripped code, so comments never fire; read the name
            // from the raw line. A `format!` or variable name is not judged.
            let Some(pos) = raw.find(needle).filter(|_| code.contains(needle)) else { continue };
            let arg = raw[pos + needle.len()..].trim_start().strip_prefix('"');
            let Some((name, _)) = arg.and_then(|a| a.split_once('"')) else { continue };
            let window = &lines[i.saturating_sub(MARKER_WINDOW)..=i];
            if !valid_metric_literal(name) && !window.iter().any(|l| l.contains("OBS:")) {
                let detail = format!(
                    "metric name `{name}` is not canonical (lower_snake segments joined by \
                     `/`); rename it or justify it with a nearby // OBS: comment"
                );
                out.push(Violation { file: file.into(), line: i + 1, rule: "metric-name", detail });
            }
        }
    }
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
    fn metric_name_rule_demands_canonical_literals() {
        let needles = Needles::new();
        let mut violations = Vec::new();
        let mut todos = 0;
        let path = Path::new("crates/core/src/training.rs");

        // A canonical slash-joined lower_snake name passes.
        let ok = format!("dgnn_obs::{}\"train/epoch_loss\", 1.0);\n", needles.hist_record);
        lint_file(path, &ok, &needles, &mut violations, &mut todos);
        assert!(
            violations.is_empty(),
            "got {:?}",
            violations.iter().map(|v| v.rule).collect::<Vec<_>>()
        );

        // Uppercase, dots, and empty segments all fire.
        for bad in ["Train/Loss", "train.loss", "train//loss", "/train", "train/"] {
            violations.clear();
            let text = format!("dgnn_obs::{}\"{bad}\", 1.0);\n", needles.gauge_set);
            lint_file(path, &text, &needles, &mut violations, &mut todos);
            assert_eq!(
                violations.len(),
                1,
                "`{bad}` should fire, got {:?}",
                violations.iter().map(|v| v.rule).collect::<Vec<_>>()
            );
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
        assert!(
            violations.is_empty(),
            "got {:?}",
            violations.iter().map(|v| v.rule).collect::<Vec<_>>()
        );

        // Dynamic names (format!/variables) are not judged by this rule.
        violations.clear();
        let dynamic =
            format!("dgnn_obs::{}&format!(\"serve/phase/{{p}}_ms\"), v);\n", needles.gauge_set);
        lint_file(path, &dynamic, &needles, &mut violations, &mut todos);
        assert!(
            violations.is_empty(),
            "got {:?}",
            violations.iter().map(|v| v.rule).collect::<Vec<_>>()
        );

        // Test regions keep their one-letter scratch names.
        violations.clear();
        let attr = format!("#[cfg(te{})]", "st");
        let in_test = format!(
            "{attr}\nmod tests {{\n    fn f() {{ {}\"BAD NAME\", 2.0); }}\n}}\n",
            needles.hist_record
        );
        lint_file(path, &in_test, &needles, &mut violations, &mut todos);
        assert!(
            violations.is_empty(),
            "got {:?}",
            violations.iter().map(|v| v.rule).collect::<Vec<_>>()
        );

        // A doc-comment usage example never fires: the stripped code gate
        // sees only the comment-free line.
        violations.clear();
        let doc = format!("// e.g. {}\"Bad.Example\", 1.0);\nlet x = 1;\n", needles.hist_record);
        lint_file(path, &doc, &needles, &mut violations, &mut todos);
        assert!(
            violations.is_empty(),
            "got {:?}",
            violations.iter().map(|v| v.rule).collect::<Vec<_>>()
        );
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
}
