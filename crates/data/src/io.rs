//! Plain-text dataset persistence.
//!
//! Format (one record per line, `#` comments allowed):
//!
//! ```text
//! # header
//! meta <users> <items> <relations>
//! y <user> <item> <time>
//! s <user_a> <user_b>
//! t <item> <relation>
//! ```
//!
//! The real Ciao/Epinions/Yelp dumps can be converted to this format and
//! loaded with [`read_graph`]; everything downstream (splits, models,
//! experiments) is agnostic to whether the graph came from [`crate::synth`]
//! or from disk.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use dgnn_graph::{HeteroGraph, HeteroGraphBuilder};

/// Errors raised while parsing the text format.
#[derive(Debug)]
pub enum ParseError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A malformed line.
    Malformed {
        /// 1-based line number of the offending record.
        line: usize,
        /// Human-readable description of what was wrong.
        message: String,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Io(e) => write!(f, "i/o error: {e}"),
            ParseError::Malformed { line, message } => {
                write!(f, "line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

impl From<io::Error> for ParseError {
    fn from(e: io::Error) -> Self {
        ParseError::Io(e)
    }
}

/// Serializes a graph to the text format.
pub fn write_graph(g: &HeteroGraph) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "meta {} {} {}", g.num_users(), g.num_items(), g.num_relations());
    for it in g.interactions() {
        let _ = writeln!(out, "y {} {} {}", it.user, it.item, it.time);
    }
    for &(a, b) in g.social_ties() {
        let _ = writeln!(out, "s {a} {b}");
    }
    for &(v, r) in g.item_relations() {
        let _ = writeln!(out, "t {v} {r}");
    }
    out
}

/// Writes a graph to a file.
pub fn save_graph(g: &HeteroGraph, path: impl AsRef<Path>) -> io::Result<()> {
    fs::write(path, write_graph(g))
}

/// Parses the text format.
pub fn read_graph(text: &str) -> Result<HeteroGraph, ParseError> {
    let mut builder: Option<HeteroGraphBuilder> = None;
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let n = lineno + 1;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        #[expect(clippy::expect_used, reason = "the line is trimmed and non-empty")]
        let tag = parts.next().expect("non-empty line has a first token");
        let mut field = |what: &str| -> Result<usize, ParseError> {
            parts
                .next()
                .ok_or_else(|| ParseError::Malformed {
                    line: n,
                    message: format!("missing {what}"),
                })?
                .parse()
                .map_err(|_| ParseError::Malformed {
                    line: n,
                    message: format!("{what} is not an integer"),
                })
        };
        match tag {
            "meta" => {
                let users = field("user count")?;
                let items = field("item count")?;
                let rels = field("relation count")?;
                builder = Some(HeteroGraphBuilder::new(users, items, rels));
            }
            "y" | "s" | "t" => {
                let b = builder.as_mut().ok_or_else(|| ParseError::Malformed {
                    line: n,
                    message: "record before meta line".into(),
                })?;
                match tag {
                    "y" => {
                        let (u, v, t) = (field("user")?, field("item")?, field("time")?);
                        b.interaction(u, v, t as u32);
                    }
                    "s" => {
                        let (a, c) = (field("user a")?, field("user b")?);
                        b.social_tie(a, c);
                    }
                    _ => {
                        let (v, r) = (field("item")?, field("relation")?);
                        b.item_relation(v, r);
                    }
                }
            }
            other => {
                return Err(ParseError::Malformed {
                    line: n,
                    message: format!("unknown record tag {other:?}"),
                })
            }
        }
    }
    builder
        .map(HeteroGraphBuilder::build)
        .ok_or(ParseError::Malformed { line: 0, message: "missing meta line".into() })
}

/// Loads a graph from a file.
pub fn load_graph(path: impl AsRef<Path>) -> Result<HeteroGraph, ParseError> {
    read_graph(&fs::read_to_string(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> HeteroGraph {
        let mut b = HeteroGraphBuilder::new(3, 4, 2);
        b.interaction(0, 1, 5)
            .interaction(2, 3, 1)
            .social_tie(0, 2)
            .item_relation(1, 0)
            .item_relation(3, 1);
        b.build()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let g = toy();
        let text = write_graph(&g);
        let back = read_graph(&text).expect("roundtrip parses");
        assert_eq!(back.num_users(), g.num_users());
        assert_eq!(back.num_items(), g.num_items());
        assert_eq!(back.num_relations(), g.num_relations());
        assert_eq!(back.interactions(), g.interactions());
        assert_eq!(back.social_ties(), g.social_ties());
        assert_eq!(back.item_relations(), g.item_relations());
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# a comment\n\nmeta 2 2 1\n  # indented comment\ny 0 1 0\n";
        let g = read_graph(text).expect("parses");
        assert_eq!(g.interactions().len(), 1);
    }

    #[test]
    fn missing_meta_is_an_error() {
        let err = read_graph("y 0 1 0\n").unwrap_err();
        assert!(err.to_string().contains("before meta"), "{err}");
    }

    #[test]
    fn malformed_line_reports_line_number() {
        let err = read_graph("meta 2 2 1\ny 0 x 0\n").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn unknown_tag_is_an_error() {
        let err = read_graph("meta 1 1 1\nq 0 0\n").unwrap_err();
        assert!(err.to_string().contains("unknown record tag"), "{err}");
    }

    #[test]
    fn file_roundtrip() {
        let g = toy();
        let dir = std::env::temp_dir().join("dgnn-io-test");
        fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("toy.txt");
        save_graph(&g, &path).expect("save");
        let back = load_graph(&path).expect("load");
        assert_eq!(back.interactions(), g.interactions());
        let _ = fs::remove_file(path);
    }
}
