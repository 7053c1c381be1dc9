//! `samie-analyze` — repo-specific static analysis for the SAMIE-LSQ
//! reproduction.
//!
//! Clippy checks Rust; this crate checks *this repository*: the
//! determinism, panic-hygiene and cross-file schema invariants that
//! every reproduction claim (bit-identical replay, byte-identical
//! stores, a store that survives malformed entries) rests on. The
//! engine is a small hand-rolled lexer ([`lexer`]) feeding a set of
//! lints ([`lints`]); there are no dependencies, like everywhere else
//! in the workspace.
//!
//! Findings carry `file:line:col`, a lint id and a severity, and are
//! suppressible per site with an inline escape hatch:
//!
//! ```text
//! // samie-allow(lint-id): reason the invariant is upheld anyway
//! ```
//!
//! which covers the comment's own line and the next code line. An
//! allow without a reason is itself a finding — suppressions must be
//! auditable. The full catalog lives in `docs/ARCHITECTURE.md`.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub mod lexer;
pub mod lints;

pub use lexer::{lex, TokKind, Token};

/// How bad a finding is. Every current lint is `Error` — the gate
/// (`--deny-all`, CI) fails on anything — but the report keeps the
/// distinction so advisory lints can be added without retooling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory.
    Warning,
    /// Invariant violation.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One diagnostic.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Lint id, e.g. `wall-clock`.
    pub lint: &'static str,
    /// Severity.
    pub severity: Severity,
    /// Repo-relative path, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: {} [{}] {}",
            self.file, self.line, self.col, self.severity, self.lint, self.message
        )
    }
}

/// A parsed `samie-allow(id, …): reason` directive.
#[derive(Debug, Clone)]
pub struct Allow {
    /// Line the comment sits on.
    pub line: u32,
    /// The next line after `line` holding a non-comment token — an
    /// allow above a statement covers that statement.
    pub covers: u32,
    /// Lint ids the directive suppresses.
    pub ids: Vec<String>,
    /// Justification (required).
    pub reason: String,
}

/// One lexed source file plus the per-line facts lints ask about.
#[derive(Debug)]
pub struct SourceFile {
    /// Repo-relative path, `/`-separated.
    pub rel: String,
    /// Raw text.
    pub text: String,
    /// Token stream (comments included).
    pub tokens: Vec<Token>,
    /// `samie-allow` directives found in comments.
    pub allows: Vec<Allow>,
    /// Whether the file as a whole is test code (under a `tests/`
    /// directory or a `*_tests.rs` module).
    pub is_test_path: bool,
    /// Per-line flag: inside a `#[cfg(test)]` / `#[test]` item.
    test_lines: Vec<bool>,
}

impl SourceFile {
    /// Lex `text` as the file `rel` (no filesystem access — tests and
    /// property checks build files in memory).
    pub fn from_source(rel: &str, text: String) -> SourceFile {
        let tokens = lex(&text);
        let nlines = text.lines().count() + 1;
        let test_lines = mark_test_lines(&tokens, nlines);
        let allows = parse_allows(&tokens);
        let is_test_path = rel.split('/').any(|seg| seg == "tests" || seg == "benches")
            || Path::new(rel)
                .file_stem()
                .and_then(|s| s.to_str())
                .is_some_and(|s| s.ends_with("_tests"));
        SourceFile {
            rel: rel.to_string(),
            text,
            tokens,
            allows,
            is_test_path,
            test_lines,
        }
    }

    /// Whether `line` is inside test code (file-level or `#[cfg(test)]`).
    pub fn in_test_code(&self, line: u32) -> bool {
        self.is_test_path || self.test_lines.get(line as usize).copied().unwrap_or(false)
    }

    /// Whether a finding of `lint` at `line` is suppressed by an allow.
    pub fn allowed(&self, lint: &str, line: u32) -> bool {
        self.allows
            .iter()
            .any(|a| (a.line == line || a.covers == line) && a.ids.iter().any(|id| id == lint))
    }
}

/// Mark the lines covered by `#[cfg(test)]` / `#[test]` items: from the
/// attribute to the closing brace of the item it decorates (or its
/// terminating semicolon for brace-less items).
fn mark_test_lines(tokens: &[Token], nlines: usize) -> Vec<bool> {
    let mut mask = vec![false; nlines + 2];
    let toks: Vec<&Token> = tokens
        .iter()
        .filter(|t| t.kind != TokKind::Comment)
        .collect();
    let text = |k: usize| toks.get(k).map(|t| t.text.as_str()).unwrap_or("");
    let mut i = 0;
    while i < toks.len() {
        let is_test_attr = text(i) == "#"
            && text(i + 1) == "["
            && ((text(i + 2) == "test" && text(i + 3) == "]")
                || (text(i + 2) == "cfg"
                    && text(i + 3) == "("
                    && text(i + 4) == "test"
                    && text(i + 5) == ")"
                    && text(i + 6) == "]"));
        if !is_test_attr {
            i += 1;
            continue;
        }
        let start_line = toks[i].line;
        // Walk to the item body: the first `{` opens it (match braces to
        // its close); a `;` first means a brace-less item.
        let mut j = i + 1;
        let mut end_line = start_line;
        while j < toks.len() {
            match text(j) {
                "{" => {
                    let mut depth = 1usize;
                    j += 1;
                    while j < toks.len() && depth > 0 {
                        match text(j) {
                            "{" => depth += 1,
                            "}" => depth -= 1,
                            _ => {}
                        }
                        j += 1;
                    }
                    end_line = toks
                        .get(j.saturating_sub(1))
                        .map(|t| t.line)
                        .unwrap_or(start_line);
                    break;
                }
                ";" => {
                    end_line = toks[j].line;
                    break;
                }
                _ => j += 1,
            }
        }
        for l in start_line..=end_line {
            if let Some(slot) = mask.get_mut(l as usize) {
                *slot = true;
            }
        }
        i = j.max(i + 1);
    }
    mask
}

/// Extract `samie-allow(id, …): reason` directives from comment tokens.
/// Only plain `//` comments count — doc comments merely *describe* the
/// mechanism (this very file does) and must not suppress anything. A
/// missing reason is reported later by the `samie-allow` meta-lint —
/// here it parses with an empty reason.
fn parse_allows(tokens: &[Token]) -> Vec<Allow> {
    let mut out = Vec::new();
    for (k, tok) in tokens.iter().enumerate() {
        if tok.kind != TokKind::Comment
            || !tok.text.starts_with("//")
            || tok.text.starts_with("///")
            || tok.text.starts_with("//!")
        {
            continue;
        }
        let Some(at) = tok.text.find("samie-allow(") else {
            continue;
        };
        let rest = &tok.text[at + "samie-allow(".len()..];
        let Some(close) = rest.find(')') else {
            continue;
        };
        let ids: Vec<String> = rest[..close]
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect();
        let reason = rest[close + 1..]
            .strip_prefix(':')
            .map(|r| r.trim().to_string())
            .unwrap_or_default();
        let covers = tokens[k + 1..]
            .iter()
            .find(|t| t.kind != TokKind::Comment && t.line > tok.line)
            .map(|t| t.line)
            .unwrap_or(tok.line);
        out.push(Allow {
            line: tok.line,
            covers,
            ids,
            reason,
        });
    }
    out
}

/// Everything the lints look at: the lexed Rust tree plus access to the
/// repo's Markdown files.
pub struct Ctx {
    /// Analysis root (the workspace root, or a fixture tree in tests).
    pub root: PathBuf,
    /// Lexed Rust files, sorted by path.
    pub files: Vec<SourceFile>,
}

impl Ctx {
    /// Walk and lex every `.rs` file under `root`, skipping `target/`,
    /// `vendor/`, `.git/` and the analyzer's own fixture corpus.
    pub fn load(root: &Path) -> io::Result<Ctx> {
        let mut files = Vec::new();
        let mut stack = vec![root.to_path_buf()];
        while let Some(dir) = stack.pop() {
            let entries = match fs::read_dir(&dir) {
                Ok(e) => e,
                Err(_) => continue,
            };
            for e in entries.flatten() {
                let p = e.path();
                let name = e.file_name();
                let name = name.to_string_lossy();
                if p.is_dir() {
                    if name == "target" || name == "vendor" || name == ".git" || name == "fixtures"
                    {
                        continue;
                    }
                    stack.push(p);
                } else if p.extension().is_some_and(|x| x == "rs") {
                    let rel = p
                        .strip_prefix(root)
                        .unwrap_or(&p)
                        .components()
                        .map(|c| c.as_os_str().to_string_lossy().into_owned())
                        .collect::<Vec<_>>()
                        .join("/");
                    let text = fs::read_to_string(&p)?;
                    files.push(SourceFile::from_source(&rel, text));
                }
            }
        }
        files.sort_by(|a, b| a.rel.cmp(&b.rel));
        Ok(Ctx {
            root: root.to_path_buf(),
            files,
        })
    }

    /// Build a context from in-memory files (for tests).
    pub fn from_files(files: Vec<SourceFile>) -> Ctx {
        Ctx {
            root: PathBuf::new(),
            files,
        }
    }

    /// The lexed file at a repo-relative path.
    pub fn file(&self, rel: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.rel == rel)
    }

    /// Read a Markdown (or any text) file relative to the root.
    pub fn read_text(&self, rel: &str) -> Option<String> {
        fs::read_to_string(self.root.join(rel)).ok()
    }
}

/// What to analyze.
#[derive(Debug, Clone)]
pub struct AnalyzeOptions {
    /// Analysis root.
    pub root: PathBuf,
    /// If set, run only these lint ids.
    pub only: Option<Vec<String>>,
}

/// The outcome of one analysis run.
#[derive(Debug)]
pub struct Report {
    /// Unsuppressed findings, sorted by (file, line, col, lint).
    pub findings: Vec<Finding>,
    /// Findings suppressed by a `samie-allow`, same order.
    pub suppressed: Vec<Finding>,
    /// Number of Rust files scanned.
    pub files_scanned: usize,
    /// Ids of the lints that ran.
    pub lints_run: Vec<&'static str>,
}

/// Run the analysis.
pub fn analyze(opts: &AnalyzeOptions) -> io::Result<Report> {
    let ctx = Ctx::load(&opts.root)?;
    let selected = |id: &str| match &opts.only {
        Some(ids) => ids.iter().any(|x| x == id),
        None => true,
    };
    let mut raw = Vec::new();
    let mut lints_run = Vec::new();
    for spec in lints::all() {
        if selected(spec.id) {
            lints_run.push(spec.id);
            (spec.run)(&ctx, &mut raw);
        }
    }
    let mut findings = Vec::new();
    let mut suppressed = Vec::new();
    for f in raw {
        let is_allowed = ctx
            .file(&f.file)
            .is_some_and(|sf| sf.allowed(f.lint, f.line));
        if is_allowed {
            suppressed.push(f);
        } else {
            findings.push(f);
        }
    }
    let key = |f: &Finding| (f.file.clone(), f.line, f.col, f.lint);
    findings.sort_by_key(key);
    suppressed.sort_by_key(key);
    Ok(Report {
        findings,
        suppressed,
        files_scanned: ctx.files.len(),
        lints_run,
    })
}

/// Render the report as `ANALYZE_report.json` (hand-rolled JSON, like
/// every other format in this workspace).
pub fn render_json(report: &Report) -> String {
    fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
    fn finding(f: &Finding) -> String {
        format!(
            "    {{\"lint\": \"{}\", \"severity\": \"{}\", \"file\": \"{}\", \"line\": {}, \"col\": {}, \"message\": \"{}\"}}",
            f.lint,
            f.severity,
            esc(&f.file),
            f.line,
            f.col,
            esc(&f.message)
        )
    }
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"samie-analyze-v1\",\n");
    out.push_str(&format!("  \"files_scanned\": {},\n", report.files_scanned));
    out.push_str(&format!(
        "  \"lints_run\": [{}],\n",
        report
            .lints_run
            .iter()
            .map(|id| format!("\"{id}\""))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    for (name, list) in [
        ("findings", &report.findings),
        ("suppressed", &report.suppressed),
    ] {
        out.push_str(&format!("  \"{name}\": [\n"));
        out.push_str(&list.iter().map(finding).collect::<Vec<_>>().join(",\n"));
        if !list.is_empty() {
            out.push('\n');
        }
        out.push_str("  ],\n");
    }
    out.push_str(&format!("  \"total\": {}\n", report.findings.len()));
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_covers_its_line_and_the_next_code_line() {
        let src = "\
// samie-allow(wall-clock): timing the outside world is this file's job
let t = Instant::now();
let u = Instant::now();
";
        let f = SourceFile::from_source("x.rs", src.to_string());
        assert!(f.allowed("wall-clock", 1));
        assert!(f.allowed("wall-clock", 2));
        assert!(!f.allowed("wall-clock", 3));
        assert!(!f.allowed("default-hasher", 2));
        assert_eq!(
            f.allows[0].reason,
            "timing the outside world is this file's job"
        );
    }

    #[test]
    fn cfg_test_items_are_marked_as_test_code() {
        let src = "\
fn live() {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() {}
}
fn live_again() {}
";
        let f = SourceFile::from_source("crates/x/src/lib.rs", src.to_string());
        assert!(!f.in_test_code(1));
        assert!(f.in_test_code(2));
        assert!(f.in_test_code(5));
        assert!(f.in_test_code(6));
        assert!(!f.in_test_code(7));
    }

    #[test]
    fn tests_dirs_are_test_paths() {
        let f = SourceFile::from_source("crates/x/tests/props.rs", String::new());
        assert!(f.is_test_path);
        assert!(f.in_test_code(1));
        let g = SourceFile::from_source("crates/sim/src/pipeline_tests.rs", String::new());
        assert!(g.is_test_path);
        let h = SourceFile::from_source("crates/x/src/lib.rs", String::new());
        assert!(!h.is_test_path);
    }

    #[test]
    fn json_report_escapes_and_counts() {
        let report = Report {
            findings: vec![Finding {
                lint: "wall-clock",
                severity: Severity::Error,
                file: "a.rs".into(),
                line: 3,
                col: 9,
                message: "uses \"Instant\"".into(),
            }],
            suppressed: vec![],
            files_scanned: 1,
            lints_run: vec!["wall-clock"],
        };
        let json = render_json(&report);
        assert!(json.contains("\"samie-analyze-v1\""));
        assert!(json.contains("\\\"Instant\\\""));
        assert!(json.contains("\"total\": 1"));
    }
}
