//! The lint catalog. Each lint is a plain function over the lexed tree
//! ([`Ctx`]); the table in `docs/ARCHITECTURE.md` documents the
//! invariant behind every id.
//!
//! Scoping conventions:
//!
//! * *Deterministic crates* — `isa`, `mem`, `core`, `sim`, `energy`,
//!   `workloads`, `store`, `riscv` — may not observe wall-clock time or iterate
//!   seed-dependent hash maps; the harness's timing modules are the
//!   explicit whitelist.
//! * *Panic-free files* — `store.rs` and the `samie-exp` CLI's
//!   `main.rs` — may not panic on untrusted input (entry files on disk,
//!   command lines): no `unwrap`/`expect`/`panic!`/indexing outside
//!   `#[cfg(test)]`.
//! * Schema lints cross-check one source of truth against its mirrors
//!   (stats schema, CLI exit codes, doc links).

use std::collections::{BTreeMap, BTreeSet};

use crate::{Ctx, Finding, Severity, SourceFile, TokKind, Token};

/// One registered lint.
pub struct LintSpec {
    /// Stable id, used in diagnostics and `samie-allow(...)`.
    pub id: &'static str,
    /// Severity of its findings.
    pub severity: Severity,
    /// One-line invariant statement.
    pub summary: &'static str,
    /// The checker.
    pub run: fn(&Ctx, &mut Vec<Finding>),
}

/// Every lint, in catalog order.
pub fn all() -> &'static [LintSpec] {
    &[
        LintSpec {
            id: "wall-clock",
            severity: Severity::Error,
            summary: "no Instant/SystemTime/elapsed outside the harness timing whitelist",
            run: wall_clock,
        },
        LintSpec {
            id: "default-hasher",
            severity: Severity::Error,
            summary: "no seed-dependent HashMap/HashSet in deterministic crates",
            run: default_hasher,
        },
        LintSpec {
            id: "thread-rng",
            severity: Severity::Error,
            summary: "no ambient randomness anywhere",
            run: ambient_randomness,
        },
        LintSpec {
            id: "panic-hygiene",
            severity: Severity::Error,
            summary: "no unwrap/expect/panic!/indexing in the store or the samie-exp CLI",
            run: panic_hygiene,
        },
        LintSpec {
            id: "unsafe-audit",
            severity: Severity::Error,
            summary: "every unsafe carries a // SAFETY: comment",
            run: unsafe_audit,
        },
        LintSpec {
            id: "schema-stats",
            severity: Severity::Error,
            summary: "every SimStats counter appears in visit_stat_fields, and nothing else does",
            run: schema_stats,
        },
        LintSpec {
            id: "exit-codes",
            severity: Severity::Error,
            summary: "CLI exit codes in main.rs match docs/REPRODUCING.md",
            run: exit_codes,
        },
        LintSpec {
            id: "doc-links",
            severity: Severity::Error,
            summary: "intra-repo Markdown links resolve",
            run: doc_links,
        },
        LintSpec {
            id: "samie-allow",
            severity: Severity::Error,
            summary: "every suppression names known lints and gives a reason",
            run: allow_hygiene,
        },
    ]
}

/// Crates whose results must be bit-identical across runs and hosts.
const DETERMINISTIC_CRATES: &[&str] = &[
    "isa",
    "mem",
    "core",
    "sim",
    "energy",
    "workloads",
    "store",
    "riscv",
];

/// Harness modules whose *job* is measuring host wall time (cold/warm
/// speedups, per-point compute time).
const WALL_CLOCK_WHITELIST: &[&str] = &[
    "crates/harness/src/runner.rs",
    "crates/harness/src/sweep.rs",
    "crates/harness/src/report.rs",
];

/// Files that read untrusted input (store entries, command lines) and
/// therefore must not panic.
const PANIC_FREE_FILES: &[&str] = &["crates/store/src/store.rs", "crates/harness/src/main.rs"];

fn crate_of(rel: &str) -> Option<&str> {
    rel.strip_prefix("crates/")?.split('/').next()
}

fn push(
    out: &mut Vec<Finding>,
    lint: &'static str,
    file: &str,
    line: u32,
    col: u32,
    message: String,
) {
    out.push(Finding {
        lint,
        severity: Severity::Error,
        file: file.to_string(),
        line,
        col,
        message,
    });
}

/// Iterate the non-comment tokens of the non-test lines of a file.
fn code_tokens(f: &SourceFile) -> impl Iterator<Item = &Token> {
    f.tokens
        .iter()
        .filter(|t| t.kind != TokKind::Comment)
        .filter(|t| !f.in_test_code(t.line))
}

// ---------------------------------------------------------------- determinism

fn wall_clock(ctx: &Ctx, out: &mut Vec<Finding>) {
    for f in &ctx.files {
        if !f.rel.starts_with("crates/")
            || WALL_CLOCK_WHITELIST.contains(&f.rel.as_str())
            || f.is_test_path
        {
            continue;
        }
        for t in code_tokens(f) {
            if t.kind == TokKind::Ident
                && matches!(t.text.as_str(), "Instant" | "SystemTime" | "elapsed")
            {
                push(
                    out,
                    "wall-clock",
                    &f.rel,
                    t.line,
                    t.col,
                    format!(
                        "`{}` reads host wall-clock time outside the harness timing \
                         whitelist; simulated time must come from the simulator",
                        t.text
                    ),
                );
            }
        }
    }
}

fn default_hasher(ctx: &Ctx, out: &mut Vec<Finding>) {
    for f in &ctx.files {
        let in_scope = crate_of(&f.rel).is_some_and(|c| DETERMINISTIC_CRATES.contains(&c));
        if !in_scope {
            continue;
        }
        // Test code is in scope too: iteration order leaking into an
        // assertion makes a test seed-dependent.
        for t in f.tokens.iter().filter(|t| t.kind != TokKind::Comment) {
            if t.kind == TokKind::Ident && matches!(t.text.as_str(), "HashMap" | "HashSet") {
                push(
                    out,
                    "default-hasher",
                    &f.rel,
                    t.line,
                    t.col,
                    format!(
                        "`{}` iterates in RandomState (per-process seed) order; use \
                         trace_isa::U64Map / FastU64Hasher or a BTreeMap/BTreeSet",
                        t.text
                    ),
                );
            }
        }
    }
}

fn ambient_randomness(ctx: &Ctx, out: &mut Vec<Finding>) {
    for f in &ctx.files {
        for t in f.tokens.iter().filter(|t| t.kind != TokKind::Comment) {
            if t.kind == TokKind::Ident
                && matches!(
                    t.text.as_str(),
                    "thread_rng" | "ThreadRng" | "from_entropy" | "OsRng"
                )
            {
                push(
                    out,
                    "thread-rng",
                    &f.rel,
                    t.line,
                    t.col,
                    format!(
                        "`{}` is ambient randomness; every random stream must be \
                         derived from an explicit experiment seed",
                        t.text
                    ),
                );
            }
        }
    }
}

// -------------------------------------------------------------- panic hygiene

/// Keywords that can directly precede an array literal's `[`.
fn is_keyword(t: &str) -> bool {
    matches!(
        t,
        "in" | "return" | "break" | "if" | "else" | "match" | "mut" | "ref" | "move" | "as"
    )
}

fn panic_hygiene(ctx: &Ctx, out: &mut Vec<Finding>) {
    for f in &ctx.files {
        if !PANIC_FREE_FILES.contains(&f.rel.as_str()) {
            continue;
        }
        let toks: Vec<&Token> = code_tokens(f).collect();
        for (k, t) in toks.iter().enumerate() {
            let prev = k
                .checked_sub(1)
                .map(|p| toks[p].text.as_str())
                .unwrap_or("");
            let next = toks.get(k + 1).map(|n| n.text.as_str()).unwrap_or("");
            let bad = match (t.kind, t.text.as_str()) {
                (TokKind::Ident, "unwrap" | "expect") if prev == "." && next == "(" => Some(
                    format!("`.{}()` can panic; return an error or recover", t.text),
                ),
                (TokKind::Ident, "panic" | "unreachable" | "todo" | "unimplemented")
                    if next == "!" =>
                {
                    Some(format!(
                        "`{}!` aborts the caller; panic-free files must return errors",
                        t.text
                    ))
                }
                // An `[` after an identifier (or a close bracket) is an
                // index expression — except after keywords like `in` or
                // `return`, where it opens an array literal instead.
                (TokKind::Punct, "[")
                    if toks
                        .get(k.checked_sub(1).unwrap_or(usize::MAX))
                        .is_some_and(|p| {
                            (p.kind == TokKind::Ident && !is_keyword(&p.text))
                                || p.text == ")"
                                || p.text == "]"
                        }) =>
                {
                    Some("indexing panics on out-of-range untrusted input; use .get()".to_string())
                }
                _ => None,
            };
            if let Some(message) = bad {
                push(out, "panic-hygiene", &f.rel, t.line, t.col, message);
            }
        }
    }
}

// --------------------------------------------------------------- unsafe audit

fn unsafe_audit(ctx: &Ctx, out: &mut Vec<Finding>) {
    for f in &ctx.files {
        for t in f.tokens.iter() {
            if t.kind != TokKind::Ident || t.text != "unsafe" {
                continue;
            }
            let documented = f.tokens.iter().any(|c| {
                c.kind == TokKind::Comment
                    && c.text.contains("SAFETY:")
                    && c.line <= t.line
                    && c.line + 5 >= t.line
            });
            if !documented {
                push(
                    out,
                    "unsafe-audit",
                    &f.rel,
                    t.line,
                    t.col,
                    "`unsafe` without a `// SAFETY:` comment in the 5 lines above".to_string(),
                );
            }
        }
    }
}

// ------------------------------------------------------------- schema: stats

/// Struct definitions the stats schema is spelled out in.
const STAT_STRUCTS: &[&str] = &[
    "SimStats",
    "CacheStats",
    "LsqActivity",
    "CamActivity",
    "OccupancyIntegrals",
];

/// A struct's fields as `(field name, first type identifier)` pairs.
type FieldList = Vec<(String, String)>;

/// Parse `pub struct Name { pub field: Ty, … }` definitions out of a
/// file (non-test code only). Returns `name -> [(field, first type
/// ident)]`.
fn parse_structs(f: &SourceFile) -> Vec<(String, FieldList, u32)> {
    let toks: Vec<&Token> = code_tokens(f).collect();
    let text = |k: usize| toks.get(k).map(|t| t.text.as_str()).unwrap_or("");
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !(text(i) == "struct" && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident)) {
            i += 1;
            continue;
        }
        let name = text(i + 1).to_string();
        let line = toks[i + 1].line;
        // Find the body (skip to `{`; a `;` first means unit/tuple).
        let mut j = i + 2;
        while j < toks.len() && text(j) != "{" && text(j) != ";" {
            j += 1;
        }
        if text(j) != "{" {
            i = j;
            continue;
        }
        let mut fields = Vec::new();
        let mut depth = 1usize;
        j += 1;
        while j < toks.len() && depth > 0 {
            match text(j) {
                "{" | "(" | "[" | "<" => depth += 1,
                "}" | ")" | "]" | ">" => depth -= 1,
                "pub"
                    if depth == 1
                        && toks.get(j + 1).is_some_and(|t| t.kind == TokKind::Ident)
                        && text(j + 2) == ":" =>
                {
                    let field = text(j + 1).to_string();
                    // First identifier of the type.
                    let mut k = j + 3;
                    while k < toks.len()
                        && toks[k].kind != TokKind::Ident
                        && text(k) != ","
                        && text(k) != "}"
                    {
                        k += 1;
                    }
                    let ty = if toks.get(k).is_some_and(|t| t.kind == TokKind::Ident) {
                        text(k).to_string()
                    } else {
                        String::new()
                    };
                    fields.push((field, ty));
                    j = k;
                }
                _ => {}
            }
            j += 1;
        }
        out.push((name, fields, line));
        i = j;
    }
    out
}

fn schema_stats(ctx: &Ctx, out: &mut Vec<Finding>) {
    // Gather the struct definitions (wherever they live) …
    let mut table: BTreeMap<String, Vec<(String, String)>> = BTreeMap::new();
    for f in ctx.files.iter().filter(|f| !f.is_test_path) {
        for (name, fields, _) in parse_structs(f) {
            if STAT_STRUCTS.contains(&name.as_str()) {
                table.entry(name).or_insert(fields);
            }
        }
    }
    // … and the file holding the schema visitor.
    let entry = ctx.files.iter().find(|f| {
        code_tokens(f).any(|t| t.kind == TokKind::Ident && t.text == "visit_stat_fields")
            && code_tokens(f).any(|t| t.kind == TokKind::Ident && t.text == "field")
    });
    let (Some(simstats), Some(entry)) = (table.get("SimStats"), entry) else {
        return; // nothing to cross-check in this tree
    };

    // Expand SimStats into dotted leaf counter names.
    fn expand(
        prefix: &str,
        fields: &[(String, String)],
        table: &BTreeMap<String, Vec<(String, String)>>,
        leaves: &mut BTreeSet<String>,
    ) {
        for (field, ty) in fields {
            let name = if prefix.is_empty() {
                field.clone()
            } else {
                format!("{prefix}.{field}")
            };
            if let Some(sub) = table.get(ty) {
                expand(&name, sub, table, leaves);
            } else {
                leaves.insert(name);
            }
        }
    }
    let mut expected = BTreeSet::new();
    expand("", simstats, &table, &mut expected);

    // field!("name", …) occurrences in the visitor file.
    let toks: Vec<&Token> = entry
        .tokens
        .iter()
        .filter(|t| t.kind != TokKind::Comment)
        .collect();
    let mut declared: BTreeMap<String, (u32, u32)> = BTreeMap::new();
    for k in 0..toks.len() {
        if toks[k].text == "field"
            && toks.get(k + 1).is_some_and(|t| t.text == "!")
            && toks.get(k + 2).is_some_and(|t| t.text == "(")
            && toks.get(k + 3).is_some_and(|t| t.kind == TokKind::Str)
        {
            let name = toks[k + 3].text.trim_matches('"').to_string();
            declared
                .entry(name)
                .or_insert((toks[k + 3].line, toks[k + 3].col));
        }
    }
    let anchor = code_tokens(entry)
        .find(|t| t.text == "visit_stat_fields")
        .map(|t| (t.line, t.col))
        .unwrap_or((1, 1));
    for name in expected.iter() {
        if !declared.contains_key(name) {
            push(
                out,
                "schema-stats",
                &entry.rel,
                anchor.0,
                anchor.1,
                format!("SimStats counter `{name}` is missing from visit_stat_fields — it would silently not be stored"),
            );
        }
    }
    for (name, (line, col)) in &declared {
        if !expected.contains(name) {
            push(
                out,
                "schema-stats",
                &entry.rel,
                *line,
                *col,
                format!("schema field `{name}` does not correspond to any SimStats counter"),
            );
        }
    }
}

// -------------------------------------------------------- schema: exit codes

fn exit_codes(ctx: &Ctx, out: &mut Vec<Finding>) {
    let Some(main) = ctx
        .files
        .iter()
        .find(|f| f.rel.ends_with("harness/src/main.rs"))
    else {
        return;
    };
    let toks: Vec<&Token> = code_tokens(main).collect();
    let text = |k: usize| toks.get(k).map(|t| t.text.as_str()).unwrap_or("");
    let small = |k: usize| -> Option<u32> {
        let t = toks.get(k)?;
        if t.kind == TokKind::Num {
            t.text.parse::<u32>().ok().filter(|n| *n <= 9)
        } else {
            None
        }
    };
    // Exit codes surface three ways in main.rs: `std::process::exit(n)`,
    // `return n;` inside the i32-returning run_* commands, and a small
    // integer as a function's trailing expression (`n` then `}`).
    let mut used: BTreeMap<u32, (u32, u32)> = BTreeMap::new();
    for (k, t) in toks.iter().enumerate() {
        let hit = if text(k) == "exit" && text(k + 1) == "(" {
            small(k + 2)
        } else if text(k) == "return" {
            small(k + 1).filter(|_| text(k + 2) == ";")
        } else if text(k + 1) == "}" && matches!(text(k.wrapping_sub(1)), ";" | "{" | "}") {
            small(k)
        } else {
            None
        };
        if let Some(code) = hit {
            used.entry(code).or_insert((t.line, t.col));
        }
    }

    let Some(docs) = ctx.read_text("docs/REPRODUCING.md") else {
        return;
    };
    let mut documented: BTreeMap<u32, u32> = BTreeMap::new();
    for (ln, line) in docs.lines().enumerate() {
        let ln = ln as u32 + 1;
        // Table rows: `| <code> | meaning |`.
        let mut cells = line.split('|');
        if line.trim_start().starts_with('|') {
            if let Some(code) = cells.nth(1).and_then(|c| c.trim().parse::<u32>().ok()) {
                if code <= 9 {
                    documented.entry(code).or_insert(ln);
                }
            }
        }
        // Prose: "exits 5", "exit code 3", "exit(2".
        let mut rest = line;
        while let Some(at) = rest.find("exit") {
            rest = &rest[at + 4..];
            let tail = rest
                .trim_start_matches('s')
                .trim_start_matches(' ')
                .trim_start_matches("code")
                .trim_start_matches(['s', ' ', '(']);
            if let Some(d) = tail.chars().next().and_then(|c| c.to_digit(10)) {
                documented.entry(d).or_insert(ln);
            }
        }
    }

    for (code, (line, col)) in &used {
        if !documented.contains_key(code) {
            push(
                out,
                "exit-codes",
                &main.rel,
                *line,
                *col,
                format!("exit code {code} is not documented in docs/REPRODUCING.md"),
            );
        }
    }
    for (code, line) in &documented {
        if !used.contains_key(code) {
            push(
                out,
                "exit-codes",
                "docs/REPRODUCING.md",
                *line,
                1,
                format!("exit code {code} is documented here but main.rs never produces it"),
            );
        }
    }
}

// ------------------------------------------------------------------ doc links

/// Extract `](target)` link targets (with line numbers) from Markdown,
/// skipping code fences. Ported from the retired `tests/doc_links.rs`.
fn md_links(md: &str) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    let mut in_fence = false;
    for (ln, line) in md.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        let mut rest = line;
        while let Some(at) = rest.find("](") {
            rest = &rest[at + 2..];
            if let Some(end) = rest.find(')') {
                out.push((ln as u32 + 1, rest[..end].to_string()));
                rest = &rest[end + 1..];
            } else {
                break;
            }
        }
    }
    out
}

fn doc_links(ctx: &Ctx, out: &mut Vec<Finding>) {
    let mut files: Vec<std::path::PathBuf> = ["README.md", "ROADMAP.md", "CHANGES.md"]
        .iter()
        .map(|f| ctx.root.join(f))
        .filter(|p| p.exists())
        .collect();
    for dir in [ctx.root.join("docs"), ctx.root.join("docs/book")] {
        if let Ok(entries) = std::fs::read_dir(&dir) {
            for e in entries.flatten() {
                let p = e.path();
                if p.extension().is_some_and(|x| x == "md") {
                    files.push(p);
                }
            }
        }
    }
    files.sort();
    for file in &files {
        let Ok(text) = std::fs::read_to_string(file) else {
            continue;
        };
        let Some(dir) = file.parent() else { continue };
        let rel = file
            .strip_prefix(&ctx.root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        for (line, link) in md_links(&text) {
            if link.starts_with("http://")
                || link.starts_with("https://")
                || link.starts_with('#')
                || link.starts_with("mailto:")
            {
                continue;
            }
            let target = link.split('#').next().unwrap_or("");
            if target.is_empty() {
                continue;
            }
            if !dir.join(target).exists() {
                push(
                    out,
                    "doc-links",
                    &rel,
                    line,
                    1,
                    format!("broken link `{link}` (no such file relative to this page)"),
                );
            }
        }
    }
}

// ------------------------------------------------------------- allow hygiene

fn allow_hygiene(ctx: &Ctx, out: &mut Vec<Finding>) {
    let known: Vec<&str> = all().iter().map(|l| l.id).collect();
    for f in &ctx.files {
        for a in &f.allows {
            if a.ids.is_empty() {
                push(
                    out,
                    "samie-allow",
                    &f.rel,
                    a.line,
                    1,
                    "samie-allow names no lint ids".to_string(),
                );
            }
            for id in &a.ids {
                if !known.contains(&id.as_str()) {
                    push(
                        out,
                        "samie-allow",
                        &f.rel,
                        a.line,
                        1,
                        format!("samie-allow names unknown lint `{id}`"),
                    );
                }
            }
            if a.reason.is_empty() {
                push(
                    out,
                    "samie-allow",
                    &f.rel,
                    a.line,
                    1,
                    "samie-allow without a reason — suppressions must be auditable".to_string(),
                );
            }
        }
    }
}
