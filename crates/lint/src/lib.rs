//! # geolint: first-party static analysis for the GeoStreams workspace
//!
//! A comment/string-aware tokenizer plus a catalog of workspace-specific
//! rules (DESIGN.md §14). geolint exists because the properties this
//! workspace cares about — no panics on the operator path, no lock
//! guard held across a blocking channel call, a consistent lock
//! acquisition order, bounded growth on the chunk hot path, the sampled
//! clock discipline, coherent atomics orderings — are *cross-cutting
//! protocol invariants*, not syntax, and `grep` cannot see past a
//! comment or a string literal.
//!
//! The engine is pure (`lint_files` over `(path, text)` pairs); the
//! `geolint` binary adds filesystem walking, the allowlist, and exit
//! codes for CI (`scripts/lint_gate.sh`).

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod lexer;
pub mod rules;

use std::fmt;
use std::path::Path;

use rules::SourceFile;

/// First-party crates scanned by the `geolint` binary. The shim crates
/// (`serde*`) mirror external APIs and are exempt.
pub const FIRST_PARTY_CRATES: &[&str] =
    &["core", "digest", "dsms", "geo", "lint", "raster", "satsim", "store"];

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule code, e.g. `panic-in-lib`.
    pub rule: &'static str,
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-indexed source line.
    pub line: u32,
    /// Enclosing function name (empty at module scope).
    pub function: String,
    /// Human-readable explanation with the suggested fix.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fun = if self.function.is_empty() { "-" } else { &self.function };
        write!(f, "{}:{}: [{}] (fn {}) {}", self.file, self.line, self.rule, fun, self.message)
    }
}

/// Lints a set of `(path, source)` pairs with every rule. Paths should
/// be workspace-relative with forward slashes; cross-file rules (lock
/// ordering, atomics pairing) see the whole set at once. Findings come
/// back sorted by `(file, line, rule)` and deduplicated, so repeated
/// runs over identical input are byte-identical.
pub fn lint_files(files: &[(String, String)]) -> Vec<Finding> {
    let parsed: Vec<SourceFile> = files.iter().map(|(p, s)| SourceFile::parse(p, s)).collect();
    let mut findings = Vec::new();
    rules::run_all(&parsed, &mut findings);
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule, a.message.as_str()).cmp(&(
            b.file.as_str(),
            b.line,
            b.rule,
            b.message.as_str(),
        ))
    });
    findings.dedup_by(|a, b| a.rule == b.rule && a.file == b.file && a.line == b.line);
    findings
}

/// One allowlist entry: `rule file-substring function justification...`.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Rule code the entry suppresses.
    pub rule: String,
    /// Substring the finding's file path must contain.
    pub file: String,
    /// Exact function name, or `*` for any.
    pub function: String,
    /// Why the finding is acceptable (required, shown in reports).
    pub justification: String,
    /// 1-indexed line in the allowlist file (for drift reports).
    pub line: u32,
}

impl AllowEntry {
    fn matches(&self, f: &Finding) -> bool {
        self.rule == f.rule
            && f.file.contains(&self.file)
            && (self.function == "*" || self.function == f.function)
    }
}

/// The result of applying an allowlist to a finding set.
#[derive(Debug)]
pub struct Screened {
    /// Findings not covered by any entry — these gate CI.
    pub kept: Vec<Finding>,
    /// Count of findings suppressed by the allowlist.
    pub allowed: usize,
    /// Entries that matched nothing: stale suppressions ("drift") that
    /// must be deleted so the allowlist never outlives its findings.
    pub unused: Vec<AllowEntry>,
}

/// A parsed allowlist file.
#[derive(Debug, Default)]
pub struct Allowlist {
    entries: Vec<AllowEntry>,
}

impl Allowlist {
    /// Parses the allowlist format: one entry per line as
    /// `rule file-substring function justification...`; blank lines and
    /// `#` comments are skipped. A missing justification is an error —
    /// every suppression must say why.
    pub fn parse(text: &str) -> Result<Allowlist, String> {
        let mut entries = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(4, char::is_whitespace);
            let (rule, file, function, just) =
                (parts.next(), parts.next(), parts.next(), parts.next());
            match (rule, file, function, just) {
                (Some(r), Some(f), Some(fun), Some(j)) if !j.trim().is_empty() => {
                    entries.push(AllowEntry {
                        rule: r.to_string(),
                        file: f.to_string(),
                        function: fun.to_string(),
                        justification: j.trim().to_string(),
                        line: idx as u32 + 1,
                    });
                }
                _ => {
                    return Err(format!(
                        "allowlist line {}: expected `rule file-substring function \
                         justification...`, got `{line}`",
                        idx + 1
                    ));
                }
            }
        }
        Ok(Allowlist { entries })
    }

    /// Splits findings into kept / allowed and reports unused entries.
    pub fn screen(&self, findings: Vec<Finding>) -> Screened {
        let mut used = vec![false; self.entries.len()];
        let mut kept = Vec::new();
        let mut allowed = 0usize;
        for f in findings {
            let hit = self.entries.iter().position(|e| e.matches(&f));
            match hit {
                Some(i) => {
                    used[i] = true;
                    allowed += 1;
                }
                None => kept.push(f),
            }
        }
        let unused =
            self.entries.iter().zip(&used).filter(|(_, u)| !**u).map(|(e, _)| e.clone()).collect();
        Screened { kept, allowed, unused }
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders a screened report as JSON. The output is fully determined by
/// the (sorted) findings, so two runs over the same tree are
/// byte-identical — `scripts/lint_gate.sh` diffs exactly this.
pub fn render_json(s: &Screened) -> String {
    let mut out = String::from("{\n  \"findings\": [\n");
    for (i, f) in s.kept.iter().enumerate() {
        let sep = if i + 1 == s.kept.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"function\": \"{}\", \
             \"message\": \"{}\"}}{sep}\n",
            json_escape(f.rule),
            json_escape(&f.file),
            f.line,
            json_escape(&f.function),
            json_escape(&f.message),
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"allowed\": {},\n", s.allowed));
    out.push_str("  \"unused_allow_entries\": [\n");
    for (i, e) in s.unused.iter().enumerate() {
        let sep = if i + 1 == s.unused.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"line\": {}, \"rule\": \"{}\", \"file\": \"{}\", \"function\": \"{}\"}}{sep}\n",
            e.line,
            json_escape(&e.rule),
            json_escape(&e.file),
            json_escape(&e.function),
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders a screened report for humans.
pub fn render_human(s: &Screened) -> String {
    let mut out = String::new();
    for f in &s.kept {
        out.push_str(&format!("{f}\n"));
    }
    for e in &s.unused {
        out.push_str(&format!(
            "geolint.allow:{}: stale entry `{} {} {}` matches no finding; delete it\n",
            e.line, e.rule, e.file, e.function
        ));
    }
    out.push_str(&format!(
        "geolint: {} finding(s), {} allowed, {} stale allowlist entr{}\n",
        s.kept.len(),
        s.allowed,
        s.unused.len(),
        if s.unused.len() == 1 { "y" } else { "ies" }
    ));
    out
}

/// Collects `(relative_path, source)` for every `.rs` file under the
/// `src/` trees of the first-party crates, sorted by path so runs are
/// deterministic.
pub fn collect_workspace_sources(root: &Path) -> Result<Vec<(String, String)>, String> {
    let mut files = Vec::new();
    for krate in FIRST_PARTY_CRATES {
        let dir = root.join("crates").join(krate).join("src");
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    let mut out = Vec::with_capacity(files.len());
    for path in files {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().replace('\\', "/");
        out.push((rel, text));
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}

fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    let mut children: Vec<_> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        children.push(entry.path());
    }
    children.sort();
    for path in children {
        if path.is_dir() {
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, file: &str, function: &str) -> Finding {
        Finding {
            rule,
            file: file.to_string(),
            line: 10,
            function: function.to_string(),
            message: "m".to_string(),
        }
    }

    #[test]
    fn allowlist_screens_and_reports_drift() {
        let allow = Allowlist::parse(
            "# comment\n\
             panic-in-lib core/src/exec.rs run_chunked sampled clock\n\
             unbounded-growth store/src/ingest.rs * bounded by frame size\n",
        )
        .unwrap();
        let findings = vec![
            finding("panic-in-lib", "crates/core/src/exec.rs", "run_chunked"),
            finding("panic-in-lib", "crates/core/src/exec.rs", "other_fn"),
        ];
        let s = allow.screen(findings);
        assert_eq!(s.allowed, 1);
        assert_eq!(s.kept.len(), 1);
        assert_eq!(s.kept[0].function, "other_fn");
        assert_eq!(s.unused.len(), 1);
        assert_eq!(s.unused[0].rule, "unbounded-growth");
    }

    #[test]
    fn allowlist_rejects_missing_justification() {
        assert!(Allowlist::parse("panic-in-lib file fn\n").is_err());
        assert!(Allowlist::parse("panic-in-lib file\n").is_err());
    }

    #[test]
    fn json_output_is_stable_across_runs() {
        let files = vec![(
            "crates/core/src/x.rs".to_string(),
            "pub fn f() { panic!(\"boom\") }\n".to_string(),
        )];
        let a = render_json(&Allowlist::default().screen(lint_files(&files)));
        let b = render_json(&Allowlist::default().screen(lint_files(&files)));
        assert_eq!(a, b);
        assert!(a.contains("panic-in-lib"));
    }

    #[test]
    fn json_escapes_special_characters() {
        let s = json_escape("a\"b\\c\nd");
        assert_eq!(s, "a\\\"b\\\\c\\nd");
    }
}
