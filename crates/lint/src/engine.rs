//! The analysis engine: loads files, computes test-region masks, applies
//! `// gdp-lint: allow(...)` suppressions, and drives the rules.

use crate::lexer::{self, Comment, StrLit, Tok};
use crate::rules;
use crate::{Finding, LintConfig, Report, Suppressed};
use std::path::{Path, PathBuf};

/// One parsed source file, ready for rules.
pub struct SourceFile {
    /// Workspace-relative path, normalized to `/` separators.
    pub path: String,
    /// Code tokens in source order.
    pub tokens: Vec<Tok>,
    /// Comment side table.
    pub comments: Vec<Comment>,
    /// String-literal side table (contents never enter `tokens`).
    pub strings: Vec<StrLit>,
    /// Per-token flag: true when the token sits inside `#[cfg(test)]` /
    /// `#[test]` items (rules that police production code skip these).
    pub in_test: Vec<bool>,
}

impl SourceFile {
    /// Parses a file from source text.
    pub fn parse(path: &str, src: &str) -> SourceFile {
        let lexed = lexer::lex(src);
        let in_test = test_mask(&lexed.tokens);
        SourceFile {
            path: path.to_string(),
            tokens: lexed.tokens,
            comments: lexed.comments,
            strings: lexed.strings,
            in_test,
        }
    }
}

/// Marks tokens under `#[test]`- or `#[cfg(test)]`-attributed items.
///
/// The walk is token-based: when an attribute whose content mentions
/// `test` is found, the following item's body (the brace block after the
/// item header) is masked. Attribute stacks are handled; `mod tests;`
/// declarations (no body) are not masked — out-of-line test modules live
/// in `tests/` directories, which the workspace scan skips entirely.
fn test_mask(tokens: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].text == "#" && tokens.get(i + 1).map(|t| t.text.as_str()) == Some("[") {
            let (attr_end, is_test) = scan_attribute(tokens, i);
            if is_test {
                if let Some((body_start, body_end)) = item_body_after(tokens, attr_end) {
                    for flag in mask.iter_mut().take(body_end + 1).skip(i) {
                        *flag = true;
                    }
                    i = body_start; // nested attributes inside are moot
                    continue;
                }
            }
            i = attr_end;
            continue;
        }
        i += 1;
    }
    mask
}

/// Scans `#[...]` starting at `at` (the `#`). Returns the index one past
/// the closing `]` and whether the attribute mentions `test`.
fn scan_attribute(tokens: &[Tok], at: usize) -> (usize, bool) {
    let mut depth = 0usize;
    let mut is_test = false;
    let mut i = at + 1;
    while i < tokens.len() {
        match tokens[i].text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return (i + 1, is_test);
                }
            }
            "test" => is_test = true,
            _ => {}
        }
        i += 1;
    }
    (tokens.len(), is_test)
}

/// Finds the brace-block body of the item following an attribute stack.
/// Returns `(body_open, body_close)` token indices, or `None` for
/// body-less items (`mod x;`, `type T = ...;`).
fn item_body_after(tokens: &[Tok], mut i: usize) -> Option<(usize, usize)> {
    // Skip any further attributes.
    while i < tokens.len()
        && tokens[i].text == "#"
        && tokens.get(i + 1).map(|t| t.text.as_str()) == Some("[")
    {
        let (end, _) = scan_attribute(tokens, i);
        i = end;
    }
    // Scan the item header for its body `{` — at zero paren/bracket depth.
    let mut paren = 0isize;
    while i < tokens.len() {
        match tokens[i].text.as_str() {
            "(" | "[" => paren += 1,
            ")" | "]" => paren -= 1,
            ";" if paren == 0 => return None,
            "{" if paren == 0 => {
                let close = matching_brace(tokens, i)?;
                return Some((i, close));
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// Index of the `}` matching the `{` at `open`.
pub fn matching_brace(tokens: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0isize;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        match t.text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// A parsed `// gdp-lint: allow(RULE, ...) -- reason` comment.
#[derive(Clone, Debug)]
pub struct Allow {
    /// Line the comment is on.
    pub line: usize,
    /// Rule IDs listed in the `allow(...)`.
    pub rules: Vec<String>,
    /// Whether a non-empty `-- reason` trailer is present. Suppressions
    /// without a reason are invalid and do not suppress.
    pub has_reason: bool,
}

/// Extracts all suppression comments from a file.
pub fn allows(file: &SourceFile) -> Vec<Allow> {
    let mut out = Vec::new();
    for c in &file.comments {
        let Some(at) = c.text.find("gdp-lint:") else { continue };
        let rest = c.text[at + "gdp-lint:".len()..].trim_start();
        let Some(rest) = rest.strip_prefix("allow") else { continue };
        let rest = rest.trim_start();
        let Some(rest) = rest.strip_prefix('(') else { continue };
        let Some(close) = rest.find(')') else { continue };
        let rules: Vec<String> = rest[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        let tail = rest[close + 1..].trim_start();
        let has_reason = tail.strip_prefix("--").map(|r| !r.trim().is_empty()).unwrap_or(false);
        if !rules.is_empty() {
            out.push(Allow { line: c.line, rules, has_reason });
        }
    }
    out
}

/// Recursively collects `.rs` files under `path` into `out`.
fn collect_rs(path: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if path.is_file() {
        if path.extension().map(|e| e == "rs").unwrap_or(false) {
            out.push(path.to_path_buf());
        }
        return Ok(());
    }
    let mut entries: Vec<PathBuf> =
        std::fs::read_dir(path)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for entry in entries {
        let name = entry.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if entry.is_dir() && (name == "target" || name == ".git") {
            continue;
        }
        collect_rs(&entry, out)?;
    }
    Ok(())
}

fn normalize(root: &Path, p: &Path) -> String {
    let rel = p.strip_prefix(root).unwrap_or(p);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// True when `rel` (a normalized workspace-relative path) belongs to the
/// default production scan set: source files of workspace crates, skipping
/// the vendored dependency shims, integration-test trees, examples, and
/// the lint fixture corpus (which contains deliberate violations).
pub fn in_default_scan_set(rel: &str) -> bool {
    if rel.starts_with("shims/") || rel.contains("/tests/") || rel.starts_with("examples/") {
        return false;
    }
    rel.contains("/src/") || rel.starts_with("src/")
}

/// Lints `paths` (files or directories) relative to `root`.
///
/// With `default_scan = true` the production filter
/// ([`in_default_scan_set`]) applies; explicit fixture/test paths should
/// pass `false` to scan every `.rs` file they contain.
pub fn lint_paths(
    root: &Path,
    paths: &[PathBuf],
    cfg: &LintConfig,
    default_scan: bool,
) -> std::io::Result<Report> {
    let mut files = Vec::new();
    for p in paths {
        collect_rs(p, &mut files)?;
    }
    files.sort();
    files.dedup();

    let mut parsed = Vec::new();
    for f in &files {
        let rel = normalize(root, f);
        if default_scan && !in_default_scan_set(&rel) {
            continue;
        }
        let src = std::fs::read_to_string(f)?;
        parsed.push(SourceFile::parse(&rel, &src));
    }

    // Aux scan set: the sim chaos suites, parsed only for OB02's
    // conservation-law direction (and their own suppression comments) —
    // their code is test-only and never sees the per-file rules.
    let mut aux: Vec<SourceFile> = Vec::new();
    if default_scan {
        let sim_tests = root.join("crates/sim/tests");
        if sim_tests.is_dir() {
            let mut sim_files = Vec::new();
            collect_rs(&sim_tests, &mut sim_files)?;
            sim_files.sort();
            for f in &sim_files {
                let rel = normalize(root, f);
                let src = std::fs::read_to_string(f)?;
                aux.push(SourceFile::parse(&rel, &src));
            }
        }
    }

    let mut findings: Vec<Finding> = Vec::new();
    for file in &parsed {
        findings.extend(rules::run_all(file));
    }
    findings.extend(rules::run_workspace(&parsed, &aux, cfg, Some(root), default_scan));

    // Uniform suppression: every finding — per-file or workspace-wide —
    // is matched against the allow comments of the file it is reported
    // in. Findings against non-Rust files (DESIGN.md rows) have no
    // allow table and cannot be suppressed.
    let mut allow_map: std::collections::BTreeMap<&str, Vec<Allow>> =
        std::collections::BTreeMap::new();
    for file in parsed.iter().chain(aux.iter()) {
        allow_map.insert(file.path.as_str(), allows(file));
    }
    let mut suppressed: Vec<Suppressed> = Vec::new();
    findings.retain(|f| {
        let covered = allow_map.get(f.path.as_str()).is_some_and(|file_allows| {
            file_allows.iter().any(|a| {
                a.has_reason
                    && (a.line == f.line || a.line + 1 == f.line)
                    && a.rules.iter().any(|r| r == f.rule)
            })
        });
        if covered {
            suppressed.push(Suppressed { rule: f.rule, path: f.path.clone(), line: f.line });
        }
        !covered
    });

    findings
        .sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));
    suppressed.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(Report { files_scanned: parsed.len(), findings, suppressed })
}
