//! The rule engine: shared token helpers and the six rules (one module
//! each). `CT01` and `SK01` are per-file token rules run by [`run_all`];
//! the concurrency/namespace family (`LK01`, `LK02`, `CH01`, `OB02`) runs
//! once over the whole scan set via [`run_workspace`] on the pass-1
//! symbol table and call graph.

pub mod ch01;
pub mod ct01;
pub mod lk01;
pub mod lk02;
pub mod ob02;
pub mod sk01;

use crate::engine::SourceFile;
use crate::lexer::Tok;
use crate::{Finding, LintConfig};
use std::path::Path;

/// All rule IDs, in report order.
pub const RULE_IDS: [&str; 6] = ["CH01", "CT01", "LK01", "LK02", "OB02", "SK01"];

/// Span of the attribute starting at `at` (the `#`): index one past `]`.
pub fn attr_span(tokens: &[Tok], at: usize) -> (usize, bool) {
    let mut depth = 0isize;
    let mut i = at + 1;
    if tokens.get(i).map(|t| t.text.as_str()) == Some("!") {
        i += 1;
    }
    while i < tokens.len() {
        match tokens[i].text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return (i + 1, true);
                }
            }
            _ => {}
        }
        i += 1;
    }
    (tokens.len(), false)
}

/// Lower-cased snake/camel segments of an identifier:
/// `expect_tag` → `[expect, tag]`, `SigningKey` → `[signing, key]`.
pub fn ident_segments(ident: &str) -> Vec<String> {
    let mut segs = Vec::new();
    for part in ident.split('_') {
        if part.is_empty() {
            continue;
        }
        let mut current = String::new();
        let chars: Vec<char> = part.chars().collect();
        for (i, &c) in chars.iter().enumerate() {
            let boundary = c.is_uppercase()
                && i > 0
                && (chars[i - 1].is_lowercase()
                    || chars.get(i + 1).map(|n| n.is_lowercase()).unwrap_or(false));
            if boundary && !current.is_empty() {
                segs.push(current.to_lowercase());
                current = String::new();
            }
            current.push(c);
        }
        if !current.is_empty() {
            segs.push(current.to_lowercase());
        }
    }
    segs
}

/// True for SCREAMING_CASE identifiers (constants — lengths, limits),
/// which are never secret values themselves.
pub fn is_screaming(ident: &str) -> bool {
    ident.chars().any(|c| c.is_ascii_uppercase()) && !ident.chars().any(|c| c.is_ascii_lowercase())
}

/// Builds a [`Finding`] at a token.
pub fn finding(rule: &'static str, file: &SourceFile, tok: &Tok, message: String) -> Finding {
    Finding { rule, path: file.path.clone(), line: tok.line, col: tok.col, message }
}

/// Runs every per-file rule over one file.
pub fn run_all(file: &SourceFile) -> Vec<Finding> {
    let mut out = ct01::run(file);
    out.extend(sk01::run(file));
    out
}

/// Runs the workspace-wide rules (`LK01`, `LK02`, `CH01`, `OB02`) once
/// over the whole scan set: builds the pass-1 symbol table and call
/// graph, then evaluates each rule on it. `aux` carries files scanned
/// for conservation-law assertions only (the sim chaos suites); `root`
/// anchors `OB02`'s DESIGN.md lookup.
pub fn run_workspace(
    files: &[SourceFile],
    aux: &[SourceFile],
    cfg: &LintConfig,
    root: Option<&Path>,
    default_scan: bool,
) -> Vec<Finding> {
    let sym = crate::symbols::Symbols::build(files);
    let cg = crate::callgraph::CallGraph::build(files, &sym, cfg);
    let mut out = Vec::new();
    out.extend(lk01::run(files, &sym, &cg));
    out.extend(lk02::run(files, &sym, &cg, cfg));
    out.extend(ch01::run(files, &sym, cfg));
    out.extend(ob02::run(files, aux, root, default_scan));
    out
}
