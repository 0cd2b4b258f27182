//! `LK02` — blocking calls while a hot-path lock is held.
//!
//! For every guard acquired in a module on
//! [`crate::LintConfig::blocking_sensitive_modules`], any blocking
//! primitive (`fsync`, `write_all`, `pread_fill`, channel `send`/`recv`,
//! `File::open`, `thread::sleep`, `thread::spawn`, ...) reached inside
//! the guard's live range is reported — directly, or through a resolved
//! call whose may-block witness chain is included in the message.
//!
//! The fix direction is always the same: stage the I/O outside the
//! critical section (fetch-outside/install-under-lock), or split the
//! lock. A module whose lock deliberately *owns* the I/O (the shared-log
//! adapter in gdp-store's `store.rs`) is left off the list and documented
//! in DESIGN.md instead.

use crate::callgraph::CallGraph;
use crate::engine::SourceFile;
use crate::symbols::Symbols;
use crate::{Finding, LintConfig};
use std::collections::BTreeSet;

/// Runs the rule over the whole workspace.
pub fn run(files: &[SourceFile], sym: &Symbols, cg: &CallGraph, cfg: &LintConfig) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut seen: BTreeSet<(String, usize, String)> = BTreeSet::new();
    for (i, ff) in cg.facts.iter().enumerate() {
        let fdef = &sym.fns[i];
        if !cfg.blocking_sensitive_modules.iter().any(|m| fdef.path.contains(m.as_str())) {
            continue;
        }
        let file = &files[fdef.file];
        for a in &ff.acqs {
            if file.in_test.get(a.tok).copied().unwrap_or(false) {
                continue;
            }
            // Direct primitives inside the guard range.
            for p in &ff.prims {
                if p.tok <= a.tok || p.tok > a.end {
                    continue;
                }
                if !seen.insert((file.path.clone(), p.line, a.lock.clone())) {
                    continue;
                }
                let tok = &file.tokens[p.tok];
                out.push(Finding {
                    rule: "LK02",
                    path: file.path.clone(),
                    line: tok.line,
                    col: tok.col,
                    message: format!(
                        "blocking `{}` called while `{}` guard (acquired line {}) is held — \
                         move the I/O outside the critical section",
                        p.name, a.lock, a.line
                    ),
                });
            }
            // Calls that may block, one witness per site.
            for c in &ff.calls {
                if c.tok <= a.tok || c.tok > a.end {
                    continue;
                }
                let Some(why) = c.targets.iter().find_map(|&t| cg.blocked[t].as_ref()) else {
                    continue;
                };
                if !seen.insert((file.path.clone(), c.line, a.lock.clone())) {
                    continue;
                }
                let tok = &file.tokens[c.tok];
                out.push(Finding {
                    rule: "LK02",
                    path: file.path.clone(),
                    line: tok.line,
                    col: tok.col,
                    message: format!(
                        "`{}` may block ({}) while `{}` guard (acquired line {}) is held — \
                         move the blocking work outside the critical section",
                        c.name, why, a.lock, a.line
                    ),
                });
            }
        }
    }
    out
}
