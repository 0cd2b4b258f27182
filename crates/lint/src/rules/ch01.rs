//! `CH01` — channel discipline in data-plane modules.
//!
//! Three checks, all scoped to
//! [`crate::LintConfig::data_plane_modules`]:
//!
//! 1. **Bounded data lanes** — a `send`/`try_send` on an endpoint whose
//!    constructor was `unbounded()`/`channel()` is reported, unless the
//!    receiver chain is control-marked (`ctrl`, `ev`, `shutdown`, ... —
//!    see [`crate::LintConfig::control_lane_markers`]): an unbounded
//!    data lane converts overload into unbounded memory growth instead
//!    of typed backpressure.
//! 2. **Control before data** — any loop body polling both a
//!    control-marked and a data receiver must drain control first
//!    (control-no-stall): reorder the drains and the build fails here.
//! 3. **Shutdown evidence** — a cloned, classified sender constructed
//!    in a data-plane module must have a visible shutdown path: a
//!    `drop(name)` somewhere, or the name (or a container it is stored
//!    into) referenced inside a `*shutdown*`/`*close*`/`*stop*`/
//!    `*join*`/`*drain*` function. Senders parked in long-lived maps
//!    with no such path keep receiver loops alive forever.
//!
//! Endpoints whose name is bound to conflicting constructor kinds
//! anywhere in the workspace are skipped rather than guessed at.

use crate::engine::SourceFile;
use crate::lexer::TokKind;
use crate::rules::ident_segments;
use crate::symbols::{ChanKind, Symbols};
use crate::{Finding, LintConfig};
use std::collections::BTreeSet;

/// Runs the rule over the whole workspace.
pub fn run(files: &[SourceFile], sym: &Symbols, cfg: &LintConfig) -> Vec<Finding> {
    let mut out = Vec::new();
    for file in files {
        if !cfg.data_plane_modules.iter().any(|m| file.path.contains(m.as_str())) {
            continue;
        }
        unbounded_sends(file, sym, cfg, &mut out);
        drain_order(file, cfg, &mut out);
    }
    shutdown_evidence(files, sym, cfg, &mut out);
    out
}

/// True when any `_`-separated segment of `name` is a control marker.
fn is_control(name: &str, cfg: &LintConfig) -> bool {
    let segs = ident_segments(name);
    segs.iter().any(|s| cfg.control_lane_markers.iter().any(|m| m == s))
}

/// Check 1: sends on unbounded endpoints.
fn unbounded_sends(file: &SourceFile, sym: &Symbols, cfg: &LintConfig, out: &mut Vec<Finding>) {
    let toks = &file.tokens;
    for i in 0..toks.len() {
        if !matches!(toks[i].text.as_str(), "send" | "try_send")
            || toks[i].kind != TokKind::Ident
            || toks.get(i + 1).map(|t| t.text.as_str()) != Some("(")
            || i < 2
            || toks[i - 1].text != "."
            || toks[i - 2].kind != TokKind::Ident
            || file.in_test.get(i).copied().unwrap_or(false)
        {
            continue;
        }
        // Receiver chain: `shared.ev_tx.send(..)` → [shared, ev_tx].
        let mut chain = vec![toks[i - 2].text.clone()];
        let mut r = i - 2;
        while r >= 2 && toks[r - 1].text == "." && toks[r - 2].kind == TokKind::Ident {
            r -= 2;
            chain.push(toks[r].text.clone());
        }
        if chain.iter().any(|seg| is_control(seg, cfg)) {
            continue;
        }
        let name = &toks[i - 2].text;
        let Some(ep) = sym.chan_kinds.get(name) else { continue };
        if ep.kind != ChanKind::Unbounded {
            continue;
        }
        out.push(Finding {
            rule: "CH01",
            path: file.path.clone(),
            line: toks[i].line,
            col: toks[i].col,
            message: format!(
                "data-plane `{}` on unbounded channel `{name}` (constructed {}:{}) — data \
                 lanes must be bounded so overload becomes backpressure, not memory growth",
                toks[i].text, ep.path, ep.line
            ),
        });
    }
}

/// Check 2: control lanes drained before data in dual-polling loops.
fn drain_order(file: &SourceFile, cfg: &LintConfig, out: &mut Vec<Finding>) {
    let toks = &file.tokens;
    let mut reported: BTreeSet<usize> = BTreeSet::new();
    let mut i = 0usize;
    while i < toks.len() {
        let body = match toks[i].text.as_str() {
            "loop" if toks.get(i + 1).map(|t| t.text.as_str()) == Some("{") => {
                crate::engine::matching_brace(toks, i + 1).map(|c| (i + 1, c))
            }
            "while" | "for" => {
                // Find the body `{` at depth 0 after the header.
                let mut depth = 0isize;
                let mut j = i + 1;
                let mut open = None;
                while j < toks.len() {
                    match toks[j].text.as_str() {
                        "(" | "[" => depth += 1,
                        ")" | "]" => depth -= 1,
                        "{" if depth <= 0 => {
                            open = Some(j);
                            break;
                        }
                        ";" if depth <= 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                open.and_then(|o| crate::engine::matching_brace(toks, o).map(|c| (o, c)))
            }
            _ => None,
        };
        let Some((open, close)) = body else {
            i += 1;
            continue;
        };
        // Receives inside the loop (header included for `while let`):
        // classify by receiver name.
        let mut first_ctrl: Option<usize> = None;
        let mut first_data: Option<usize> = None;
        let mut data_site = 0usize;
        let mut ctrl_name = String::new();
        let mut data_name = String::new();
        for k in i..close {
            if !matches!(toks[k].text.as_str(), "recv" | "try_recv" | "recv_timeout")
                || toks.get(k + 1).map(|t| t.text.as_str()) != Some("(")
                || k < 2
                || toks[k - 1].text != "."
                || toks[k - 2].kind != TokKind::Ident
            {
                continue;
            }
            let recv = &toks[k - 2].text;
            if !ident_segments(recv).iter().any(|s| s == "rx") {
                continue;
            }
            if is_control(recv, cfg) {
                if first_ctrl.is_none() {
                    first_ctrl = Some(k);
                    ctrl_name = recv.clone();
                }
            } else if first_data.is_none() {
                first_data = Some(k);
                data_site = k;
                data_name = recv.clone();
            }
        }
        if let (Some(fc), Some(fd)) = (first_ctrl, first_data) {
            if fd < fc
                && !file.in_test.get(fd).copied().unwrap_or(false)
                && reported.insert(toks[data_site].line)
            {
                out.push(Finding {
                    rule: "CH01",
                    path: file.path.clone(),
                    line: toks[data_site].line,
                    col: toks[data_site].col,
                    message: format!(
                        "loop polls data lane `{data_name}` before draining control lane \
                         `{ctrl_name}` — control must be drained first or shutdown/reconfig \
                         stalls behind data backlog (control-no-stall invariant)"
                    ),
                });
            }
        }
        i = open + 1;
    }
}

/// Check 3: cloned data-plane senders need a visible shutdown path.
fn shutdown_evidence(
    files: &[SourceFile],
    sym: &Symbols,
    cfg: &LintConfig,
    out: &mut Vec<Finding>,
) {
    let shutdown_fams = ["shutdown", "close", "stop", "join", "drain", "finish"];
    for (name, ep) in &sym.chan_kinds {
        if !ep.sender
            || ep.kind == ChanKind::Conflicting
            || is_control(name, cfg)
            || !cfg.data_plane_modules.iter().any(|m| ep.path.contains(m.as_str()))
        {
            continue;
        }
        let mut names: BTreeSet<&str> = BTreeSet::new();
        names.insert(name.as_str());
        if let Some(aliases) = sym.chan_aliases.get(name) {
            names.extend(aliases.iter().map(|s| s.as_str()));
        }
        // Only senders that are actually cloned escape into long-lived
        // structures in a way this check can police.
        let cloned = files.iter().any(|f| {
            f.tokens.windows(4).any(|w| {
                w[0].kind == TokKind::Ident
                    && names.contains(w[0].text.as_str())
                    && w[1].text == "."
                    && w[2].text == "clone"
                    && w[3].text == "("
            })
        });
        if !cloned {
            continue;
        }
        // Evidence: drop(name) anywhere, or any alias referenced inside
        // a shutdown-family function.
        let dropped = files.iter().any(|f| {
            f.tokens.windows(4).any(|w| {
                w[0].text == "drop"
                    && w[1].text == "("
                    && names.contains(w[2].text.as_str())
                    && w[3].text == ")"
            })
        });
        let referenced = sym.fns.iter().any(|fd| {
            let lower = fd.name.to_lowercase();
            if !shutdown_fams.iter().any(|s| lower.contains(s)) {
                return false;
            }
            let toks = &files[fd.file].tokens;
            (fd.body.0..=fd.body.1)
                .any(|k| toks[k].kind == TokKind::Ident && names.contains(toks[k].text.as_str()))
        });
        if dropped || referenced {
            continue;
        }
        out.push(Finding {
            rule: "CH01",
            path: ep.path.clone(),
            line: ep.line,
            col: 1,
            message: format!(
                "sender `{name}` is cloned but has no visible shutdown path — no `drop({name})` \
                 and neither it nor a container it is stored in is referenced by any \
                 shutdown/close/stop/join/drain function; receiver loops outlive the component"
            ),
        });
    }
}
