//! Pass 1½: per-function facts over the symbol table — lock-guard live
//! ranges, blocking-primitive call sites, and a call graph with a
//! may-block fixpoint.
//!
//! Guard live-ranges implement the pre-2024 temporary rules the
//! workspace compiles under:
//!
//! * `let g = x.lock();` (chain empty, `.unwrap()`, `.expect(..)` or
//!   `?`) binds the guard: live to the end of the enclosing block, or
//!   to an explicit `drop(g)`.
//! * `let v = x.lock().pop();` — the guard is a temporary: dropped at
//!   the end of the statement.
//! * `if let`/`while let`/`match` on a locked expression: the temporary
//!   guard lives through the *entire* following block (the classic
//!   match-temporary extension) — even when the chain is non-preserving.
//! * A plain `if x.lock().is_empty() {` condition drops the guard at
//!   the `{`.
//!
//! The may-block fixpoint runs in rounds (shortest witness chain wins)
//! and records a human-readable chain for diagnostics:
//! `` `build` (crates/store/src/engine.rs:97) → `pread_fill` (...) ``.

use crate::engine::SourceFile;
use crate::lexer::{Tok, TokKind};
use crate::symbols::{is_keyword, Symbols};
use crate::LintConfig;

/// One lock acquisition and its guard's live range.
#[derive(Clone, Debug)]
pub struct Acq {
    /// Resolved lock identity (`Owner.field`, or `?.field` when the
    /// owner is ambiguous).
    pub lock: String,
    /// Token index of the `.lock`/`.read`/`.write` method ident.
    pub tok: usize,
    /// Acquisition line / column (of the method ident).
    pub line: usize,
    /// Column.
    pub col: usize,
    /// Live-range end: last token index at which the guard is held.
    pub end: usize,
}

/// One call site inside a function body.
#[derive(Clone, Debug)]
pub struct Call {
    /// Called name (bare).
    pub name: String,
    /// Token index of the name.
    pub tok: usize,
    /// Line.
    pub line: usize,
    /// Resolved definition candidates (indices into `Symbols::fns`).
    pub targets: Vec<usize>,
}

/// One direct blocking-primitive call site.
#[derive(Clone, Debug)]
pub struct Prim {
    /// Primitive name (`fsync`, `send`, `pread_fill`, ...).
    pub name: String,
    /// Token index of the name.
    pub tok: usize,
    /// Line.
    pub line: usize,
}

/// Facts for one function body.
#[derive(Clone, Debug, Default)]
pub struct FnFacts {
    /// Lock acquisitions with guard ranges.
    pub acqs: Vec<Acq>,
    /// Resolved call sites.
    pub calls: Vec<Call>,
    /// Direct blocking primitives.
    pub prims: Vec<Prim>,
}

/// The call graph: per-fn facts plus the may-block verdicts.
pub struct CallGraph {
    /// Parallel to `Symbols::fns`.
    pub facts: Vec<FnFacts>,
    /// Parallel to `Symbols::fns`: a witness-chain description when the
    /// function may block (directly or transitively), `None` otherwise.
    pub blocked: Vec<Option<String>>,
}

/// Names too common for name-based call resolution — resolving them by
/// bare name across the workspace would wire unrelated types together.
const RESOLVE_STOPLIST: [&str; 41] = [
    "append",
    "build",
    "clear",
    "clone",
    "close",
    "contains",
    "contains_key",
    "decode",
    "drain",
    "drop",
    "encode",
    "entry",
    "extend",
    "flush",
    "from",
    "get",
    "handle",
    "init",
    "insert",
    "into",
    "is_empty",
    "iter",
    "keys",
    "len",
    "lock",
    "new",
    "next",
    "open",
    "poll",
    "pop",
    "push",
    "range",
    "read",
    "recv",
    "remove",
    "run",
    "send",
    "spawn",
    "take",
    "values",
    "write",
];

impl CallGraph {
    /// Builds facts and the may-block fixpoint for every function.
    pub fn build(files: &[SourceFile], sym: &Symbols, cfg: &LintConfig) -> CallGraph {
        let mut facts = Vec::with_capacity(sym.fns.len());
        for (fi, f) in sym.fns.iter().enumerate() {
            let file = &files[f.file];
            let locals = local_types(&file.tokens, f.body);
            let mut ff = FnFacts::default();
            scan_body(file, sym, fi, &locals, cfg, &mut ff);
            facts.push(ff);
        }

        // May-block fixpoint, in rounds: round 0 is direct primitives;
        // each later round blocks callers of already-blocked functions,
        // so the recorded witness chain is a shortest one.
        let mut blocked: Vec<Option<String>> = vec![None; sym.fns.len()];
        for (i, ff) in facts.iter().enumerate() {
            if let Some(p) = ff.prims.first() {
                blocked[i] = Some(format!("`{}` ({}:{})", p.name, sym.fns[i].path, p.line));
            }
        }
        loop {
            let snapshot = blocked.clone();
            let mut changed = false;
            for (i, ff) in facts.iter().enumerate() {
                if blocked[i].is_some() {
                    continue;
                }
                'calls: for c in &ff.calls {
                    for &t in &c.targets {
                        if let Some(why) = &snapshot[t] {
                            blocked[i] = Some(chain(&c.name, &sym.fns[i].path, c.line, why));
                            changed = true;
                            break 'calls;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        CallGraph { facts, blocked }
    }
}

/// Extends a witness chain by one hop, capping the displayed depth.
fn chain(name: &str, path: &str, line: usize, why: &str) -> String {
    let hops = why.matches('→').count();
    if hops >= 3 {
        let head = why.split('→').next().unwrap_or(why).trim();
        return format!("`{name}` ({path}:{line}) → {head} → …");
    }
    format!("`{name}` ({path}:{line}) → {why}")
}

/// Infers local-variable types in a body: `let x: T`, `let x = T::new`,
/// `let x = T { ... }`.
fn local_types(
    toks: &[Tok],
    (open, close): (usize, usize),
) -> std::collections::BTreeMap<String, String> {
    let mut map = std::collections::BTreeMap::new();
    let mut i = open;
    while i < close {
        if toks[i].text == "let" && toks[i].kind == TokKind::Ident {
            let mut j = i + 1;
            if toks.get(j).map(|t| t.text.as_str()) == Some("mut") {
                j += 1;
            }
            let Some(name) = toks.get(j) else { break };
            if name.kind == TokKind::Ident {
                match toks.get(j + 1).map(|t| t.text.as_str()) {
                    Some(":") => {
                        if let Some(ty) = toks.get(j + 2) {
                            if ty.kind == TokKind::Ident && !is_keyword(&ty.text) {
                                map.insert(name.text.clone(), ty.text.clone());
                            }
                        }
                    }
                    Some("=") => {
                        if let Some(ty) = toks.get(j + 2) {
                            let next = toks.get(j + 3).map(|t| t.text.as_str());
                            if ty.kind == TokKind::Ident
                                && ty.text.chars().next().is_some_and(|c| c.is_uppercase())
                                && matches!(next, Some("::") | Some("{"))
                            {
                                map.insert(name.text.clone(), ty.text.clone());
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
        i += 1;
    }
    map
}

/// Scans one fn body collecting acquisitions, primitives, and calls.
fn scan_body(
    file: &SourceFile,
    sym: &Symbols,
    fn_idx: usize,
    locals: &std::collections::BTreeMap<String, String>,
    cfg: &LintConfig,
    out: &mut FnFacts,
) {
    let toks = &file.tokens;
    let (open, close) = sym.fns[fn_idx].body;
    let mut i = open + 1;
    while i < close {
        let t = &toks[i];
        if t.kind != TokKind::Ident || is_keyword(&t.text) {
            i += 1;
            continue;
        }
        // Lock acquisition: `recv.lock()` / `recv.read()` / `recv.write()`.
        if matches!(t.text.as_str(), "lock" | "read" | "write")
            && i >= 2
            && toks[i - 1].text == "."
            && toks[i - 2].kind == TokKind::Ident
            && toks.get(i + 1).map(|t| t.text.as_str()) == Some("(")
            && toks.get(i + 2).map(|t| t.text.as_str()) == Some(")")
        {
            if let Some(lock) = sym.resolve_lock(&toks[i - 2].text, &t.text, &file.path) {
                let end = guard_end(toks, i, i + 2, close);
                out.acqs.push(Acq { lock, tok: i, line: t.line, col: t.col, end });
            }
        }
        // Blocking primitive?
        if let Some(name) = prim_at(toks, i, cfg) {
            out.prims.push(Prim { name: name.to_string(), tok: i, line: t.line });
            i += 1;
            continue;
        }
        // Call site: `name (` that is not a definition or macro.
        if toks.get(i + 1).map(|t| t.text.as_str()) == Some("(")
            && (i == 0 || toks[i - 1].text != "fn")
        {
            let targets = resolve_call(sym, fn_idx, toks, i, locals);
            out.calls.push(Call { name: t.text.clone(), tok: i, line: t.line, targets });
        }
        i += 1;
    }
}

/// Matches a blocking-primitive call at ident `i`, with per-name
/// structural refinements that keep common names precise:
/// `join` must be argless (`path.join("x")` is not blocking), `open`
/// must be `File::open`/`.open(`, `spawn` must be `thread::spawn`/
/// `.spawn(`, channel ops must be method calls, and `try_send`/
/// `try_recv` never match.
fn prim_at<'c>(toks: &[Tok], i: usize, cfg: &'c LintConfig) -> Option<&'c str> {
    let name = toks[i].text.as_str();
    let entry = cfg.blocking_calls.iter().find(|b| b.as_str() == name)?;
    if toks.get(i + 1).map(|t| t.text.as_str()) != Some("(") {
        return None;
    }
    let prev = |k: usize| i.checked_sub(k).map(|j| toks[j].text.as_str());
    let ok = match name {
        "join" => toks.get(i + 2).map(|t| t.text.as_str()) == Some(")") && prev(1) == Some("."),
        "open" => (prev(1) == Some("::") && prev(2) == Some("File")) || prev(1) == Some("."),
        "spawn" => (prev(1) == Some("::") && prev(2) == Some("thread")) || prev(1) == Some("."),
        "send" | "recv" | "recv_timeout" => prev(1) == Some("."),
        "sleep" => prev(1) == Some("::") || prev(1) != Some("."),
        _ => true,
    };
    ok.then_some(entry.as_str())
}

/// Resolves a call site to candidate fn definitions.
fn resolve_call(
    sym: &Symbols,
    fn_idx: usize,
    toks: &[Tok],
    i: usize,
    locals: &std::collections::BTreeMap<String, String>,
) -> Vec<usize> {
    let name = toks[i].text.as_str();
    let prev = |k: usize| i.checked_sub(k).map(|j| toks[j].text.as_str());

    // `Type::name(...)` — exact qualified lookup.
    if prev(1) == Some("::") {
        if let Some(ty) = i.checked_sub(2).map(|j| &toks[j]) {
            if ty.kind == TokKind::Ident {
                if let Some(&idx) = sym.fns_by_qual.get(&format!("{}::{}", ty.text, name)) {
                    return vec![idx];
                }
            }
        }
        return by_name(sym, name, None);
    }

    // Method call: type the receiver.
    if prev(1) == Some(".") {
        let recv = i.checked_sub(2).map(|j| &toks[j]);
        let Some(recv) = recv else { return vec![] };
        if recv.text == ")" {
            // `x.field.lock().method(...)` — the method runs on the
            // lock's inner type; type it through the field.
            if prev(3) == Some("(")
                && matches!(prev(4), Some("lock") | Some("read") | Some("write"))
                && prev(5) == Some(".")
            {
                if let Some(field) = i.checked_sub(6).map(|j| &toks[j]) {
                    if field.kind == TokKind::Ident {
                        if let Some(types) = sym.field_types.get(&field.text) {
                            let hits: Vec<usize> = types
                                .iter()
                                .filter_map(|ty| {
                                    sym.fns_by_qual.get(&format!("{ty}::{name}")).copied()
                                })
                                .collect();
                            if !hits.is_empty() {
                                return hits;
                            }
                        }
                    }
                }
            }
            // Any other call-chained receiver is untypable at token
            // level; guessing by name wires unrelated types together.
            return vec![];
        }
        if recv.text == "self" {
            // `self.name(...)` — the enclosing impl type.
            let qual = &sym.fns[fn_idx].qual;
            if let Some(ty) = qual.split("::").next().filter(|t| *t != qual.as_str()) {
                if let Some(&idx) = sym.fns_by_qual.get(&format!("{ty}::{name}")) {
                    return vec![idx];
                }
            }
            return by_name(sym, name, None);
        }
        if recv.kind == TokKind::Ident {
            // `self.field.name(...)` — type the field.
            if prev(3) == Some(".") && prev(4) == Some("self") {
                if let Some(types) = sym.field_types.get(&recv.text) {
                    let hits: Vec<usize> = types
                        .iter()
                        .filter_map(|ty| sym.fns_by_qual.get(&format!("{ty}::{name}")).copied())
                        .collect();
                    if !hits.is_empty() {
                        return hits;
                    }
                }
            }
            // `x.name(...)` — locally-inferred type.
            if let Some(ty) = locals.get(&recv.text) {
                if let Some(&idx) = sym.fns_by_qual.get(&format!("{ty}::{name}")) {
                    return vec![idx];
                }
            }
            // Field-typed receiver without the `self.` prefix (a guard
            // or alias named after the field).
            if let Some(types) = sym.field_types.get(&recv.text) {
                let hits: Vec<usize> = types
                    .iter()
                    .filter_map(|ty| sym.fns_by_qual.get(&format!("{ty}::{name}")).copied())
                    .collect();
                if !hits.is_empty() {
                    return hits;
                }
            }
        }
        return by_name(sym, name, None);
    }

    // Bare call: prefer a definition in the same file.
    by_name(sym, name, Some(sym.fns[fn_idx].file))
}

/// Name-based resolution with the ambiguity stoplist and candidate cap.
fn by_name(sym: &Symbols, name: &str, prefer_file: Option<usize>) -> Vec<usize> {
    if RESOLVE_STOPLIST.contains(&name) {
        return vec![];
    }
    let Some(all) = sym.fns_by_name.get(name) else { return vec![] };
    if let Some(fi) = prefer_file {
        let local: Vec<usize> = all.iter().copied().filter(|&i| sym.fns[i].file == fi).collect();
        if !local.is_empty() {
            return local;
        }
    }
    if all.len() > 3 {
        return vec![];
    }
    all.clone()
}

/// Statement context of a lock acquisition (what owns the guard).
enum Ctx {
    /// `let g = ...;` — named binding (block-scoped when preserving).
    Let { name: Option<String> },
    /// `if let` / `while let` / `match` header: temporary lives through
    /// the following block.
    ThroughBlock,
    /// Plain `if`/`while` condition: dropped at the `{`.
    Cond,
    /// Anything else: dropped at end of statement.
    Temporary,
}

/// Computes the guard live-range end for the acquisition whose method
/// ident is at `m` and closing paren at `pc`, clamped to `close`.
fn guard_end(toks: &[Tok], m: usize, pc: usize, close: usize) -> usize {
    // Receiver chain start: walk `a.b.c` backwards from the receiver.
    let mut r = m - 2; // receiver ident
    while r >= 2 && toks[r - 1].text == "." && toks[r - 2].kind == TokKind::Ident {
        r -= 2;
    }
    // Skip a leading `&`/`&mut`.
    let mut c = r; // chain start
    while c >= 1 && matches!(toks[c - 1].text.as_str(), "&" | "mut" | "*") {
        c -= 1;
    }

    let ctx = statement_ctx(toks, c);
    match ctx {
        Ctx::Let { name } => {
            let (stmt_end, preserving) = preserving_chain(toks, pc, close);
            if preserving {
                block_end_or_drop(toks, stmt_end, name.as_deref(), close)
            } else {
                stmt_end
            }
        }
        Ctx::ThroughBlock => {
            // Forward to the `{` at depth 0, then through its block.
            let mut depth = 0isize;
            let mut j = pc + 1;
            while j < close {
                match toks[j].text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" if depth <= 0 => {
                        return crate::engine::matching_brace(toks, j).unwrap_or(close).min(close);
                    }
                    ";" if depth <= 0 => return j, // defensive
                    _ => {}
                }
                j += 1;
            }
            close
        }
        Ctx::Cond => {
            let mut depth = 0isize;
            let mut j = pc + 1;
            while j < close {
                match toks[j].text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" if depth <= 0 => return j,
                    ";" if depth <= 0 => return j,
                    _ => {}
                }
                j += 1;
            }
            close
        }
        Ctx::Temporary => statement_end(toks, pc, close),
    }
}

/// Classifies the statement owning the expression starting at `c`.
fn statement_ctx(toks: &[Tok], c: usize) -> Ctx {
    if c == 0 {
        return Ctx::Temporary;
    }
    match toks[c - 1].text.as_str() {
        "=" => {
            // Walk back over the pattern looking for `let` (bounded).
            let mut k = c - 1;
            let mut steps = 0usize;
            while k > 0 && steps < 40 {
                k -= 1;
                steps += 1;
                match toks[k].text.as_str() {
                    "let" => {
                        let before = k.checked_sub(1).map(|j| toks[j].text.as_str());
                        if matches!(before, Some("if") | Some("while")) {
                            return Ctx::ThroughBlock;
                        }
                        // Binding name: first ident after `let` (skip `mut`).
                        let mut n = k + 1;
                        if toks.get(n).map(|t| t.text.as_str()) == Some("mut") {
                            n += 1;
                        }
                        let name = toks
                            .get(n)
                            .filter(|t| t.kind == TokKind::Ident && !is_keyword(&t.text))
                            .map(|t| t.text.clone());
                        return Ctx::Let { name };
                    }
                    ";" | "{" | "}" => {
                        // Plain assignment `x = ...;` — treat the target
                        // as the binding name.
                        let name = c
                            .checked_sub(2)
                            .map(|j| &toks[j])
                            .filter(|t| t.kind == TokKind::Ident)
                            .map(|t| t.text.clone());
                        return Ctx::Let { name };
                    }
                    _ => {}
                }
            }
            Ctx::Temporary
        }
        "match" => Ctx::ThroughBlock,
        "if" | "while" => Ctx::Cond,
        "in" => Ctx::ThroughBlock, // `for x in y.lock().iter()` — through the loop
        _ => Ctx::Temporary,
    }
}

/// Walks the method chain after the lock call's `)` at `pc`; returns
/// (index of the token ending the statement, whether the chain is
/// guard-preserving — empty, `.unwrap()`, `.expect(..)`, or `?` only).
fn preserving_chain(toks: &[Tok], pc: usize, close: usize) -> (usize, bool) {
    let mut j = pc + 1;
    loop {
        match toks.get(j).map(|t| t.text.as_str()) {
            Some("?") => j += 1,
            Some(".") => {
                let meth = toks.get(j + 1).map(|t| t.text.as_str());
                match meth {
                    Some("unwrap")
                        if toks.get(j + 2).map(|t| t.text.as_str()) == Some("(")
                            && toks.get(j + 3).map(|t| t.text.as_str()) == Some(")") =>
                    {
                        j += 4;
                    }
                    Some("expect") if toks.get(j + 2).map(|t| t.text.as_str()) == Some("(") => {
                        j = match_paren(toks, j + 2, close) + 1;
                    }
                    _ => break,
                }
            }
            _ => break,
        }
        if j >= close {
            break;
        }
    }
    if toks.get(j).map(|t| t.text.as_str()) == Some(";") {
        (j.min(close), true)
    } else {
        (statement_end(toks, pc, close), false)
    }
}

/// Index of the `)` matching the `(` at `open`, clamped to `close`.
fn match_paren(toks: &[Tok], open: usize, close: usize) -> usize {
    let mut depth = 0isize;
    for (k, t) in toks.iter().enumerate().take(close + 1).skip(open) {
        match t.text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
            _ => {}
        }
    }
    close
}

/// End of the statement containing position `from`: the next `;` at
/// non-positive bracket depth, or the closing bracket that leaves the
/// expression.
fn statement_end(toks: &[Tok], from: usize, close: usize) -> usize {
    let mut depth = 0isize;
    let mut j = from + 1;
    while j < close {
        match toks[j].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth < 0 {
                    return j;
                }
            }
            ";" if depth <= 0 => return j,
            "," if depth <= 0 => return j,
            _ => {}
        }
        j += 1;
    }
    close
}

/// End of a block-scoped guard: the `}` closing the enclosing block, or
/// an earlier `drop(name)`.
fn block_end_or_drop(toks: &[Tok], from: usize, name: Option<&str>, close: usize) -> usize {
    let mut depth = 0isize;
    let mut j = from + 1;
    while j < close {
        match toks[j].text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth < 0 {
                    return j;
                }
            }
            "drop"
                if toks[j].kind == TokKind::Ident
                    && toks.get(j + 1).map(|t| t.text.as_str()) == Some("(") =>
            {
                if let (Some(n), Some(arg)) = (name, toks.get(j + 2)) {
                    if arg.text == n && toks.get(j + 3).map(|t| t.text.as_str()) == Some(")") {
                        return j;
                    }
                }
            }
            _ => {}
        }
        j += 1;
    }
    close
}
