//! Pass 1 of the workspace analyzer: the cross-file symbol table.
//!
//! Built once over every scanned file, before any rule runs. Everything
//! here is token-level — no `syn`, no rustc — which bounds what can be
//! resolved, so the table records only facts that are unambiguous at the
//! token stream: struct fields and their head type ident, functions and
//! their body spans (with the owning `impl` type), `Mutex`/`RwLock`-typed
//! fields (the nameable locks `LK01`/`LK02` reason about), channel
//! endpoints classified by their `bounded`/`unbounded` constructor
//! (`CH01`), and per-file `use` imports (call-graph resolution hints).
//!
//! Identity conventions:
//! * a lock is `Owner.field` (`Shared.peers`, `Shared.threads`);
//! * a function is its bare name plus a `Type::name` qualifier when it
//!   is defined inside an `impl` block;
//! * a channel endpoint is its binding name, with classification
//!   propagated through `container.push(name)` / `map.insert(k, name)` /
//!   `field: name` stores into the container's name (the alias set).

use crate::engine::SourceFile;
use crate::lexer::{Tok, TokKind};
use std::collections::{BTreeMap, BTreeSet};

/// Which primitive a lock-typed field wraps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockKind {
    /// `Mutex<T>` — acquired with `.lock()`.
    Mutex,
    /// `RwLock<T>` — acquired with `.read()` / `.write()`.
    RwLock,
}

/// One `Mutex`/`RwLock`-typed struct field: a nameable lock.
#[derive(Clone, Debug)]
pub struct LockField {
    /// Declaring struct.
    pub owner: String,
    /// Field name.
    pub field: String,
    /// Mutex or RwLock.
    pub kind: LockKind,
    /// File declaring the struct.
    pub path: String,
    /// Declaration line.
    pub line: usize,
}

impl LockField {
    /// The lock's identity in diagnostics and the lock-order graph.
    pub fn id(&self) -> String {
        format!("{}.{}", self.owner, self.field)
    }
}

/// How a channel endpoint was constructed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChanKind {
    /// From `bounded(n)` / `sync_channel(n)`.
    Bounded,
    /// From `unbounded()` / `channel()`.
    Unbounded,
    /// The same name is bound to both kinds somewhere in the workspace
    /// (e.g. a production lane and a bench-harness lane sharing a field
    /// name); rules must stay silent rather than guess.
    Conflicting,
}

/// A classified channel endpoint name.
#[derive(Clone, Debug)]
pub struct ChanEndpoint {
    /// Construction classification.
    pub kind: ChanKind,
    /// True when the name binds the sender half (first tuple position).
    pub sender: bool,
    /// Construction site.
    pub path: String,
    /// Construction line.
    pub line: usize,
}

/// One `fn` definition with its body span.
#[derive(Clone, Debug)]
pub struct FnDef {
    /// Index into the scanned-file slice.
    pub file: usize,
    /// Workspace-relative path.
    pub path: String,
    /// Bare function name.
    pub name: String,
    /// `Type::name` inside an `impl` block, bare name otherwise.
    pub qual: String,
    /// Line of the `fn` keyword.
    pub line: usize,
    /// Token span of the body: indices of `{` and `}` inclusive.
    pub body: (usize, usize),
}

/// The cross-file symbol table (pass 1 output).
#[derive(Default)]
pub struct Symbols {
    /// All lock-typed fields, in scan order.
    pub lock_fields: Vec<LockField>,
    /// Field name → indices into `lock_fields` (receiver resolution).
    pub locks_by_field: BTreeMap<String, Vec<usize>>,
    /// All `fn` definitions, in scan order.
    pub fns: Vec<FnDef>,
    /// Bare name → indices into `fns`.
    pub fns_by_name: BTreeMap<String, Vec<usize>>,
    /// `Type::name` → index into `fns` (first definition wins).
    pub fns_by_qual: BTreeMap<String, usize>,
    /// Struct field name → head type idents seen for it (method-receiver
    /// typing: `self.fds` → `FdPool`). Multiple structs may share a
    /// field name; all head types are kept.
    pub field_types: BTreeMap<String, BTreeSet<String>>,
    /// Channel endpoint name → classification.
    pub chan_kinds: BTreeMap<String, ChanEndpoint>,
    /// Sender name → container/field names it was stored into (shutdown-
    /// path evidence for `CH01`).
    pub chan_aliases: BTreeMap<String, BTreeSet<String>>,
    /// Per-file imported name → full `use` path (dot-free, `::`-joined).
    pub imports: Vec<BTreeMap<String, String>>,
}

/// Channel constructor names and whether they build a bounded lane.
const CHAN_CTORS: [(&str, bool); 4] =
    [("bounded", true), ("sync_channel", true), ("unbounded", false), ("channel", false)];

/// Rust keywords that can precede `(` without being a call / pattern
/// ident of interest.
pub fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "as" | "break"
            | "const"
            | "continue"
            | "crate"
            | "dyn"
            | "else"
            | "enum"
            | "fn"
            | "for"
            | "if"
            | "impl"
            | "in"
            | "let"
            | "loop"
            | "match"
            | "mod"
            | "move"
            | "mut"
            | "pub"
            | "ref"
            | "return"
            | "self"
            | "Self"
            | "static"
            | "struct"
            | "super"
            | "trait"
            | "type"
            | "unsafe"
            | "use"
            | "where"
            | "while"
    )
}

impl Symbols {
    /// Builds the table over every scanned file, in order.
    pub fn build(files: &[SourceFile]) -> Symbols {
        let mut sym = Symbols::default();
        for (fi, file) in files.iter().enumerate() {
            sym.imports.push(scan_imports(&file.tokens));
            scan_structs(file, &mut sym);
            scan_fns(fi, file, &mut sym);
            scan_channels(file, &mut sym);
        }
        for (i, lf) in sym.lock_fields.iter().enumerate() {
            sym.locks_by_field.entry(lf.field.clone()).or_default().push(i);
        }
        for (i, f) in sym.fns.iter().enumerate() {
            sym.fns_by_name.entry(f.name.clone()).or_default().push(i);
            sym.fns_by_qual.entry(f.qual.clone()).or_insert(i);
        }
        sym
    }

    /// The lock field a `.lock()`/`.read()`/`.write()` receiver named
    /// `field` resolves to, preferring a declaration in the same crate
    /// as `use_path`. Returns the lock identity string.
    pub fn resolve_lock(&self, field: &str, method: &str, use_path: &str) -> Option<String> {
        let want = match method {
            "lock" => LockKind::Mutex,
            "read" | "write" => LockKind::RwLock,
            _ => return None,
        };
        let cands: Vec<&LockField> = self
            .locks_by_field
            .get(field)?
            .iter()
            .map(|&i| &self.lock_fields[i])
            .filter(|lf| lf.kind == want)
            .collect();
        match cands.len() {
            0 => None,
            1 => Some(cands[0].id()),
            _ => {
                let use_crate = crate_of(use_path);
                let same: Vec<&&LockField> =
                    cands.iter().filter(|lf| crate_of(&lf.path) == use_crate).collect();
                match same.len() {
                    1 => Some(same[0].id()),
                    // Ambiguous across (or within) crates: degrade to a
                    // field-keyed identity rather than guessing an owner.
                    _ => Some(format!("?.{field}")),
                }
            }
        }
    }
}

/// The `crates/<name>` prefix of a workspace-relative path (crate-local
/// disambiguation), or the whole path when it has no crate prefix.
pub fn crate_of(path: &str) -> &str {
    if let Some(rest) = path.strip_prefix("crates/") {
        match rest.find('/') {
            Some(at) => &path[..7 + at],
            None => path,
        }
    } else {
        path
    }
}

/// Collects `use a::b::{c, d as e};` imports: imported name → full path.
fn scan_imports(toks: &[Tok]) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].text == "use" && toks[i].kind == TokKind::Ident {
            let mut prefix: Vec<String> = Vec::new();
            let mut j = i + 1;
            // Walk `a :: b :: ...` until `{`, `;`, or `as`.
            while j < toks.len() {
                match toks[j].text.as_str() {
                    ";" => {
                        if let Some(last) = prefix.last() {
                            out.insert(last.clone(), prefix.join("::"));
                        }
                        break;
                    }
                    "as" => {
                        // `use path as alias;`
                        if let Some(alias) = toks.get(j + 1) {
                            out.insert(alias.text.clone(), prefix.join("::"));
                        }
                        break;
                    }
                    "{" => {
                        // One flat group level: `use p::{a, b as c, d::e}`.
                        let mut depth = 1usize;
                        let mut seg: Vec<String> = Vec::new();
                        j += 1;
                        while j < toks.len() && depth > 0 {
                            match toks[j].text.as_str() {
                                "{" => depth += 1,
                                "}" => depth -= 1,
                                "," if depth == 1 => {
                                    record_group_item(&prefix, &seg, &mut out);
                                    seg.clear();
                                }
                                "::" => {}
                                t if toks[j].kind == TokKind::Ident => seg.push(t.to_string()),
                                _ => {}
                            }
                            j += 1;
                        }
                        record_group_item(&prefix, &seg, &mut out);
                        break;
                    }
                    "::" => {}
                    _ if toks[j].kind == TokKind::Ident => prefix.push(toks[j].text.clone()),
                    _ => break,
                }
                j += 1;
            }
            i = j;
        }
        i += 1;
    }
    out
}

/// Records one item of a `use p::{...}` group (`a`, `a as b`, `a::b`).
fn record_group_item(prefix: &[String], seg: &[String], out: &mut BTreeMap<String, String>) {
    let Some(last) = seg.last() else { return };
    let mut full: Vec<String> = prefix.to_vec();
    // `a as b`: the alias is the last segment, the path stops before it —
    // close enough at token level to record both under the alias.
    full.extend(seg.iter().cloned());
    out.insert(last.clone(), full.join("::"));
}

/// Collects struct declarations: field head types and lock-typed fields.
fn scan_structs(file: &SourceFile, sym: &mut Symbols) {
    let toks = &file.tokens;
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].text != "struct" || toks[i].kind != TokKind::Ident {
            i += 1;
            continue;
        }
        let Some(name_tok) = toks.get(i + 1) else { break };
        if name_tok.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        // Find the body `{` (skip generics / where clauses); `;` or `(`
        // first means a unit/tuple struct — skip it.
        let mut j = i + 2;
        let mut angle = 0isize;
        let mut body = None;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                "<<" => angle += 2,
                ">>" => angle -= 2,
                "(" | ";" if angle <= 0 => break,
                "{" if angle <= 0 => {
                    body = Some(j);
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        let Some(open) = body else {
            i += 1;
            continue;
        };
        let Some(close) = crate::engine::matching_brace(toks, open) else { break };
        scan_struct_fields(file, &name_tok.text, open, close, sym);
        i = close + 1;
    }
}

/// Walks one struct body collecting `field: Type` pairs at depth 1.
fn scan_struct_fields(
    file: &SourceFile,
    owner: &str,
    open: usize,
    close: usize,
    sym: &mut Symbols,
) {
    let toks = &file.tokens;
    let mut k = open + 1;
    while k < close {
        // Skip attributes and visibility.
        match toks[k].text.as_str() {
            "#" => {
                let (end, _) = crate::rules::attr_span(toks, k);
                k = end;
                continue;
            }
            "pub" => {
                k += 1;
                // `pub(crate)` / `pub(super)`.
                if toks.get(k).map(|t| t.text.as_str()) == Some("(") {
                    while k < close && toks[k].text != ")" {
                        k += 1;
                    }
                    k += 1;
                }
                continue;
            }
            _ => {}
        }
        // `ident :` at depth 1 opens a field's type.
        if toks[k].kind == TokKind::Ident
            && !is_keyword(&toks[k].text)
            && toks.get(k + 1).map(|t| t.text.as_str()) == Some(":")
        {
            let field = toks[k].text.clone();
            let line = toks[k].line;
            // The type runs to the `,` at depth 0 (relative to the body).
            let mut depth = 0isize;
            let mut t = k + 2;
            let mut head_type: Option<String> = None;
            let mut lock: Option<LockKind> = None;
            while t < close {
                match toks[t].text.as_str() {
                    "<" | "(" | "[" => depth += 1,
                    ">" | ")" | "]" => depth -= 1,
                    "<<" => depth += 2,
                    ">>" => depth -= 2,
                    "," if depth <= 0 => break,
                    "Mutex" => lock = lock.or(Some(LockKind::Mutex)),
                    "RwLock" => lock = lock.or(Some(LockKind::RwLock)),
                    _ => {}
                }
                // The useful head type skips smart-pointer / sync
                // wrappers: `Arc<Mutex<SegLog>>` types the field as
                // `SegLog` for method-receiver resolution.
                if head_type.is_none()
                    && toks[t].kind == TokKind::Ident
                    && !is_keyword(&toks[t].text)
                    && !matches!(
                        toks[t].text.as_str(),
                        "Arc"
                            | "Rc"
                            | "Box"
                            | "Weak"
                            | "Mutex"
                            | "RwLock"
                            | "RefCell"
                            | "Cell"
                            | "Option"
                            | "Vec"
                            | "VecDeque"
                            | "HashMap"
                            | "BTreeMap"
                    )
                {
                    head_type = Some(toks[t].text.clone());
                }
                t += 1;
            }
            if let Some(h) = head_type {
                sym.field_types.entry(field.clone()).or_default().insert(h);
            }
            if let Some(kind) = lock {
                sym.lock_fields.push(LockField {
                    owner: owner.to_string(),
                    field,
                    kind,
                    path: file.path.clone(),
                    line,
                });
            }
            k = t;
            continue;
        }
        k += 1;
    }
}

/// Collects `fn` definitions with body spans and owning `impl` types.
fn scan_fns(fi: usize, file: &SourceFile, sym: &mut Symbols) {
    let toks = &file.tokens;
    // impl spans: (body_open, body_close, type name).
    let mut impls: Vec<(usize, usize, String)> = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].text == "impl" && toks[i].kind == TokKind::Ident {
            if let Some((open, close, ty)) = scan_impl_header(toks, i) {
                impls.push((open, close, ty));
            }
        }
        i += 1;
    }

    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].text != "fn" || toks[i].kind != TokKind::Ident {
            i += 1;
            continue;
        }
        let Some(name_tok) = toks.get(i + 1) else { break };
        if name_tok.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        // Find the body `{` at zero paren/angle depth, or `;` (no body).
        let mut j = i + 2;
        let mut paren = 0isize;
        let mut angle = 0isize;
        let mut body = None;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "(" | "[" => paren += 1,
                ")" | "]" => paren -= 1,
                "<" => angle += 1,
                ">" => angle -= 1,
                "<<" => angle += 2,
                ">>" => angle -= 2,
                "->" => {}
                ";" if paren == 0 => break,
                "{" if paren == 0 && angle <= 0 => {
                    body = Some(j);
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        let Some(open) = body else {
            i += 2;
            continue;
        };
        let Some(close) = crate::engine::matching_brace(toks, open) else { break };
        let name = name_tok.text.clone();
        let qual = impls
            .iter()
            .find(|(o, c, _)| *o < i && i < *c)
            .map(|(_, _, ty)| format!("{ty}::{name}"))
            .unwrap_or_else(|| name.clone());
        sym.fns.push(FnDef {
            file: fi,
            path: file.path.clone(),
            name,
            qual,
            line: name_tok.line,
            body: (open, close),
        });
        // Continue *inside* the body: nested fns are their own entries,
        // and their calls are attributed to both spans (conservative).
        i = open + 1;
    }
}

/// Parses one `impl` header starting at `at`: returns the body span and
/// the implemented type's head ident (`impl Tr for Ty` → `Ty`).
fn scan_impl_header(toks: &[Tok], at: usize) -> Option<(usize, usize, String)> {
    let mut j = at + 1;
    // Skip `<...>` generic params directly after `impl`.
    if toks.get(j).map(|t| t.text.as_str()) == Some("<") {
        let mut angle = 0isize;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                "<<" => angle += 2,
                ">>" => angle -= 2,
                _ => {}
            }
            j += 1;
            if angle <= 0 {
                break;
            }
        }
    }
    let mut first_after_for: Option<String> = None;
    let mut first: Option<String> = None;
    let mut saw_for = false;
    let mut angle = 0isize;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "<" => angle += 1,
            ">" => angle -= 1,
            "<<" => angle += 2,
            ">>" => angle -= 2,
            "for" => saw_for = true,
            "{" if angle <= 0 => {
                let close = crate::engine::matching_brace(toks, j)?;
                let ty = if saw_for { first_after_for } else { first };
                return ty.map(|t| (j, close, t));
            }
            ";" if angle <= 0 => return None,
            _ => {
                if toks[j].kind == TokKind::Ident && !is_keyword(&toks[j].text) && angle <= 0 {
                    if saw_for {
                        first_after_for.get_or_insert(toks[j].text.clone());
                    } else {
                        first.get_or_insert(toks[j].text.clone());
                    }
                }
            }
        }
        j += 1;
    }
    None
}

/// Collects channel constructor bindings and their alias stores.
fn scan_channels(file: &SourceFile, sym: &mut Symbols) {
    let toks = &file.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let Some(&(_, bounded)) = CHAN_CTORS.iter().find(|(n, _)| *n == t.text) else {
            continue;
        };
        // Must be a call: `name(` or `name::<T>(`; not a definition
        // (`fn name`), not a method (`.name(` could be `scope.channel()`
        // on some API — still a constructor by convention, accept it).
        if i > 0 && toks[i - 1].text == "fn" {
            continue;
        }
        let mut j = i + 1;
        if toks.get(j).map(|t| t.text.as_str()) == Some("::") {
            // Turbofish: skip `::<...>`.
            j += 1;
            let mut angle = 0isize;
            while j < toks.len() {
                match toks[j].text.as_str() {
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    "<<" => angle += 2,
                    ">>" => angle -= 2,
                    _ => {}
                }
                j += 1;
                if angle <= 0 {
                    break;
                }
            }
        }
        if toks.get(j).map(|t| t.text.as_str()) != Some("(") {
            continue;
        }
        // Walk back over `::`-qualified prefixes to the `=`.
        let mut b = i;
        while b >= 2 && toks[b - 1].text == "::" && toks[b - 2].kind == TokKind::Ident {
            b -= 2;
        }
        if b == 0 || toks[b - 1].text != "=" {
            continue;
        }
        // Pattern between `let` and `=`: `(tx, rx)` or a single ident.
        let mut p = b - 1;
        let mut pat: Vec<String> = Vec::new();
        loop {
            if p == 0 {
                break;
            }
            p -= 1;
            match toks[p].text.as_str() {
                "let" | ";" | "{" | "}" => break,
                "mut" | "(" | ")" | "," | ":" => {}
                _ => {
                    if toks[p].kind == TokKind::Ident {
                        pat.push(toks[p].text.clone());
                    }
                }
            }
        }
        pat.reverse();
        let kind = if bounded { ChanKind::Bounded } else { ChanKind::Unbounded };
        for (pos, name) in pat.iter().enumerate() {
            if name == "_" {
                continue;
            }
            classify(sym, name, kind, pos == 0, &file.path, t.line);
        }
        // Propagate through stores: `container.push(name)`,
        // `map.insert(k, name)`, `field: name` (struct literal).
        for name in &pat {
            propagate_aliases(file, name, sym);
        }
    }
}

/// Records `name` as a channel endpoint, degrading to `Conflicting` when
/// the workspace already classified the name differently.
fn classify(sym: &mut Symbols, name: &str, kind: ChanKind, sender: bool, path: &str, line: usize) {
    match sym.chan_kinds.get_mut(name) {
        Some(e) => {
            if e.kind != kind {
                e.kind = ChanKind::Conflicting;
            }
            e.sender |= sender;
        }
        None => {
            sym.chan_kinds.insert(
                name.to_string(),
                ChanEndpoint { kind, sender, path: path.to_string(), line },
            );
        }
    }
}

/// Finds container stores of `name` in `file` and propagates the
/// channel classification onto the container/field name.
fn propagate_aliases(file: &SourceFile, name: &str, sym: &mut Symbols) {
    let toks = &file.tokens;
    let Some(ep) = sym.chan_kinds.get(name).cloned() else { return };
    let mut stores: Vec<String> = Vec::new();
    for i in 0..toks.len() {
        if toks[i].text != *name || toks[i].kind != TokKind::Ident {
            continue;
        }
        // `container . push ( name )` / `map . insert ( k , name )`
        let prev = |k: usize| toks.get(i.wrapping_sub(k)).map(|t| t.text.as_str());
        if prev(1) == Some("(") || prev(1) == Some(",") {
            // Walk back to the method ident and its receiver.
            let mut j = i - 1;
            let mut depth = 0isize;
            while j > 0 {
                match toks[j].text.as_str() {
                    ")" | "]" => depth += 1,
                    "(" | "[" => {
                        if depth == 0 {
                            break;
                        }
                        depth -= 1;
                    }
                    ";" | "{" | "}" => break,
                    _ => {}
                }
                j -= 1;
            }
            if j >= 3
                && matches!(toks[j - 1].text.as_str(), "push" | "insert" | "or_insert")
                && toks[j - 2].text == "."
                && toks[j - 3].kind == TokKind::Ident
            {
                stores.push(toks[j - 3].text.clone());
            }
        }
        // Struct literal `field : name` followed by `,` or `}`.
        if prev(1) == Some(":")
            && i >= 2
            && toks[i - 2].kind == TokKind::Ident
            && matches!(toks.get(i + 1).map(|t| t.text.as_str()), Some(",") | Some("}"))
        {
            stores.push(toks[i - 2].text.clone());
        }
    }
    for s in stores {
        classify(sym, &s, ep.kind, ep.sender, &file.path, ep.line);
        sym.chan_aliases.entry(name.to_string()).or_default().insert(s);
    }
}
