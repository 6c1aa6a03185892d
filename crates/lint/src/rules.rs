//! The geolint rule catalog.
//!
//! Every rule works on the token stream of [`crate::lexer`] plus a
//! lightweight function map — no full AST. The rules are deliberately
//! conservative heuristics tuned to this workspace's idioms (DESIGN.md
//! §14 documents each one, its known blind spots, and why a first-party
//! allowlist is the escape hatch rather than rule-level cleverness).

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

use crate::lexer::{lex, Tok, TokKind};
use crate::Finding;

/// One function (or method) extracted from a token stream.
#[derive(Debug, Clone)]
pub struct FnUnit {
    /// Function name.
    pub name: String,
    /// 1-indexed line of the `fn` keyword.
    pub line: u32,
    /// True for `#[test]` functions, functions inside `#[cfg(test)]`
    /// modules, and functions nested inside either.
    pub is_test: bool,
    /// Token range of the body (between, not including, the braces).
    pub body: Range<usize>,
}

/// A tokenized source file with its extracted functions.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// Token stream.
    pub toks: Vec<Tok>,
    /// Extracted functions, outermost first.
    pub fns: Vec<FnUnit>,
}

impl SourceFile {
    /// Lexes and indexes one source file.
    pub fn parse(path: &str, src: &str) -> Self {
        let toks = lex(src);
        let fns = extract_fns(&toks);
        SourceFile { path: path.to_string(), toks, fns }
    }
}

/// Extracts every function in the token stream, including nested ones,
/// tracking `#[test]` attributes and `#[cfg(test)]` module scopes.
pub fn extract_fns(toks: &[Tok]) -> Vec<FnUnit> {
    let n = toks.len();
    let mut fns: Vec<FnUnit> = Vec::new();
    let mut depth = 0usize;
    // Depths at which a `#[cfg(test)] mod { ... }` body is open.
    let mut test_mods: Vec<usize> = Vec::new();
    let mut pending_cfg_test = false;
    let mut pending_test_attr = false;
    let mut i = 0usize;
    while i < n {
        let t = &toks[i];
        if t.is_punct('#') && i + 1 < n && toks[i + 1].is_punct('[') {
            let mut j = i + 2;
            let mut bd = 1usize;
            let mut ids: Vec<&str> = Vec::new();
            while j < n && bd > 0 {
                if toks[j].is_punct('[') {
                    bd += 1;
                } else if toks[j].is_punct(']') {
                    bd -= 1;
                } else if toks[j].kind == TokKind::Ident {
                    ids.push(toks[j].text.as_str());
                }
                j += 1;
            }
            match ids.first() {
                Some(&"cfg") if ids.contains(&"test") => pending_cfg_test = true,
                Some(&"test") => pending_test_attr = true,
                _ => {}
            }
            i = j;
            continue;
        }
        if t.is_punct('{') {
            depth += 1;
            pending_cfg_test = false;
            pending_test_attr = false;
        } else if t.is_punct('}') {
            depth = depth.saturating_sub(1);
            while test_mods.last().is_some_and(|d| *d > depth) {
                test_mods.pop();
            }
        } else if t.is_punct(';') {
            pending_cfg_test = false;
            pending_test_attr = false;
        } else if t.is_ident("mod") && pending_cfg_test {
            // Scan to the module body (or `;` for out-of-line modules).
            let mut j = i + 1;
            while j < n && !toks[j].is_punct('{') && !toks[j].is_punct(';') {
                j += 1;
            }
            if j < n && toks[j].is_punct('{') {
                depth += 1;
                test_mods.push(depth);
            }
            pending_cfg_test = false;
            pending_test_attr = false;
            i = j + 1;
            continue;
        } else if t.is_ident("fn") && i + 1 < n && toks[i + 1].kind == TokKind::Ident {
            let name = toks[i + 1].text.clone();
            // Find the body brace (or `;` for bodyless trait methods),
            // skipping over the parenthesized parameter list.
            let mut j = i + 2;
            let mut pd = 0isize;
            while j < n {
                let u = &toks[j];
                if u.is_punct('(') || u.is_punct('[') {
                    pd += 1;
                } else if u.is_punct(')') || u.is_punct(']') {
                    pd -= 1;
                } else if pd == 0 && (u.is_punct('{') || u.is_punct(';')) {
                    break;
                }
                j += 1;
            }
            if j < n && toks[j].is_punct('{') {
                let mut k = j + 1;
                let mut bd = 1usize;
                while k < n && bd > 0 {
                    if toks[k].is_punct('{') {
                        bd += 1;
                    } else if toks[k].is_punct('}') {
                        bd -= 1;
                    }
                    k += 1;
                }
                let body = (j + 1)..(k.saturating_sub(1));
                fns.push(FnUnit {
                    name,
                    line: t.line,
                    is_test: pending_test_attr || !test_mods.is_empty(),
                    body,
                });
            }
            pending_test_attr = false;
            // Keep scanning inside the body so nested fns are found too.
            i += 2;
            continue;
        }
        i += 1;
    }
    // A fn nested inside a test fn is test code as well.
    let test_ranges: Vec<Range<usize>> =
        fns.iter().filter(|f| f.is_test).map(|f| f.body.clone()).collect();
    for f in &mut fns {
        if !f.is_test && test_ranges.iter().any(|r| r.start <= f.body.start && f.body.end <= r.end)
        {
            f.is_test = true;
        }
    }
    fns
}

/// Index of the innermost function whose body contains token `idx`.
fn innermost(fns: &[FnUnit], idx: usize) -> Option<usize> {
    fns.iter()
        .enumerate()
        .filter(|(_, f)| f.body.contains(&idx))
        .min_by_key(|(_, f)| f.body.end - f.body.start)
        .map(|(i, _)| i)
}

fn fn_name_at(fns: &[FnUnit], idx: usize) -> String {
    innermost(fns, idx).map(|i| fns[i].name.clone()).unwrap_or_default()
}

fn is_call(toks: &[Tok], i: usize) -> bool {
    toks[i].kind == TokKind::Ident && i + 1 < toks.len() && toks[i + 1].is_punct('(')
}

fn prev_is_dot(toks: &[Tok], i: usize) -> bool {
    i > 0 && toks[i - 1].is_punct('.')
}

/// Runs every rule over the parsed files and appends findings.
pub fn run_all(files: &[SourceFile], out: &mut Vec<Finding>) {
    rule_panic_in_lib(files, out);
    rule_lock_across_blocking(files, out);
    rule_lock_order_cycle(files, out);
    rule_unbounded_growth(files, out);
    rule_instant_in_chunk_loop(files, out);
    rule_relaxed_strong_mix(files, out);
    rule_raw_file_io_in_store(files, out);
    rule_detached_thread_spawn(files, out);
    rule_scalar_pull(files, out);
    rule_element_packing(files, out);
}

/// True for library source files (skips `src/bin/` entry points, which
/// are allowed to exit and panic on unrecoverable CLI errors).
fn is_lib_file(path: &str) -> bool {
    path.contains("/src/") && !path.contains("/src/bin/")
}

/// `panic-in-lib`: panic-family macros and `process::exit` in non-test
/// library code. The DSMS runs continuous queries in worker threads; a
/// panicking operator takes the whole pipeline down, so library code
/// must surface failures as typed errors instead.
fn rule_panic_in_lib(files: &[SourceFile], out: &mut Vec<Finding>) {
    for f in files.iter().filter(|f| is_lib_file(&f.path)) {
        let toks = &f.toks;
        for i in 0..toks.len() {
            let hit = if is_macro(toks, i, "panic")
                || is_macro(toks, i, "todo")
                || is_macro(toks, i, "unimplemented")
            {
                Some(format!("`{}!` in non-test library code", toks[i].text))
            } else if toks[i].is_ident("exit")
                && i >= 3
                && toks[i - 1].is_punct(':')
                && toks[i - 2].is_punct(':')
                && toks[i - 3].is_ident("process")
                && is_call(toks, i)
            {
                Some("`process::exit` in non-test library code".to_string())
            } else {
                None
            };
            if let Some(msg) = hit {
                match innermost(&f.fns, i) {
                    Some(fi) if f.fns[fi].is_test => {}
                    located => out.push(Finding {
                        rule: "panic-in-lib",
                        file: f.path.clone(),
                        line: toks[i].line,
                        function: located.map(|fi| f.fns[fi].name.clone()).unwrap_or_default(),
                        message: format!(
                            "{msg}; return a typed error instead (operators must not take the \
                             pipeline down)"
                        ),
                    }),
                }
            }
        }
    }
}

fn is_macro(toks: &[Tok], i: usize, name: &str) -> bool {
    toks[i].is_ident(name) && i + 1 < toks.len() && toks[i + 1].is_punct('!')
}

/// Methods that can block the calling thread indefinitely. `join` is
/// deliberately absent: `Path::join` and `[str]::join` are pervasive
/// and name-collide with `JoinHandle::join` under a token-level lexer.
const BLOCKING_METHODS: &[&str] =
    &["send", "recv", "recv_timeout", "sleep", "wait", "wait_timeout"];

/// Identifiers that acquire a lock guard.
const LOCK_CALLS: &[&str] = &["lock", "lock_opt", "try_lock"];

/// A let-bound lock guard currently in scope.
struct Guard {
    var: String,
    lock: String,
    depth: usize,
    line: u32,
}

/// Parses `let [mut] g = ...lock...;` starting at the `let` token.
/// Returns `(guard_var, lock_name, statement_end)` when the statement
/// acquires a lock; `statement_end` is the index just past the `;`.
fn parse_let_guard(toks: &[Tok], i: usize) -> (Option<(String, String)>, usize) {
    let n = toks.len();
    let mut j = i + 1;
    if j < n && toks[j].is_ident("mut") {
        j += 1;
    }
    // Accept `let g`, `let Some(g)`, `let Ok(g)` shapes.
    let var = if j < n && toks[j].kind == TokKind::Ident {
        if (toks[j].is_ident("Some") || toks[j].is_ident("Ok"))
            && j + 1 < n
            && toks[j + 1].is_punct('(')
        {
            let mut k = j + 2;
            if k < n && toks[k].is_ident("mut") {
                k += 1;
            }
            (k < n && toks[k].kind == TokKind::Ident).then(|| toks[k].text.clone())
        } else {
            Some(toks[j].text.clone())
        }
    } else {
        None
    };
    // Scan to the end of the statement, tracking nesting so `;` inside
    // block expressions and closures doesn't end it early. A lock call
    // inside nested braces is scoped to that block, not to the binding
    // (`let snapshot = { let g = x.lock(); g.clone() };`), so only
    // brace-depth-0 lock calls make the binding a guard.
    let mut end = j;
    let mut bd = 0isize;
    let mut brace = 0isize;
    let mut lock_at = None;
    while end < n {
        let t = &toks[end];
        if t.is_punct('{') {
            bd += 1;
            brace += 1;
        } else if t.is_punct('(') || t.is_punct('[') {
            bd += 1;
        } else if t.is_punct('}') {
            bd -= 1;
            brace -= 1;
            if bd < 0 {
                break;
            }
        } else if t.is_punct(')') || t.is_punct(']') {
            bd -= 1;
            if bd < 0 {
                break;
            }
        } else if t.is_punct(';') && bd == 0 {
            end += 1;
            break;
        } else if brace == 0 && lock_at.is_none() {
            if let Some(name) = lock_name_at(toks, end, n) {
                lock_at = Some((end, name));
            }
        }
        end += 1;
    }
    // A method chained after the lock (past poison handling) consumes
    // the guard within the statement — `slot.lock().unwrap().take()`
    // binds the *taken value*, not the guard.
    let lock = lock_at.filter(|(k, _)| guard_survives_chain(toks, *k, end)).map(|(_, n)| n);
    match (var, lock) {
        (Some(v), Some(l)) => (Some((v, l)), end),
        _ => (None, end),
    }
}

/// True when the method chain following the lock call at `k` leaves the
/// guard itself bound: only poison-handling adapters may follow.
fn guard_survives_chain(toks: &[Tok], k: usize, end: usize) -> bool {
    const KEEPS_GUARD: &[&str] = &["unwrap", "expect", "unwrap_or_else"];
    let mut j = k + 1; // opening paren of the lock call
    loop {
        // Skip the call's argument list.
        if j >= end || !toks[j].is_punct('(') {
            return true;
        }
        let mut pd = 1isize;
        j += 1;
        while j < end && pd > 0 {
            if toks[j].is_punct('(') {
                pd += 1;
            } else if toks[j].is_punct(')') {
                pd -= 1;
            }
            j += 1;
        }
        if j >= end || !toks[j].is_punct('.') {
            return true;
        }
        let m = j + 1;
        if m >= end || toks[m].kind != TokKind::Ident {
            return true;
        }
        if !KEEPS_GUARD.contains(&toks[m].text.as_str()) {
            return false;
        }
        j = m + 1;
    }
}

/// When token `k` is a lock-acquiring call, names the lock: the field
/// receiver for `x.subs.lock()` shapes, or the last identifier of the
/// argument for `lock_opt(&self.subs)` shapes.
fn lock_name_at(toks: &[Tok], k: usize, limit: usize) -> Option<String> {
    if !LOCK_CALLS.contains(&toks[k].text.as_str()) || !is_call(toks, k) {
        return None;
    }
    if prev_is_dot(toks, k) {
        return (k >= 2 && toks[k - 2].kind == TokKind::Ident).then(|| toks[k - 2].text.clone());
    }
    // Free helper: take the last identifier inside the argument list.
    let mut j = k + 2;
    let mut pd = 1isize;
    let mut last = None;
    while j < limit && pd > 0 {
        if toks[j].is_punct('(') {
            pd += 1;
        } else if toks[j].is_punct(')') {
            pd -= 1;
        } else if toks[j].kind == TokKind::Ident && !toks[j].is_ident("self") {
            last = Some(toks[j].text.clone());
        }
        j += 1;
    }
    last
}

/// `lock-across-blocking`: a potentially-blocking call (`send`, `recv`,
/// `sleep`, `join`, ...) while a let-bound lock guard is live. This is
/// the exact shape of the fan-out deadlock fixed in the DSMS pump: a
/// guard held across `SyncSender::send` stalls every subscriber when
/// one queue is full.
fn rule_lock_across_blocking(files: &[SourceFile], out: &mut Vec<Finding>) {
    // Fixpoint over free functions: a free fn "may block" when its body
    // contains a direct blocking call or a call to a may-block free fn.
    let mut may_block: BTreeSet<String> = BTreeSet::new();
    loop {
        let mut grew = false;
        for f in files {
            for fun in &f.fns {
                if may_block.contains(&fun.name) {
                    continue;
                }
                let blocks = fun.body.clone().any(|i| {
                    is_call(&f.toks, i)
                        && (BLOCKING_METHODS.contains(&f.toks[i].text.as_str())
                            || (!prev_is_dot(&f.toks, i) && may_block.contains(&f.toks[i].text)))
                });
                if blocks {
                    may_block.insert(fun.name.clone());
                    grew = true;
                }
            }
        }
        if !grew {
            break;
        }
    }
    for f in files.iter().filter(|f| f.path.contains("/src/")) {
        for fun in f.fns.iter().filter(|fun| !fun.is_test) {
            scan_guard_region(f, fun, &may_block, out);
        }
    }
}

/// Walks one function body tracking live guards and reporting blocking
/// calls made while any guard is held.
fn scan_guard_region(
    f: &SourceFile,
    fun: &FnUnit,
    may_block: &BTreeSet<String>,
    out: &mut Vec<Finding>,
) {
    let toks = &f.toks;
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0usize;
    let mut i = fun.body.start;
    while i < fun.body.end {
        let t = &toks[i];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth = depth.saturating_sub(1);
            guards.retain(|g| g.depth <= depth);
        } else if t.is_ident("let") {
            let (guard, end) = parse_let_guard(toks, i);
            if let Some((var, lock)) = guard {
                guards.push(Guard { var, lock, depth, line: t.line });
            }
            // Step past the binding itself, but NOT past the rest of
            // the statement: the initializer may itself block.
            let _ = end;
            i += 1;
            continue;
        } else if t.is_ident("drop") && is_call(toks, i) && !prev_is_dot(toks, i) {
            // `drop(g)` / `drop(&g)` releases the guard early.
            let mut j = i + 2;
            while j < fun.body.end && !toks[j].is_punct(')') {
                if toks[j].kind == TokKind::Ident {
                    let name = toks[j].text.clone();
                    guards.retain(|g| g.var != name);
                }
                j += 1;
            }
        } else if !guards.is_empty() && is_call(toks, i) {
            let name = toks[i].text.as_str();
            let method = prev_is_dot(toks, i);
            let direct = BLOCKING_METHODS.contains(&name);
            let transitive = !method && may_block.contains(name) && !LOCK_CALLS.contains(&name);
            if let (true, Some(g)) = (direct || transitive, guards.last()) {
                let verb = if direct { "blocking call" } else { "call into blocking fn" };
                out.push(Finding {
                    rule: "lock-across-blocking",
                    file: f.path.clone(),
                    line: toks[i].line,
                    function: fun.name.clone(),
                    message: format!(
                        "{verb} `{name}` while guard `{}` of lock `{}` (taken line {}) is held; \
                         drop the guard or move the call outside the critical section",
                        g.var, g.lock, g.line
                    ),
                });
            }
        }
        i += 1;
    }
}

/// `lock-order-cycle`: builds the global lock acquisition-order graph
/// (edge A→B when lock B is taken while a guard of lock A is live) for
/// the runtime crates and reports any cycle — two threads taking the
/// locks in opposite orders can deadlock.
fn rule_lock_order_cycle(files: &[SourceFile], out: &mut Vec<Finding>) {
    struct Edge {
        to: String,
        file: String,
        line: u32,
        function: String,
    }
    let runtime = |p: &str| {
        p.starts_with("crates/core/")
            || p.starts_with("crates/dsms/")
            || p.starts_with("crates/store/")
    };
    let mut graph: BTreeMap<String, Vec<Edge>> = BTreeMap::new();
    for f in files.iter().filter(|f| runtime(&f.path) && f.path.contains("/src/")) {
        let toks = &f.toks;
        for fun in f.fns.iter().filter(|fun| !fun.is_test) {
            let mut guards: Vec<Guard> = Vec::new();
            let mut depth = 0usize;
            let mut i = fun.body.start;
            while i < fun.body.end {
                let t = &toks[i];
                if t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct('}') {
                    depth = depth.saturating_sub(1);
                    guards.retain(|g| g.depth <= depth);
                } else if t.is_ident("drop") && is_call(toks, i) && !prev_is_dot(toks, i) {
                    let mut j = i + 2;
                    while j < fun.body.end && !toks[j].is_punct(')') {
                        if toks[j].kind == TokKind::Ident {
                            let name = toks[j].text.clone();
                            guards.retain(|g| g.var != name);
                        }
                        j += 1;
                    }
                } else if let Some(lock) = lock_name_at(toks, i, fun.body.end) {
                    for held in &guards {
                        if held.lock != lock {
                            graph.entry(held.lock.clone()).or_default().push(Edge {
                                to: lock.clone(),
                                file: f.path.clone(),
                                line: t.line,
                                function: fun.name.clone(),
                            });
                        }
                    }
                }
                if t.is_ident("let") {
                    let (guard, _end) = parse_let_guard(toks, i);
                    if let Some((var, lock)) = guard {
                        guards.push(Guard { var, lock, depth, line: t.line });
                    }
                }
                i += 1;
            }
        }
    }
    // Each cycle is reported once, rooted at its lexicographically
    // smallest lock.
    let mut seen: BTreeSet<Vec<String>> = BTreeSet::new();
    let starts: Vec<String> = graph.keys().cloned().collect();
    for start in &starts {
        let mut path = vec![start.clone()];
        walk_cycles(&graph, start, start, &mut path, &mut seen, out);
    }

    fn walk_cycles(
        graph: &BTreeMap<String, Vec<Edge>>,
        start: &str,
        cur: &str,
        path: &mut Vec<String>,
        seen: &mut BTreeSet<Vec<String>>,
        out: &mut Vec<Finding>,
    ) {
        let Some(edges) = graph.get(cur) else { return };
        for e in edges {
            if e.to == start {
                if seen.insert(path.clone()) {
                    let chain = path.join(" -> ");
                    out.push(Finding {
                        rule: "lock-order-cycle",
                        file: e.file.clone(),
                        line: e.line,
                        function: e.function.clone(),
                        message: format!(
                            "lock acquisition-order cycle: {chain} -> {start}; threads taking \
                             these locks in different orders can deadlock"
                        ),
                    });
                }
            } else if e.to.as_str() > start && !path.contains(&e.to) {
                path.push(e.to.clone());
                walk_cycles(graph, start, &e.to, path, seen, out);
                path.pop();
            }
        }
    }
}

/// Functions on the chunked hot path: called once per chunk (or more),
/// so unbounded collection growth there is a memory leak under a
/// continuous stream.
const HOT_FNS: &[&str] = &[
    "next_chunk",
    // The per-element state machine whose elements `next_chunk` packs
    // with `pack_elements` (the `tee2` sides) or that yields the
    // scanner's marker phases.
    "step",
    // The run-native sector and scope operators: one input item taken
    // whole (`ingest_item`), a run folded, magnified or mapped into the
    // output queue's last run, a held scope or finished blocks flushed,
    // a whole sector queued (`ops/aggregate.rs`, `ops/delay.rs`,
    // `ops/stretch.rs`, `ops/spatial.rs`, `model/sector.rs`).
    "ingest_item",
    "fold_run",
    "magnify_run",
    "map_run",
    "flush_scope",
    "flush_blocks",
    "queue_sector",
    // The row window of focal and re-projection: input runs into the
    // row ring, ready rows walked (`model/rows.rs`), output rows into
    // the item queue (`ops/focal.rs`, `ops/reproject.rs`).
    "ingest_run",
    "next_ready_row",
    "emit_ready_rows",
    // Composition: aligned input runs zipped, composed points into the
    // output queue's last run (`ops/compose.rs`, `model::chunk::RunQueue`).
    "zip_runs",
    "emit_run",
    "open_run",
    "next_frame",
    "pack_elements",
    "drain_chunked",
    "run_chunked",
    "ingest_chunk",
    "pump",
    "multicast",
    "shed_try_sub",
    // Morsel driver and worker pool (DESIGN.md §17): called once per
    // inner item (`push_item`), per delivered item (`deliver`, which
    // `run_chunked` shares), per morsel or per pool job.
    "run_morsels",
    "run_kernel",
    "push_item",
    "deliver_unit",
    "deliver",
    "worker_loop",
    "submit",
    "wait_next",
];

/// Methods that bound a collection again.
const DRAIN_METHODS: &[&str] = &[
    "pop",
    "pop_front",
    "pop_back",
    "clear",
    "drain",
    "truncate",
    "split_off",
    "remove",
    "swap_remove",
    "take",
];

/// `unbounded-growth`: `push`/`push_back` onto a receiver inside a
/// hot-path function when nothing in the same file ever shrinks that
/// receiver. Streams are infinite; any collection that only grows on
/// the per-chunk path eventually exhausts memory.
fn rule_unbounded_growth(files: &[SourceFile], out: &mut Vec<Finding>) {
    for f in files.iter().filter(|f| is_lib_file(&f.path)) {
        let toks = &f.toks;
        let mut drained: BTreeSet<String> = BTreeSet::new();
        for i in 0..toks.len() {
            if DRAIN_METHODS.contains(&toks[i].text.as_str())
                && is_call(toks, i)
                && prev_is_dot(toks, i)
                && i >= 2
                && toks[i - 2].kind == TokKind::Ident
            {
                drained.insert(toks[i - 2].text.clone());
            }
            // `mem::take(&mut self.held)` empties the collection too.
            if toks[i].is_ident("take") && is_call(toks, i) && !prev_is_dot(toks, i) {
                let mut j = i + 2;
                let mut last = None;
                while j < toks.len() && !toks[j].is_punct(')') {
                    if toks[j].kind == TokKind::Ident && !toks[j].is_ident("mut") {
                        last = Some(toks[j].text.clone());
                    }
                    j += 1;
                }
                if let Some(name) = last {
                    drained.insert(name);
                }
            }
            // Plain reassignment (`self.tracker = RangeTracker::new()`)
            // drops the old contents and bounds growth as well.
            if toks[i].kind == TokKind::Ident
                && i + 2 < toks.len()
                && toks[i + 1].is_punct('=')
                && !toks[i + 2].is_punct('=')
                && (i == 0 || !toks[i - 1].is_punct('='))
            {
                drained.insert(toks[i].text.clone());
            }
        }
        for fun in f.fns.iter().filter(|fun| !fun.is_test && HOT_FNS.contains(&fun.name.as_str())) {
            for i in fun.body.clone() {
                let is_push = (toks[i].is_ident("push") || toks[i].is_ident("push_back"))
                    && is_call(toks, i)
                    && prev_is_dot(toks, i)
                    && i >= 2
                    && toks[i - 2].kind == TokKind::Ident;
                if is_push {
                    let recv = toks[i - 2].text.clone();
                    if !drained.contains(&recv) {
                        out.push(Finding {
                            rule: "unbounded-growth",
                            file: f.path.clone(),
                            line: toks[i].line,
                            function: fun.name.clone(),
                            message: format!(
                                "`{recv}.{}(..)` on the chunk hot path with no pop/clear/drain/\
                                 truncate of `{recv}` anywhere in this file; a continuous stream \
                                 will grow it without bound",
                                toks[i].text
                            ),
                        });
                    }
                }
            }
        }
    }
}

/// `instant-in-chunk-loop`: `Instant::now()` inside a loop that pulls
/// chunks. PR 6 established the 1-in-16 sampled-clock discipline for
/// per-chunk timing (`PULL_SAMPLE_EVERY`); a syscall per chunk undoes
/// the vectorization win.
fn rule_instant_in_chunk_loop(files: &[SourceFile], out: &mut Vec<Finding>) {
    for f in files.iter().filter(|f| is_lib_file(&f.path)) {
        let toks = &f.toks;
        for fun in f.fns.iter().filter(|fun| !fun.is_test) {
            let mut i = fun.body.start;
            while i < fun.body.end {
                if toks[i].is_ident("loop") || toks[i].is_ident("while") || toks[i].is_ident("for")
                {
                    if let Some(close) = loop_extent(toks, i, fun.body.end) {
                        let pulls =
                            (i..close).any(|k| toks[k].is_ident("next_chunk") && is_call(toks, k));
                        if pulls {
                            for k in i..close {
                                if toks[k].is_ident("Instant")
                                    && k + 3 < close
                                    && toks[k + 1].is_punct(':')
                                    && toks[k + 2].is_punct(':')
                                    && toks[k + 3].is_ident("now")
                                {
                                    out.push(Finding {
                                        rule: "instant-in-chunk-loop",
                                        file: f.path.clone(),
                                        line: toks[k].line,
                                        function: fun.name.clone(),
                                        message: "`Instant::now()` inside a chunk-pulling loop; \
                                                  use the 1-in-16 sampled clock (PULL_SAMPLE_EVERY \
                                                  discipline) instead of a syscall per chunk"
                                            .to_string(),
                                    });
                                }
                            }
                            i = close;
                            continue;
                        }
                    }
                }
                i += 1;
            }
        }
    }
}

/// Given a `loop`/`while`/`for` keyword at `i`, returns the token index
/// just past the closing brace of the loop body.
fn loop_extent(toks: &[Tok], i: usize, limit: usize) -> Option<usize> {
    let mut j = i + 1;
    let mut pd = 0isize;
    while j < limit {
        let t = &toks[j];
        if t.is_punct('(') || t.is_punct('[') {
            pd += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            pd -= 1;
        } else if pd == 0 && t.is_punct('{') {
            break;
        } else if pd == 0 && t.is_punct(';') {
            return None;
        }
        j += 1;
    }
    if j >= limit {
        return None;
    }
    let mut bd = 1usize;
    j += 1;
    while j < limit && bd > 0 {
        if toks[j].is_punct('{') {
            bd += 1;
        } else if toks[j].is_punct('}') {
            bd -= 1;
        }
        j += 1;
    }
    Some(j)
}

/// Atomic accessor methods whose call sites carry an `Ordering`.
const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

/// `relaxed-strong-mix`: one atomic field accessed with `Relaxed` at
/// some sites and acquire/release orderings at others, anywhere in the
/// workspace. Mixing the two on one field usually means the field is
/// doing double duty as a statistic *and* a handoff flag — the Relaxed
/// sites silently break the handoff. (`SeqCst` alone is not flagged:
/// a Relaxed counter read by a SeqCst diagnostic dump is fine.)
fn rule_relaxed_strong_mix(files: &[SourceFile], out: &mut Vec<Finding>) {
    struct Site {
        file: String,
        line: u32,
        function: String,
        ordering: String,
    }
    let mut by_field: BTreeMap<String, Vec<Site>> = BTreeMap::new();
    for f in files.iter().filter(|f| f.path.contains("/src/")) {
        let toks = &f.toks;
        for i in 0..toks.len() {
            if !(ATOMIC_METHODS.contains(&toks[i].text.as_str())
                && is_call(toks, i)
                && prev_is_dot(toks, i)
                && i >= 2)
            {
                continue;
            }
            let field = receiver_path(toks, i - 2);
            if field.is_empty() {
                continue;
            }
            // Scan the argument list for Ordering::X mentions.
            let mut j = i + 2;
            let mut pd = 1isize;
            while j < toks.len() && pd > 0 {
                if toks[j].is_punct('(') {
                    pd += 1;
                } else if toks[j].is_punct(')') {
                    pd -= 1;
                } else if toks[j].is_ident("Ordering")
                    && j + 3 < toks.len()
                    && toks[j + 1].is_punct(':')
                    && toks[j + 2].is_punct(':')
                {
                    by_field.entry(field.clone()).or_default().push(Site {
                        file: f.path.clone(),
                        line: toks[j].line,
                        function: fn_name_at(&f.fns, i),
                        ordering: toks[j + 3].text.clone(),
                    });
                    j += 3;
                }
                j += 1;
            }
        }
    }
    for (field, sites) in &by_field {
        let strong =
            sites.iter().any(|s| matches!(s.ordering.as_str(), "Acquire" | "Release" | "AcqRel"));
        let relaxed = sites.iter().any(|s| s.ordering == "Relaxed");
        if strong && relaxed {
            for s in sites.iter().filter(|s| s.ordering == "Relaxed") {
                out.push(Finding {
                    rule: "relaxed-strong-mix",
                    file: s.file.clone(),
                    line: s.line,
                    function: s.function.clone(),
                    message: format!(
                        "atomic field `{field}` mixes Relaxed (here) with acquire/release \
                         orderings elsewhere in the workspace; split the statistic from the \
                         handoff flag or upgrade this site"
                    ),
                });
            }
        }
    }
}

/// Builds the dotted receiver path ending at token `i` (an ident or
/// tuple index), e.g. `self.inner.hits` → `"inner.hits"`.
fn receiver_path(toks: &[Tok], i: usize) -> String {
    let mut parts: Vec<String> = Vec::new();
    let mut j = i as isize;
    while j >= 0 {
        let t = &toks[j as usize];
        if t.kind == TokKind::Ident || t.kind == TokKind::Num {
            if !t.is_ident("self") {
                parts.push(t.text.clone());
            }
        } else {
            break;
        }
        if j >= 2 && toks[(j - 1) as usize].is_punct('.') {
            j -= 2;
        } else {
            break;
        }
    }
    parts.reverse();
    parts.join(".")
}

/// Token index ranges of `#[cfg(test)] mod { ... }` bodies.
fn cfg_test_mod_ranges(toks: &[Tok]) -> Vec<Range<usize>> {
    let n = toks.len();
    let mut ranges = Vec::new();
    let mut pending_cfg_test = false;
    let mut i = 0usize;
    while i < n {
        let t = &toks[i];
        if t.is_punct('#') && i + 1 < n && toks[i + 1].is_punct('[') {
            let mut j = i + 2;
            let mut bd = 1usize;
            let mut ids: Vec<&str> = Vec::new();
            while j < n && bd > 0 {
                if toks[j].is_punct('[') {
                    bd += 1;
                } else if toks[j].is_punct(']') {
                    bd -= 1;
                } else if toks[j].kind == TokKind::Ident {
                    ids.push(toks[j].text.as_str());
                }
                j += 1;
            }
            if ids.first() == Some(&"cfg") && ids.contains(&"test") {
                pending_cfg_test = true;
            }
            i = j;
            continue;
        }
        if t.is_ident("mod") && pending_cfg_test {
            let mut j = i + 1;
            while j < n && !toks[j].is_punct('{') && !toks[j].is_punct(';') {
                j += 1;
            }
            if j < n && toks[j].is_punct('{') {
                let start = j + 1;
                let mut bd = 1usize;
                let mut k = start;
                while k < n && bd > 0 {
                    if toks[k].is_punct('{') {
                        bd += 1;
                    } else if toks[k].is_punct('}') {
                        bd -= 1;
                    }
                    k += 1;
                }
                ranges.push(start..k);
                pending_cfg_test = false;
                i = k;
                continue;
            }
            pending_cfg_test = false;
        } else if t.is_punct('{') || t.is_punct(';') {
            pending_cfg_test = false;
        }
        i += 1;
    }
    ranges
}

/// `raw-file-io-in-store`: direct `std::fs` / `File::` / `OpenOptions`
/// use in `crates/store` library code outside `vfs.rs`. Every byte the
/// archive touches must flow through the `Vfs` trait — a raw
/// filesystem call is invisible to the crash harness's fault injection
/// (torn writes, fsync failures, bit flips) and to the recovery
/// accounting, so the durability contract it participates in is
/// untested. Test code may use `std::fs` freely to set up and corrupt
/// fixtures.
fn rule_raw_file_io_in_store(files: &[SourceFile], out: &mut Vec<Finding>) {
    let in_scope = |p: &str| p.contains("crates/store/src/") && !p.ends_with("vfs.rs");
    for f in files.iter().filter(|f| in_scope(&f.path)) {
        let toks = &f.toks;
        let test_ranges = cfg_test_mod_ranges(toks);
        for i in 0..toks.len() {
            if test_ranges.iter().any(|r| r.contains(&i)) {
                continue;
            }
            let hit = if toks[i].is_ident("fs")
                && i >= 3
                && toks[i - 1].is_punct(':')
                && toks[i - 2].is_punct(':')
                && toks[i - 3].is_ident("std")
            {
                Some("`std::fs`")
            } else if toks[i].is_ident("File")
                && i + 2 < toks.len()
                && toks[i + 1].is_punct(':')
                && toks[i + 2].is_punct(':')
            {
                Some("`File::`")
            } else if toks[i].is_ident("OpenOptions") {
                Some("`OpenOptions`")
            } else {
                None
            };
            if let Some(what) = hit {
                match innermost(&f.fns, i) {
                    Some(fi) if f.fns[fi].is_test => {}
                    located => out.push(Finding {
                        rule: "raw-file-io-in-store",
                        file: f.path.clone(),
                        line: toks[i].line,
                        function: located.map(|fi| f.fns[fi].name.clone()).unwrap_or_default(),
                        message: format!(
                            "{what} in crates/store outside vfs.rs; route archive I/O through \
                             the `Vfs` trait so fault injection and recovery accounting see \
                             every byte"
                        ),
                    }),
                }
            }
        }
    }
}

/// `detached-thread-spawn`: a statement-position `thread::spawn(..)`
/// in runtime-crate library code discards the `JoinHandle`, so the
/// thread can neither be joined on shutdown nor observed on panic.
/// Every runtime thread is owned: pool workers are named and joined on
/// drop, ingest/query/evaluator threads are held in handle vectors. A
/// spawn whose handle hits the floor leaks past shutdown and hides
/// crashes — bind it, store it, or route the work through the shared
/// `WorkerPool`.
fn rule_detached_thread_spawn(files: &[SourceFile], out: &mut Vec<Finding>) {
    let runtime = |p: &str| {
        p.starts_with("crates/core/")
            || p.starts_with("crates/dsms/")
            || p.starts_with("crates/store/")
    };
    for f in files.iter().filter(|f| runtime(&f.path) && is_lib_file(&f.path)) {
        let toks = &f.toks;
        let test_ranges = cfg_test_mod_ranges(toks);
        for i in 0..toks.len() {
            if test_ranges.iter().any(|r| r.contains(&i)) {
                continue;
            }
            // `thread::spawn(` — optionally prefixed by `std::`.
            if !(toks[i].is_ident("spawn")
                && is_call(toks, i)
                && i >= 3
                && toks[i - 1].is_punct(':')
                && toks[i - 2].is_punct(':')
                && toks[i - 3].is_ident("thread"))
            {
                continue;
            }
            let mut start = i - 3;
            if start >= 3
                && toks[start - 1].is_punct(':')
                && toks[start - 2].is_punct(':')
                && toks[start - 3].is_ident("std")
            {
                start -= 3;
            }
            // Statement position: nothing consumes the handle. Any
            // other predecessor (`=`, `(`, `,`, `.`, an ident…) means
            // the spawn's result is bound, passed, or chained.
            let stmt_start = start == 0
                || toks[start - 1].is_punct(';')
                || toks[start - 1].is_punct('{')
                || toks[start - 1].is_punct('}');
            if !stmt_start {
                continue;
            }
            // A tail expression (`thread::spawn(..)` closing the body)
            // returns the handle to the caller: only a call terminated
            // by `;` drops it. Walk the argument parens to find out.
            let mut j = i + 1;
            let mut pd = 0usize;
            while j < toks.len() {
                if toks[j].is_punct('(') {
                    pd += 1;
                } else if toks[j].is_punct(')') {
                    pd -= 1;
                    if pd == 0 {
                        break;
                    }
                }
                j += 1;
            }
            if !(j + 1 < toks.len() && toks[j + 1].is_punct(';')) {
                continue;
            }
            match innermost(&f.fns, i) {
                Some(fi) if f.fns[fi].is_test => {}
                located => out.push(Finding {
                    rule: "detached-thread-spawn",
                    file: f.path.clone(),
                    line: toks[i].line,
                    function: located.map(|fi| f.fns[fi].name.clone()).unwrap_or_default(),
                    message: "statement-position `thread::spawn` discards the `JoinHandle`; \
                              bind or store the handle (or use the runtime's `WorkerPool`) so \
                              the thread is joined on shutdown and its panics are observed"
                        .to_string(),
                }),
            }
        }
    }
}

/// `scalar-pull`: `.next_element()` in runtime library code. It is a
/// budget-1 `next_chunk`: one point per virtual call, and it drags the
/// whole upstream subtree into one-point runs — a clock sample and a
/// repair pass per point — so consumers read their input through
/// `ChunkInput::pull` (or `next_chunk`). No stream implements
/// `next_element`; one that called it on itself would recurse through
/// `next_chunk(1)`.
fn rule_scalar_pull(files: &[SourceFile], out: &mut Vec<Finding>) {
    let in_scope = |p: &str| {
        p.starts_with("crates/core/src/")
            || p.starts_with("crates/dsms/src/")
            || p.starts_with("crates/store/src/")
            || p == "crates/satsim/src/scanner.rs"
    };
    for f in files.iter().filter(|f| in_scope(&f.path) && is_lib_file(&f.path)) {
        let toks = &f.toks;
        for i in 1..toks.len() {
            if !(toks[i].is_ident("next_element") && is_call(toks, i) && prev_is_dot(toks, i)) {
                continue;
            }
            let Some(fun) = innermost(&f.fns, i).map(|fi| &f.fns[fi]) else { continue };
            if fun.is_test {
                continue;
            }
            out.push(Finding {
                rule: "scalar-pull",
                file: f.path.clone(),
                line: toks[i].line,
                function: fun.name.clone(),
                message: "`.next_element()` pulls one point per virtual call and cuts \
                          everything upstream into one-point runs; read the input through \
                          `ChunkInput::pull` or `next_chunk`"
                    .to_string(),
            });
        }
    }
}

/// `element-packing`: a `pack_elements(..)` call in library code,
/// except `crates/core/src/model/split.rs`, whose `split2` and `tee2`
/// sides carry element sequences by definition. Every other stream reads
/// input runs and writes output runs; packing the elements of a
/// per-element state machine puts an element queue hop and a match per
/// point back on the path — the cost that kept the buffering operators
/// an order of magnitude below the run-native ones.
fn rule_element_packing(files: &[SourceFile], out: &mut Vec<Finding>) {
    let in_scope = |path: &str| is_lib_file(path) && path != "crates/core/src/model/split.rs";
    for f in files.iter().filter(|f| in_scope(&f.path)) {
        let toks = &f.toks;
        for i in 0..toks.len() {
            if !(toks[i].is_ident("pack_elements") && is_call(toks, i)) {
                continue;
            }
            let fun = innermost(&f.fns, i).map(|fi| &f.fns[fi]);
            if fun.is_some_and(|fun| fun.is_test) {
                continue;
            }
            out.push(Finding {
                rule: "element-packing",
                file: f.path.clone(),
                line: toks[i].line,
                function: fun.map(|fun| fun.name.clone()).unwrap_or_default(),
                message: "`pack_elements` packs a per-element state machine's output one \
                          element at a time; a stream reads whole input runs and writes \
                          output runs through `model::chunk::RunQueue`"
                    .to_string(),
            });
        }
    }
}
