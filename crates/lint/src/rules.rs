//! The rule families and the workspace walk that feeds them.
//!
//! | id   | family       | what it enforces                                          |
//! |------|--------------|-----------------------------------------------------------|
//! | U001 | unsafe       | `unsafe` only in allowlisted files                        |
//! | U002 | unsafe       | every `unsafe` block/impl carries a `SAFETY:` comment     |
//! | U003 | unsafe       | non-exempt crate roots carry `#![forbid(unsafe_code)]`    |
//! | P001 | panic ratchet| scan-layer panic count rose above the committed baseline  |
//! | P002 | panic ratchet| baseline is stale (count dropped, or dead entry)          |
//! | F001 | fallibility  | planning modules never touch `try_access`/`StorageError`  |
//! | F002 | fallibility  | scan `pub fn step/run/execute*` return `Result`           |
//! | A001 | atomics      | atomic `Ordering` only in allowlisted meter/pool modules  |
//! | A002 | atomics      | `Ordering::Relaxed` has an adjacent justification comment |
//! | D001 | deferred     | `thread_local!` state only in deferred-allowlisted files  |
//! | D002 | deferred     | per-session deferred counters carry a `Drop` guard        |
//! | S001 | sync protocol| the static lock-acquisition graph has no cycles           |
//! | S002 | sync protocol| mirror-slot stores sit inside a seqlock writer section    |
//! | S003 | sync protocol| no raw atomics on protected fields outside the facade     |
//! | H001 | hygiene      | no `Result<_, String>` in public library APIs             |
//! | H002 | hygiene      | no `dbg!`/`println!` in library code                      |
//! | H003 | hygiene      | every crate root opens with a `//!` doc header            |
//! | X001 | allowlists   | no allowlist/exemption entry is stale                     |

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use crate::policy::Policy;
use crate::ratchet::{self, Baseline};
use crate::scanner::{self, Line};

/// One finding: file, 1-based line (0 = whole file), rule id, message,
/// and a fix hint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line; 0 for file-level findings.
    pub line: usize,
    /// Stable rule id (`U001` … `X001`).
    pub rule: &'static str,
    /// What is wrong.
    pub message: String,
    /// How to fix it legitimately.
    pub hint: String,
}

/// A scanned workspace source file.
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub rel: String,
    /// Per-line code/comment split from [`scanner::scan`].
    pub lines: Vec<Line>,
    /// Per-line `#[cfg(test)]`-region mask from [`scanner::test_lines`].
    pub test_mask: Vec<bool>,
}

impl SourceFile {
    fn non_test(&self) -> impl Iterator<Item = (usize, &Line)> {
        self.lines
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.test_mask[*i])
    }
}

/// Walks the workspace and scans every non-excluded `.rs` file.
pub fn load_workspace(policy: &Policy) -> std::io::Result<Vec<SourceFile>> {
    let mut paths = Vec::new();
    collect(&policy.root, &policy.root, policy, &mut paths)?;
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for rel in paths {
        let src = fs::read_to_string(policy.root.join(&rel))?;
        let lines = scanner::scan(&src);
        let test_mask = scanner::test_lines(&lines);
        files.push(SourceFile {
            rel,
            lines,
            test_mask,
        });
    }
    Ok(files)
}

fn collect(
    root: &Path,
    dir: &Path,
    policy: &Policy,
    out: &mut Vec<String>,
) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" {
                continue;
            }
            let rel = rel_of(root, &path);
            if policy.excluded(&format!("{rel}/")) {
                continue;
            }
            collect(root, &path, policy, out)?;
        } else if name.ends_with(".rs") {
            let rel = rel_of(root, &path);
            if !policy.excluded(&rel) {
                out.push(rel);
            }
        }
    }
    Ok(())
}

fn rel_of(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Runs every rule family over pre-loaded files. The ratchet baseline is
/// read from `policy.ratchet_path`; a missing or unparseable baseline is
/// itself a diagnostic.
pub fn lint(files: &[SourceFile], policy: &Policy) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    rule_unsafe(files, policy, &mut diags);
    rule_forbid_attr(files, policy, &mut diags);
    rule_ratchet(files, policy, &mut diags);
    rule_fallibility(files, policy, &mut diags);
    rule_atomics(files, policy, &mut diags);
    rule_deferred(files, policy, &mut diags);
    rule_sync_protocol(files, policy, &mut diags);
    rule_hygiene(files, policy, &mut diags);
    check_allowlists(files, policy, &mut diags);
    diags.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    diags
}

/// Rule families in the table above (`U`, `P`, `F`, `A`, `D`, `S`, `H`,
/// `X`), for reporting.
pub const FAMILIES: usize = 8;

fn diag(
    diags: &mut Vec<Diagnostic>,
    file: &str,
    line: usize,
    rule: &'static str,
    message: impl Into<String>,
    hint: impl Into<String>,
) {
    diags.push(Diagnostic {
        file: file.to_string(),
        line,
        rule,
        message: message.into(),
        hint: hint.into(),
    });
}

// ---------------------------------------------------------------- tokens

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Byte offsets of `word` in `code` at identifier boundaries.
fn word_positions(code: &str, word: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(found) = code[from..].find(word) {
        let at = from + found;
        let before_ok = at == 0 || !is_ident(code[..at].chars().next_back().unwrap_or(' '));
        let after_ok = !code[at + word.len()..]
            .chars()
            .next()
            .is_some_and(is_ident);
        if before_ok && after_ok {
            out.push(at);
        }
        from = at + word.len();
    }
    out
}

fn next_nonspace(code: &str, from: usize) -> Option<char> {
    code[from..].chars().find(|c| !c.is_whitespace())
}

/// The word ending at byte offset `end` (exclusive), if any.
fn word_ending_at(code: &str, end: usize) -> &str {
    let start = code[..end]
        .char_indices()
        .rev()
        .take_while(|(_, c)| is_ident(*c))
        .last()
        .map(|(i, _)| i)
        .unwrap_or(end);
    &code[start..end]
}

const INDEX_KEYWORDS: &[&str] = &[
    "in", "if", "else", "match", "return", "break", "continue", "let", "mut", "ref", "move",
    "as", "impl", "dyn", "where", "loop", "while", "for", "unsafe", "const", "static", "box",
    "await", "yield", "use",
];

/// Counts slice/array index expressions: a `[` whose previous non-space
/// char ends an identifier (that is not a keyword), `)`, or `]`.
fn index_expressions(code: &str) -> Vec<usize> {
    let mut out = Vec::new();
    for (at, c) in code.char_indices() {
        if c != '[' {
            continue;
        }
        let before = code[..at].trim_end();
        let Some(prev) = before.chars().next_back() else {
            continue;
        };
        if prev == ')' || prev == ']' {
            out.push(at);
        } else if is_ident(prev) {
            let word = word_ending_at(before, before.len());
            if !INDEX_KEYWORDS.contains(&word) {
                out.push(at);
            }
        }
    }
    out
}

/// Panic-prone token count for one masked code line.
fn panic_tokens(code: &str) -> u64 {
    let mut n = 0u64;
    for word in ["unwrap", "unwrap_err", "expect", "expect_err"] {
        for at in word_positions(code, word) {
            if next_nonspace(code, at + word.len()) == Some('(') {
                n += 1;
            }
        }
    }
    for word in ["panic", "todo", "unimplemented"] {
        for at in word_positions(code, word) {
            if next_nonspace(code, at + word.len()) == Some('!') {
                n += 1;
            }
        }
    }
    n + index_expressions(code).len() as u64
}

/// True when a comment containing `needle` sits on line `at` or within
/// `window` lines above it.
fn comment_nearby(file: &SourceFile, at: usize, window: usize, needle: &str) -> bool {
    let lo = at.saturating_sub(window);
    file.lines[lo..=at]
        .iter()
        .any(|l| l.comment.contains(needle))
}

// ---------------------------------------------------------------- unsafe

fn rule_unsafe(files: &[SourceFile], policy: &Policy, diags: &mut Vec<Diagnostic>) {
    for file in files {
        let allowed = policy.unsafe_allowlist.contains(&file.rel);
        for (idx, line) in file.lines.iter().enumerate() {
            for at in word_positions(&line.code, "unsafe") {
                if !allowed {
                    diag(
                        diags,
                        &file.rel,
                        idx + 1,
                        "U001",
                        "`unsafe` outside the unsafe allowlist",
                        "unsafe is confined to the buffer pool; rewrite safely or extend \
                         Policy::unsafe_allowlist with a justification",
                    );
                    continue;
                }
                // `unsafe fn` declares obligations for callers; the proof
                // burden sits at the unsafe *block* / impl, which is what
                // needs the comment.
                let rest = &line.code[at + "unsafe".len()..];
                let next_word_is_fn = rest.trim_start().starts_with("fn")
                    && !rest.trim_start()[2..].chars().next().is_some_and(is_ident);
                if next_word_is_fn {
                    continue;
                }
                if !comment_nearby(file, idx, policy.safety_window, "SAFETY") {
                    diag(
                        diags,
                        &file.rel,
                        idx + 1,
                        "U002",
                        "`unsafe` without an adjacent `// SAFETY:` comment",
                        "state the invariant that makes this sound in a SAFETY comment \
                         directly above the block",
                    );
                }
            }
        }
    }
}

fn rule_forbid_attr(files: &[SourceFile], policy: &Policy, diags: &mut Vec<Diagnostic>) {
    for file in files {
        let Some(crate_dir) = crate_root_of(&file.rel) else {
            continue;
        };
        let exempt = policy
            .unsafe_allowlist
            .iter()
            .any(|p| p.starts_with(&format!("{crate_dir}/src/")));
        if exempt {
            continue;
        }
        let has_forbid = file.lines.iter().any(|l| {
            let squished: String = l.code.split_whitespace().collect();
            squished.contains("#![forbid(unsafe_code)]")
        });
        if !has_forbid {
            diag(
                diags,
                &file.rel,
                0,
                "U003",
                "crate root lacks `#![forbid(unsafe_code)]`",
                "only the buffer-pool crate may opt out; add the attribute at the top \
                 of the crate root",
            );
        }
    }
}

/// `Some("crates/foo")` when `rel` is `crates/foo/src/lib.rs`.
fn crate_root_of(rel: &str) -> Option<String> {
    let rest = rel.strip_prefix("crates/")?;
    let (name, tail) = rest.split_once('/')?;
    (tail == "src/lib.rs").then(|| format!("crates/{name}"))
}

// --------------------------------------------------------------- ratchet

/// Fresh per-file panic counts over the ratchet scope (zero-count files
/// omitted).
pub fn fresh_ratchet(files: &[SourceFile], policy: &Policy) -> Baseline {
    let mut out = Baseline::new();
    for file in files {
        if !policy.in_ratchet_scope(&file.rel) {
            continue;
        }
        let count: u64 = file.non_test().map(|(_, l)| panic_tokens(&l.code)).sum();
        if count > 0 {
            out.insert(file.rel.clone(), count);
        }
    }
    out
}

fn rule_ratchet(files: &[SourceFile], policy: &Policy, diags: &mut Vec<Diagnostic>) {
    let path = policy.root.join(&policy.ratchet_path);
    let baseline = match fs::read_to_string(&path) {
        Ok(content) => match ratchet::parse(&content) {
            Ok(b) => b,
            Err(e) => {
                diag(diags, &policy.ratchet_path, 0, "P002", e.0, "fix the baseline file");
                return;
            }
        },
        Err(_) => {
            diag(
                diags,
                &policy.ratchet_path,
                0,
                "P002",
                "panic-freedom baseline is missing",
                "run `cargo run -p rdb-lint -- --update-ratchet` and commit the result",
            );
            return;
        }
    };
    let fresh = fresh_ratchet(files, policy);
    let mut all: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for (f, n) in &fresh {
        all.entry(f).or_default().0 = *n;
    }
    for (f, n) in &baseline {
        all.entry(f).or_default().1 = *n;
    }
    for (file, (now, base)) in all {
        if now > base {
            diag(
                diags,
                file,
                0,
                "P001",
                format!("panic-prone tokens rose to {now} (baseline {base})"),
                "the ratchet only goes down: propagate a typed error instead of \
                 unwrap/expect/panic/indexing in scan layers",
            );
        } else if now < base {
            diag(
                diags,
                file,
                0,
                "P002",
                format!("baseline {base} is stale: fresh count is {now}"),
                "good burn-down! run `cargo run -p rdb-lint -- --update-ratchet` to \
                 lock in the lower count",
            );
        }
    }
}

// ----------------------------------------------------------- fallibility

fn rule_fallibility(files: &[SourceFile], policy: &Policy, diags: &mut Vec<Diagnostic>) {
    for file in files {
        if policy.is_planning(&file.rel) {
            for (idx, line) in file.non_test() {
                for token in ["try_access", "StorageError"] {
                    if !word_positions(&line.code, token).is_empty() {
                        diag(
                            diags,
                            &file.rel,
                            idx + 1,
                            "F001",
                            format!("planning module touches fallible storage (`{token}`)"),
                            "planning and estimation are infallible by contract; route \
                             fallible reads through the scan layer",
                        );
                    }
                }
            }
        }
        if policy.scan_entry_files.contains(&file.rel) {
            for sig in pub_fn_signatures(file) {
                let stem_match = ["step", "run", "execute"]
                    .iter()
                    .any(|s| sig.name == *s || sig.name.starts_with(&format!("{s}_")));
                if !stem_match {
                    continue;
                }
                if sig.text.contains("Result<") {
                    continue;
                }
                let exempt = policy
                    .scan_entry_exempt
                    .iter()
                    .any(|(f, n, _)| *f == file.rel && *n == sig.name);
                if !exempt {
                    diag(
                        diags,
                        &file.rel,
                        sig.line + 1,
                        "F002",
                        format!("scan entry point `{}` does not return `Result`", sig.name),
                        "data scans are fallible by contract (PR-2 fallibility split); \
                         return Result<_, StorageError> or add a justified exemption",
                    );
                }
            }
        }
    }
}

struct PubFnSig {
    /// 0-based line of the `pub fn`.
    line: usize,
    name: String,
    /// Signature text from `pub fn` to the body `{` or trailing `;`.
    text: String,
}

/// Extracts every non-test `pub fn` signature (joined across lines).
fn pub_fn_signatures(file: &SourceFile) -> Vec<PubFnSig> {
    let mut out = Vec::new();
    for (idx, line) in file.non_test() {
        for at in word_positions(&line.code, "fn") {
            let before = line.code[..at].trim_end();
            if !before.ends_with("pub") {
                continue;
            }
            let after = &line.code[at + 2..];
            let name: String = after
                .trim_start()
                .chars()
                .take_while(|c| is_ident(*c))
                .collect();
            if name.is_empty() {
                continue;
            }
            // Join lines until the body opens (or the item ends) to get
            // the whole signature, including multi-line returns.
            let mut text = String::new();
            'join: for l in &file.lines[idx..(idx + 40).min(file.lines.len())] {
                for c in l.code.chars() {
                    if c == '{' {
                        break 'join;
                    }
                    text.push(c);
                    if c == ';' {
                        break 'join;
                    }
                }
                text.push(' ');
            }
            out.push(PubFnSig {
                line: idx,
                name,
                text,
            });
        }
    }
    out
}

// --------------------------------------------------------------- atomics

const ATOMIC_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

fn rule_atomics(files: &[SourceFile], policy: &Policy, diags: &mut Vec<Diagnostic>) {
    for file in files {
        if !Policy::is_lib_code(&file.rel) {
            continue;
        }
        let allowed = policy.atomics_allowlist.contains(&file.rel);
        for (idx, line) in file.non_test() {
            for variant in ATOMIC_ORDERINGS {
                let needle = format!("Ordering::{variant}");
                for at in word_positions(&line.code, &needle) {
                    let _ = at;
                    if !allowed {
                        diag(
                            diags,
                            &file.rel,
                            idx + 1,
                            "A001",
                            format!("atomic `{needle}` outside the atomics allowlist"),
                            "atomics are confined to the cost meter, the buffer pool and \
                             the storage protocols behind them; use those abstractions \
                             instead",
                        );
                    } else if *variant == "Relaxed"
                        && !comment_nearby(file, idx, policy.relaxed_window, "Relaxed")
                    {
                        diag(
                            diags,
                            &file.rel,
                            idx + 1,
                            "A002",
                            "`Ordering::Relaxed` without an adjacent justification comment",
                            "say in a nearby comment why relaxed ordering is sound here \
                             (mention `Relaxed`)",
                        );
                    }
                }
            }
        }
    }
}

// -------------------------------------------------------------- deferred

/// Rules `D001`/`D002`: per-session deferred state (the thread-local
/// touch-and-charge buffers behind the buffer pool's lock-free hit path)
/// is confined to allowlisted modules, and every such module must pair its
/// `thread_local!` holder with a `Drop` guard — deferred *counters* must
/// be absorbed on every exit path (thread teardown included), or the
/// pool's `hits + misses == accesses` conservation property silently
/// breaks under concurrency.
fn rule_deferred(files: &[SourceFile], policy: &Policy, diags: &mut Vec<Diagnostic>) {
    for file in files {
        if !Policy::is_lib_code(&file.rel) {
            continue;
        }
        let allowed = policy.deferred_allowlist.contains(&file.rel);
        let mut uses_tls = false;
        for (idx, line) in file.non_test() {
            if !word_positions(&line.code, "thread_local").is_empty() {
                uses_tls = true;
                if !allowed {
                    diag(
                        diags,
                        &file.rel,
                        idx + 1,
                        "D001",
                        "`thread_local!` state outside the deferred-state allowlist",
                        "per-session deferred state is confined to the touch module;                          buffer through it or extend Policy::deferred_allowlist with a                          justification",
                    );
                }
            }
        }
        if allowed && uses_tls {
            // Matches both `impl Drop for T` and the generic
            // `impl<S: …> Drop for T<S>` form.
            let has_drop_guard = file
                .non_test()
                .any(|(_, l)| l.code.contains("impl") && l.code.contains("Drop for"));
            if !has_drop_guard {
                diag(
                    diags,
                    &file.rel,
                    0,
                    "D002",
                    "per-session deferred counters lack a `Drop` guard",
                    "deferred counters must be absorbed on every exit path: give the                      thread-local holder a Drop impl that lands its pending tally in                      the pool-shared counters",
                );
            }
        }
    }
}

// --------------------------------------------------------- sync protocol

/// One function's lexical extent: 0-based lines `[start, end]`, inclusive
/// of the `fn` line and the closing brace.
struct FnSpan {
    start: usize,
    end: usize,
}

/// Lexical spans of every `fn` that has a body, in source order. Nested
/// functions get their own (contained) span; use [`innermost`] to
/// attribute a line to the tightest enclosing function.
fn function_spans(file: &SourceFile) -> Vec<FnSpan> {
    let mut out = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        for at in word_positions(&line.code, "fn") {
            // Walk forward from the keyword to the body `{` (or give up
            // at a `;`: a bodyless trait-method declaration).
            let mut depth = 0i32;
            let mut pos = at + 2;
            let mut row = idx;
            let body = 'find: loop {
                let code = &file.lines[row].code;
                for c in code[pos.min(code.len())..].chars() {
                    match c {
                        '{' => break 'find Some(row),
                        ';' => break 'find None,
                        _ => {}
                    }
                }
                row += 1;
                pos = 0;
                if row >= file.lines.len() || row > idx + 40 {
                    break None;
                }
            };
            let Some(body_row) = body else { continue };
            // Brace-match from the body line to the function's end.
            let mut row = body_row;
            let mut opened = false;
            'scan: while row < file.lines.len() {
                for c in file.lines[row].code.chars() {
                    match c {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => {
                            depth -= 1;
                            if opened && depth == 0 {
                                break 'scan;
                            }
                        }
                        _ => {}
                    }
                }
                row += 1;
            }
            out.push(FnSpan {
                start: idx,
                end: row.min(file.lines.len() - 1),
            });
        }
    }
    out
}

/// Index of the tightest span containing `line`, if any.
fn innermost(spans: &[FnSpan], line: usize) -> Option<usize> {
    spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.start <= line && line <= s.end)
        .max_by_key(|(_, s)| s.start)
        .map(|(i, _)| i)
}

/// The receiver chain ending at byte offset `end` (exclusive): identifier
/// segments joined by `.`, index brackets included (`self.shards[i].state`).
fn receiver_chain(code: &str, end: usize) -> &str {
    let bytes = code.as_bytes();
    let mut start = end;
    while start > 0 {
        let c = bytes[start - 1] as char;
        if is_ident(c) || c == '.' || c == '[' || c == ']' {
            start -= 1;
        } else {
            break;
        }
    }
    &code[start..end]
}

/// The last identifier segment of a receiver chain (`state` for
/// `self.shards[i].state`), or `None` for an empty chain.
fn chain_tail(chain: &str) -> Option<&str> {
    let seg = chain.rsplit('.').next()?.trim_end_matches(['[', ']']);
    let seg: &str = seg.split('[').next().unwrap_or(seg);
    (!seg.is_empty() && seg.chars().all(is_ident)).then_some(seg)
}

/// The crate short-name of a workspace path (`storage` for
/// `crates/storage/src/…`), used to namespace lock nodes: lock names only
/// unify within one crate, since guards do not cross crate boundaries.
fn crate_short_name(rel: &str) -> &str {
    rel.strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("workspace")
}

/// One lock acquisition found by the lexical scan.
struct Acquisition {
    /// Namespaced lock node (`storage::state`).
    node: String,
    /// 0-based line.
    line: usize,
    /// `let`-bound guard: held from here to the end of the function
    /// (unless explicitly `drop`ped); a plain temporary is released at
    /// the end of its statement and never *holds*.
    let_bound: bool,
    /// The guard's binding name, for `drop(name)` release tracking.
    binding: Option<String>,
}

/// Guard-preserving adapters: chaining one of these onto a lock call
/// still binds the guard itself.
const GUARD_ADAPTERS: &[&str] = &["unwrap", "expect", "unwrap_or_else"];

/// Byte offset just past the `)` matching the `(` at `open`, same line
/// only.
fn close_paren(code: &str, open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (i, c) in code[open..].char_indices() {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(open + i + 1);
                }
            }
            _ => {}
        }
    }
    None
}

/// True when the expression continuing at `(row, pos)` ends the `let`
/// statement with the guard still bound: optional `unwrap`-family
/// adapters, then `;`. A chain that projects a field or calls anything
/// else consumes the guard within the statement (so the binding holds a
/// value, not the lock).
fn is_guard_stmt(file: &SourceFile, mut row: usize, mut pos: usize) -> bool {
    let limit = (row + 5).min(file.lines.len().saturating_sub(1));
    loop {
        let code = &file.lines[row].code;
        let from = pos.min(code.len());
        let Some(off) = code[from..].find(|c: char| !c.is_whitespace()) else {
            if row >= limit {
                return false;
            }
            row += 1;
            pos = 0;
            continue;
        };
        let at = from + off;
        match code[at..].chars().next() {
            Some(';') => return true,
            Some('?') => pos = at + 1,
            Some('.') => {
                let name: String = code[at + 1..]
                    .chars()
                    .take_while(|c| is_ident(*c))
                    .collect();
                if !GUARD_ADAPTERS.contains(&name.as_str()) {
                    return false;
                }
                let open = at + 1 + name.len();
                if next_nonspace(code, open) != Some('(') {
                    return false;
                }
                let open = open + code[open..].find('(').unwrap_or(0);
                match close_paren(code, open) {
                    Some(end) => pos = end,
                    None => return false,
                }
            }
            _ => return false,
        }
    }
}

/// Lock-acquisition sites on one masked code line: `recv.lock()` method
/// calls and `lock(&expr)` helper calls. `try_lock` is deliberately
/// ignored — it cannot block, so it forms no deadlock edge — and a line
/// containing a closure bar before the call is skipped (the definition
/// site acquires nothing).
fn lock_acquisitions(krate: &str, file: &SourceFile, idx: usize) -> Vec<Acquisition> {
    let code = &file.lines[idx].code;
    let mut out = Vec::new();
    let trimmed = code.trim_start();
    let is_let = trimmed.starts_with("let ");
    let binding = is_let.then(|| {
        trimmed["let ".len()..]
            .trim_start()
            .trim_start_matches("mut ")
            .chars()
            .take_while(|c| is_ident(*c))
            .collect::<String>()
    });
    for at in word_positions(code, "lock") {
        if next_nonspace(code, at + "lock".len()) != Some('(') {
            continue;
        }
        if code[..at].contains('|') {
            continue;
        }
        let before = code[..at].trim_end();
        let name = if before.ends_with('.') {
            // `recv.lock()`: the lock is the receiver's last segment.
            chain_tail(receiver_chain(code, before.len() - 1)).map(str::to_string)
        } else if before.ends_with("fn") {
            // A `fn lock(…)` definition, not an acquisition.
            None
        } else {
            // `lock(&expr)` helper: the lock is the argument's last
            // segment.
            let open = code[at..].find('(').map(|p| at + p + 1);
            open.and_then(|o| {
                let arg_end = code[o..].find(')').map_or(code.len(), |p| o + p);
                let arg = code[o..arg_end].trim().trim_start_matches(['&', '*']);
                chain_tail(arg).map(str::to_string)
            })
        };
        let Some(name) = name else { continue };
        let call_open = at + code[at..].find('(').unwrap_or(0);
        let let_bound = is_let
            && close_paren(code, call_open)
                .is_some_and(|end| is_guard_stmt(file, idx, end));
        out.push(Acquisition {
            node: format!("{krate}::{name}"),
            line: idx,
            let_bound,
            binding: binding.clone(),
        });
    }
    out
}

/// Rule `S001`: build the workspace's static lock-acquisition graph — an
/// edge `a → b` wherever a function acquires `b` while (lexically) still
/// holding `a` — and fail on any cycle, the classic deadlock shape. The
/// scan is intra-procedural and lexical: `let`-bound guards are assumed
/// held to the end of the function (or an explicit `drop`), temporaries
/// to the end of their statement.
fn rule_lock_order(files: &[SourceFile], diags: &mut Vec<Diagnostic>) {
    // (from, to) → first site.
    let mut edges: BTreeMap<(String, String), (String, usize)> = BTreeMap::new();
    for file in files {
        if !Policy::is_lib_code(&file.rel) {
            continue;
        }
        let krate = crate_short_name(&file.rel);
        let spans = function_spans(file);
        for (si, span) in spans.iter().enumerate() {
            // Held guards: (binding, node).
            let mut held: Vec<(Option<String>, String)> = Vec::new();
            for idx in span.start..=span.end {
                if file.test_mask[idx] || innermost(&spans, idx) != Some(si) {
                    continue;
                }
                let code = &file.lines[idx].code;
                // `drop(name)` releases the named guard early.
                for at in word_positions(code, "drop") {
                    if next_nonspace(code, at + "drop".len()) != Some('(') {
                        continue;
                    }
                    let open = at + code[at..].find('(').unwrap_or(0) + 1;
                    let arg: String = code[open..]
                        .trim_start()
                        .chars()
                        .take_while(|c| is_ident(*c))
                        .collect();
                    held.retain(|(b, _)| b.as_deref() != Some(arg.as_str()));
                }
                for acq in lock_acquisitions(krate, file, idx) {
                    for (_, h) in &held {
                        edges
                            .entry((h.clone(), acq.node.clone()))
                            .or_insert_with(|| (file.rel.clone(), acq.line + 1));
                    }
                    if acq.let_bound {
                        held.push((acq.binding.clone(), acq.node.clone()));
                    }
                }
            }
        }
    }
    for cycle in graph_cycles(&edges) {
        let parts: Vec<String> = cycle
            .iter()
            .map(|(from, to, file, line)| format!("{from} -> {to} ({file}:{line})"))
            .collect();
        let (_, _, file, line) = &cycle[0];
        diag(
            diags,
            file,
            *line,
            "S001",
            format!("lock-acquisition cycle: {}", parts.join(", ")),
            "pick one global acquisition order for these locks (or collapse them \
             into a single lock); a cycle in the static graph is the classic \
             deadlock shape",
        );
    }
}

/// Strongly-connected components with more than one node (or a self
/// edge), each reported as its sorted intra-component edge list.
#[allow(clippy::type_complexity)]
fn graph_cycles(
    edges: &BTreeMap<(String, String), (String, usize)>,
) -> Vec<Vec<(String, String, String, usize)>> {
    use std::collections::BTreeSet;
    let nodes: BTreeSet<&String> = edges.keys().flat_map(|(a, b)| [a, b]).collect();
    let index: BTreeMap<&String, usize> = nodes.iter().enumerate().map(|(i, n)| (*n, i)).collect();
    let names: Vec<&String> = nodes.into_iter().collect();
    let mut adj = vec![Vec::new(); names.len()];
    for (a, b) in edges.keys() {
        adj[index[a]].push(index[b]);
    }
    // Tarjan, iterative for determinism over sorted adjacency.
    let n = names.len();
    let (mut idx, mut low, mut on, mut order) = (vec![usize::MAX; n], vec![0; n], vec![false; n], 0);
    let mut stack = Vec::new();
    let mut comp = vec![usize::MAX; n];
    let mut ncomp = 0;
    for root in 0..n {
        if idx[root] != usize::MAX {
            continue;
        }
        let mut call = vec![(root, 0usize)];
        while let Some(&mut (v, ref mut ei)) = call.last_mut() {
            if *ei == 0 {
                idx[v] = order;
                low[v] = order;
                order += 1;
                stack.push(v);
                on[v] = true;
            }
            if let Some(&w) = adj[v].get(*ei) {
                *ei += 1;
                if idx[w] == usize::MAX {
                    call.push((w, 0));
                } else if on[w] {
                    low[v] = low[v].min(idx[w]);
                }
            } else {
                if low[v] == idx[v] {
                    while let Some(w) = stack.pop() {
                        on[w] = false;
                        comp[w] = ncomp;
                        if w == v {
                            break;
                        }
                    }
                    ncomp += 1;
                }
                call.pop();
                if let Some(&mut (u, _)) = call.last_mut() {
                    low[u] = low[u].min(low[v]);
                }
            }
        }
    }
    let mut cycles = Vec::new();
    for c in 0..ncomp {
        let members: Vec<usize> = (0..n).filter(|v| comp[*v] == c).collect();
        let cyclic = members.len() > 1
            || members
                .iter()
                .any(|&v| edges.contains_key(&(names[v].clone(), names[v].clone())));
        if !cyclic {
            continue;
        }
        let mut cycle_edges: Vec<(String, String, String, usize)> = edges
            .iter()
            .filter(|((a, b), _)| {
                comp[index[a]] == c && comp[index[b]] == c
            })
            .map(|((a, b), (f, l))| (a.clone(), b.clone(), f.clone(), *l))
            .collect();
        cycle_edges.sort();
        cycles.push(cycle_edges);
    }
    cycles
}

/// Rule `S002`: every mirror-slot store (`….mirror.set(…)` or
/// `….mirror.fill_vacant(…)`) must sit lexically between
/// `begin_write()` and `end_write()` in the same function, unless the
/// function is documented as running inside a caller's writer section
/// (a comment containing "writer section").
fn rule_writer_section(files: &[SourceFile], diags: &mut Vec<Diagnostic>) {
    const STORES: &[&str] = &["set", "fill_vacant"];
    for file in files {
        if !Policy::is_lib_code(&file.rel) {
            continue;
        }
        let spans = function_spans(file);
        for (si, span) in spans.iter().enumerate() {
            let doc_lo = span.start.saturating_sub(6);
            let exempt = file.lines[doc_lo..=span.end]
                .iter()
                .any(|l| l.comment.contains("writer section"));
            if exempt {
                continue;
            }
            let mut depth = 0i32;
            for idx in span.start..=span.end {
                if file.test_mask[idx] || innermost(&spans, idx) != Some(si) {
                    continue;
                }
                let code = &file.lines[idx].code;
                // Events in byte order: writer-section brackets and
                // mirror stores.
                let mut events: Vec<(usize, i32, bool)> = Vec::new();
                for at in word_positions(code, "begin_write") {
                    events.push((at, 1, false));
                }
                for at in word_positions(code, "end_write") {
                    events.push((at, -1, false));
                }
                for store in STORES {
                    for at in word_positions(code, store) {
                        if next_nonspace(code, at + store.len()) != Some('(') {
                            continue;
                        }
                        let before = code[..at].trim_end();
                        if !before.ends_with('.') {
                            continue;
                        }
                        let chain = receiver_chain(code, before.len() - 1);
                        let on_mirror = chain
                            .split('.')
                            .any(|seg| seg.split('[').next() == Some("mirror"));
                        if on_mirror {
                            events.push((at, 0, true));
                        }
                    }
                }
                events.sort_by_key(|e| e.0);
                for (_, delta, is_store) in events {
                    if is_store && depth <= 0 {
                        diag(
                            diags,
                            &file.rel,
                            idx + 1,
                            "S002",
                            "mirror-slot store outside a seqlock writer section",
                            "bracket the store with begin_write()/end_write(), or \
                             document the function as running inside a caller's \
                             writer section",
                        );
                    }
                    depth += delta;
                }
            }
        }
    }
}

/// Atomic method-call tokens rule `S003` looks for.
const ATOMIC_CALLS: &[&str] = &[
    ".load(",
    ".store(",
    ".fetch_add(",
    ".fetch_max(",
    ".fetch_min(",
    ".fetch_sub(",
    ".fetch_or(",
    ".fetch_and(",
    ".compare_exchange",
    ".swap(",
];

/// Field-name fragments whose atomics are facade-protected.
const PROTECTED_FIELDS: &[&str] = &["mirror", "published", "deferred", "tally"];

/// Rule `S003`: the protected concurrency fields — the seqlock mirror,
/// the WAL publication frontier, the deferred tallies — may be touched
/// with raw atomic operations only inside the designated Sync-facade
/// modules, where the protocol (and its model-checked twin) lives.
fn rule_facade_atomics(files: &[SourceFile], policy: &Policy, diags: &mut Vec<Diagnostic>) {
    for file in files {
        if !Policy::is_lib_code(&file.rel) || policy.facade_modules.contains(&file.rel) {
            continue;
        }
        for (idx, line) in file.non_test() {
            if !line.code.contains("Ordering::") {
                continue;
            }
            if !ATOMIC_CALLS.iter().any(|t| line.code.contains(t)) {
                continue;
            }
            if let Some(field) = PROTECTED_FIELDS.iter().find(|f| line.code.contains(**f)) {
                diag(
                    diags,
                    &file.rel,
                    idx + 1,
                    "S003",
                    format!("raw atomic on protected field `{field}` bypasses the Sync facade"),
                    "go through the facade modules (ProbeMirror / WalTail / \
                     DeferredCounters) so the model checker covers this access",
                );
            }
        }
    }
}

/// The `S` family: concurrency-protocol rules backing the `rdb-check`
/// model checker — what the checker verifies dynamically, these rules
/// pin structurally.
fn rule_sync_protocol(files: &[SourceFile], policy: &Policy, diags: &mut Vec<Diagnostic>) {
    rule_lock_order(files, diags);
    rule_writer_section(files, diags);
    rule_facade_atomics(files, policy, diags);
}

// --------------------------------------------------------------- hygiene

const PRINT_MACROS: &[&str] = &["println", "print", "eprintln", "eprint", "dbg"];

fn rule_hygiene(files: &[SourceFile], policy: &Policy, diags: &mut Vec<Diagnostic>) {
    for file in files {
        if let Some(_crate_dir) = crate_root_of(&file.rel) {
            let has_header = file
                .lines
                .iter()
                .take(10)
                .any(|l| l.comment.trim_start().starts_with("//!"));
            if !has_header {
                diag(
                    diags,
                    &file.rel,
                    0,
                    "H003",
                    "crate root has no `//!` doc header in its first 10 lines",
                    "open the crate with a module-level doc comment describing its role",
                );
            }
        }
        if !Policy::is_lib_code(&file.rel) {
            continue;
        }
        for sig in pub_fn_signatures(file) {
            if let Some(err_ty) = result_error_type(&sig.text) {
                if err_ty == "String" {
                    diag(
                        diags,
                        &file.rel,
                        sig.line + 1,
                        "H001",
                        format!("public fn `{}` returns `Result<_, String>`", sig.name),
                        "stringly-typed errors are unmatchable; define or reuse a typed \
                         error enum",
                    );
                }
            }
        }
        let print_allowed = policy.print_allowlist.contains(&file.rel);
        if print_allowed {
            continue;
        }
        for (idx, line) in file.non_test() {
            for mac in PRINT_MACROS {
                for at in word_positions(&line.code, mac) {
                    if next_nonspace(&line.code, at + mac.len()) == Some('!') {
                        diag(
                            diags,
                            &file.rel,
                            idx + 1,
                            "H002",
                            format!("`{mac}!` in library code"),
                            "library crates must not write to stdio; return data or use \
                             the trace sink",
                        );
                    }
                }
            }
        }
    }
}

/// The top-level error type of the *return type*'s `Result<…>`, if the
/// signature returns one.
fn result_error_type(sig: &str) -> Option<String> {
    let ret = sig.split("->").nth(1)?;
    let start = ret.find("Result<")?;
    let inner = &ret[start + "Result<".len()..];
    let mut depth = 1i32;
    let mut top_commas = Vec::new();
    let mut end = inner.len();
    for (i, c) in inner.char_indices() {
        match c {
            '<' | '(' | '[' => depth += 1,
            '>' | ')' | ']' => {
                depth -= 1;
                if depth == 0 {
                    end = i;
                    break;
                }
            }
            ',' if depth == 1 => top_commas.push(i),
            _ => {}
        }
    }
    let last_comma = *top_commas.last()?;
    Some(inner[last_comma + 1..end].trim().to_string())
}

// ------------------------------------------------------------ allowlists

/// Rule `X001`: every allowlist/exemption entry must still match something.
pub fn check_allowlists(files: &[SourceFile], policy: &Policy, diags: &mut Vec<Diagnostic>) {
    let find = |rel: &str| files.iter().find(|f| f.rel == rel);
    let stale = |diags: &mut Vec<Diagnostic>, entry: &str, what: &str| {
        diag(
            diags,
            entry,
            0,
            "X001",
            format!("stale allowlist entry: {what}"),
            "remove the dead exemption from crates/lint/src/policy.rs",
        );
    };
    for entry in &policy.unsafe_allowlist {
        match find(entry) {
            None => stale(diags, entry, "file no longer exists"),
            Some(f) => {
                let used = f
                    .lines
                    .iter()
                    .any(|l| !word_positions(&l.code, "unsafe").is_empty());
                if !used {
                    stale(diags, entry, "file no longer contains `unsafe`");
                }
            }
        }
    }
    for entry in &policy.atomics_allowlist {
        match find(entry) {
            None => stale(diags, entry, "file no longer exists"),
            Some(f) => {
                let used = f.lines.iter().any(|l| {
                    ATOMIC_ORDERINGS
                        .iter()
                        .any(|v| l.code.contains(&format!("Ordering::{v}")))
                });
                if !used {
                    stale(diags, entry, "file no longer uses atomic `Ordering`");
                }
            }
        }
    }
    for entry in &policy.deferred_allowlist {
        match find(entry) {
            None => stale(diags, entry, "file no longer exists"),
            Some(f) => {
                let used = f
                    .lines
                    .iter()
                    .any(|l| !word_positions(&l.code, "thread_local").is_empty());
                if !used {
                    stale(diags, entry, "file no longer declares `thread_local!` state");
                }
            }
        }
    }
    for entry in &policy.facade_modules {
        match find(entry) {
            None => stale(diags, entry, "facade module no longer exists"),
            Some(f) => {
                let used = f.lines.iter().any(|l| l.code.contains("Ordering"));
                if !used {
                    stale(diags, entry, "facade module no longer touches atomics");
                }
            }
        }
    }
    for entry in &policy.print_allowlist {
        match find(entry) {
            None => stale(diags, entry, "file no longer exists"),
            Some(f) => {
                let used = f.lines.iter().any(|l| {
                    PRINT_MACROS.iter().any(|m| {
                        word_positions(&l.code, m)
                            .iter()
                            .any(|at| next_nonspace(&l.code, at + m.len()) == Some('!'))
                    })
                });
                if !used {
                    stale(diags, entry, "file no longer prints");
                }
            }
        }
    }
    for (rel, name, _why) in &policy.scan_entry_exempt {
        match find(rel) {
            None => stale(diags, rel, "exempted file no longer exists"),
            Some(f) => {
                let still_needed = pub_fn_signatures(f)
                    .iter()
                    .any(|s| s.name == *name && !s.text.contains("Result<"));
                if !still_needed {
                    stale(
                        diags,
                        rel,
                        &format!("exemption for `{name}` no longer matches an infallible fn"),
                    );
                }
            }
        }
    }
    for entry in &policy.scan_entry_files {
        if find(entry).is_none() {
            stale(diags, entry, "scan-entry file no longer exists");
        }
    }
    for entry in &policy.planning_modules {
        let matches = files
            .iter()
            .any(|f| f.rel == *entry || (entry.ends_with('/') && f.rel.starts_with(entry.as_str())));
        if !matches {
            stale(diags, entry, "planning-module entry matches no file");
        }
    }
    for entry in &policy.ratchet_scope {
        let matches = files
            .iter()
            .any(|f| f.rel == *entry || (entry.ends_with('/') && f.rel.starts_with(entry.as_str())));
        if !matches {
            stale(diags, entry, "ratchet-scope entry matches no file");
        }
    }
    if let Ok(content) = fs::read_to_string(policy.root.join(&policy.ratchet_path)) {
        if let Ok(baseline) = ratchet::parse(&content) {
            for file in baseline.keys() {
                if find(file).is_none() {
                    stale(diags, file, "baseline entry for a file that no longer exists");
                } else if !policy.in_ratchet_scope(file) {
                    stale(diags, file, "baseline entry outside the ratchet scope");
                }
            }
        }
    }
}
