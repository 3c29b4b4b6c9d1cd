//! Lint rules over the token/syntax engine.
//!
//! Each submodule implements one analysis family:
//!
//! - [`simple`] — token-scan rules: `relaxed-atomic`,
//!   `stringly-corruption`, `alloc-in-read-path`.
//! - [`condvar`] — `condvar-wait-loop` (wait must sit under a loop).
//! - [`docs`] — `storage-errors-doc` (`# Errors` sections on public
//!   `Result` functions in `blsm-storage`).
//! - [`guards`] — the guard-liveness rules: `guard-across-merge`,
//!   `blocking-io-under-lock`, `critical-section-cost`.
//! - [`lock_order`] — the may-hold-while-acquiring graph for
//!   `crates/core` and `crates/server`, checked against the documented
//!   lock hierarchy (DESIGN.md §14).
//! - [`atomics`] — the atomics inventory: every `AtomicX` field carries
//!   a `// ordering:` annotation, checked against use sites.
//! - [`citations`] — `design-test-citation` (every `module::tests::name`
//!   DESIGN.md cites still exists).
//!
//! This module owns the shared [`Finding`] type and the per-function
//! event collection ([`collect_fns`]) that turns the guard-liveness
//! walk into owned records the per-file and per-crate rules consume.

pub mod atomics;
pub mod citations;
pub mod condvar;
pub mod docs;
pub mod guards;
pub mod lock_order;
pub mod simple;

use std::fmt;

use crate::syntax::{Block, BlockKind, SourceFile};
use crate::walker::{walk_fn, WalkEvent};

/// A single lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule identifier (what `xtask-lint.allow` keys on).
    pub rule: &'static str,
    /// Workspace-relative file path, `/`-separated.
    pub file: String,
    /// 1-based line of the finding.
    pub line: usize,
    /// Enclosing function name, or `<file scope>`.
    pub function: String,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] in `{}`: {}",
            self.file, self.line, self.rule, self.function, self.message
        )
    }
}

/// Is this path non-library code where the rules don't apply?
pub fn is_test_like(rel: &str) -> bool {
    rel.starts_with("tests/")
        || rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.starts_with("examples/")
        || rel.contains("/examples/")
}

/// One live lock hold, as recorded at an event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeldRec {
    /// Canonical lock name.
    pub lock: String,
    /// Guard binding name, if `let`-bound.
    pub guard: Option<String>,
    /// Line of the acquisition.
    pub line: usize,
}

/// A lock acquisition inside a function, with the held set at that point.
#[derive(Debug, Clone)]
pub struct AcqRec {
    /// Canonical lock name.
    pub lock: String,
    /// 1-based line.
    pub line: usize,
    /// Locks already held when this one is acquired.
    pub held: Vec<HeldRec>,
}

/// A call inside a function, with the held set at that point.
#[derive(Debug, Clone)]
pub struct CallRec {
    /// Callee identifier.
    pub name: String,
    /// `recv.name(…)` vs `name(…)`.
    pub is_method: bool,
    /// Last plain identifier of a method receiver chain.
    pub recv_last: Option<String>,
    /// For `Path::name(…)` calls, the identifier before the `::`.
    pub path_prefix: Option<String>,
    /// Whether the argument list is non-empty.
    pub has_args: bool,
    /// 1-based line.
    pub line: usize,
    /// Whether the call sits under a loop block.
    pub in_loop: bool,
    /// `Ordering::X` identifiers appearing in the argument list (only
    /// populated for atomic-access methods).
    pub arg_orderings: Vec<String>,
    /// Locks held when the call happens.
    pub held: Vec<HeldRec>,
}

/// The guard-liveness summary of one function.
#[derive(Debug, Clone)]
pub struct FnSummary {
    /// Function name.
    pub name: String,
    /// Whether the function is test code (test-like path or
    /// `#[cfg(test)]` module).
    pub is_test: bool,
    /// Every acquisition, in source order.
    pub acquires: Vec<AcqRec>,
    /// Every other call, in source order.
    pub calls: Vec<CallRec>,
}

/// The memory-ordering identifiers of `std::sync::atomic::Ordering`.
pub const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Methods whose arguments carry `Ordering` values (atomic accesses).
pub const ATOMIC_METHODS: &[&str] = &[
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

/// Runs the guard-liveness walk over every function of `sf`, returning
/// owned per-function summaries. `alias` canonicalizes raw lock names
/// (e.g. `inner` → `catalog` inside `catalog.rs`).
pub fn collect_fns(
    sf: &SourceFile<'_>,
    file_is_test: bool,
    alias: &dyn Fn(&str) -> String,
) -> Vec<FnSummary> {
    let mut out = Vec::new();
    for (block, in_test_mod) in sf.functions() {
        let BlockKind::Fn { name, .. } = &block.kind else {
            continue;
        };
        // Ranges of nested fn items, whose events belong to *them*.
        let mut nested: Vec<(usize, usize)> = Vec::new();
        collect_nested_fn_ranges(block, &mut nested);

        let mut summary = FnSummary {
            name: name.clone(),
            is_test: file_is_test || in_test_mod,
            acquires: Vec::new(),
            calls: Vec::new(),
        };
        walk_fn(
            sf,
            block.open_ci,
            block.close_ci,
            alias,
            &mut |event| match event {
                WalkEvent::Acquire { site, held } => {
                    if nested.iter().any(|&(a, b)| site.ci > a && site.ci < b) {
                        return;
                    }
                    summary.acquires.push(AcqRec {
                        lock: site.lock.clone(),
                        line: site.line,
                        held: held_recs(held),
                    });
                }
                WalkEvent::Call { site, held } => {
                    if nested.iter().any(|&(a, b)| site.ci > a && site.ci < b) {
                        return;
                    }
                    let path_prefix = (!site.is_method
                        && site.ci >= 3
                        && sf.text(site.ci - 1) == ":"
                        && sf.text(site.ci - 2) == ":"
                        && sf.kind(site.ci - 3) == crate::lexer::TokenKind::Ident)
                        .then(|| sf.text(site.ci - 3).to_string());
                    let arg_orderings = if ATOMIC_METHODS.contains(&site.name.as_str()) {
                        let close = sf.matching_close(site.ci + 1);
                        ((site.ci + 2)..close)
                            .filter(|&ci| {
                                sf.kind(ci) == crate::lexer::TokenKind::Ident
                                    && ORDERINGS.contains(&sf.text(ci))
                            })
                            .map(|ci| sf.text(ci).to_string())
                            .collect()
                    } else {
                        Vec::new()
                    };
                    summary.calls.push(CallRec {
                        name: site.name.clone(),
                        is_method: site.is_method,
                        recv_last: site.recv_last.clone(),
                        path_prefix,
                        has_args: site.has_args,
                        line: site.line,
                        in_loop: sf.in_loop(site.ci),
                        arg_orderings,
                        held: held_recs(held),
                    });
                }
            },
        );
        out.push(summary);
    }
    out
}

fn held_recs(held: &[crate::walker::Held]) -> Vec<HeldRec> {
    held.iter()
        .map(|h| HeldRec {
            lock: h.lock.clone(),
            guard: h.guard.clone(),
            line: h.line,
        })
        .collect()
}

fn collect_nested_fn_ranges(block: &Block, out: &mut Vec<(usize, usize)>) {
    for child in &block.children {
        if matches!(child.kind, BlockKind::Fn { .. }) {
            out.push((child.open_ci, child.close_ci));
        } else {
            collect_nested_fn_ranges(child, out);
        }
    }
}
