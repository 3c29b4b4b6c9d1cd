//! Integration tests driving the full analysis engine over seeded
//! fixture files (`tests/fixtures/`), presented to the engine under
//! fake in-tree paths so crate-scoped rules (lock order, atomics)
//! apply. Each fixture is either a seeded violation the engine must
//! reject with a precise diagnostic, or a false-positive corpus it
//! must stay silent on.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use xtask::engine::analyze;
use xtask::rules::Finding;

fn analyze_as(rel: &str, fixture: &str) -> Vec<Finding> {
    let src = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures")
            .join(fixture),
    )
    .expect("fixture file");
    analyze(&[(rel.to_string(), src)]).findings
}

#[test]
fn lock_order_inversion_is_rejected_naming_both_sites() {
    let findings = analyze_as("crates/core/src/fixture.rs", "lock_order_inversion.rs");
    let violation = findings
        .iter()
        .find(|f| f.rule == "lock-order")
        .expect("the inverted acquisition must produce a lock-order finding");
    assert_eq!(violation.function, "inverted");
    // Both locks, both acquisition sites.
    assert!(
        violation.message.contains("`catalog`") && violation.message.contains("`wal`"),
        "must name both locks: {}",
        violation.message
    );
    assert!(
        violation.message.contains("line 15") && violation.message.contains("line 16"),
        "must name both acquisition sites: {}",
        violation.message
    );
    assert!(
        violation.message.contains("merge → commit → wal → catalog"),
        "must cite the documented hierarchy: {}",
        violation.message
    );
}

#[test]
fn lock_order_inversion_outside_core_is_not_checked() {
    // The hierarchy is per-crate; a non-core crate has no documented
    // order for these names, so the same source is silent there.
    let findings = analyze_as("crates/btree/src/fixture.rs", "lock_order_inversion.rs");
    assert!(
        findings.iter().all(|f| f.rule != "lock-order"),
        "no hierarchy applies outside core/memtable/server: {findings:?}"
    );
}

#[test]
fn fsync_under_lock_is_rejected() {
    let findings = analyze_as("crates/core/src/fixture.rs", "fsync_under_lock.rs");
    let cost = findings
        .iter()
        .find(|f| f.rule == "critical-section-cost")
        .expect("sync_all under a live guard must be flagged");
    assert_eq!(cost.function, "checkpoint");
    assert!(
        cost.message.contains("durable-write call") && cost.message.contains("`state`"),
        "must say what and under which guard: {}",
        cost.message
    );
}

#[test]
fn comment_and_string_patterns_produce_no_findings() {
    let findings = analyze_as("crates/core/src/fixture.rs", "comment_string_fps.rs");
    assert!(
        findings.is_empty(),
        "telltales in comments/strings must not fire: {findings:?}"
    );
}

#[test]
fn destructured_guards_are_tracked() {
    let findings = analyze_as("crates/core/src/fixture.rs", "destructured_guard.rs");
    let by_fn: Vec<&str> = findings
        .iter()
        .filter(|f| f.rule == "guard-across-merge")
        .map(|f| f.function.as_str())
        .collect();
    assert!(
        by_fn.contains(&"tuple_bound"),
        "tuple-destructured guard missed: {findings:?}"
    );
    assert!(
        by_fn.contains(&"if_let_bound"),
        "if-let guard missed: {findings:?}"
    );
    assert!(
        !by_fn.contains(&"dropped_before_is_clean"),
        "guard dropped before the merge call must not be flagged: {findings:?}"
    );
}

#[test]
fn copies_in_the_buffer_pool_are_read_path_findings() {
    // The pool's miss path is read path: a copy there is a finding, one
    // in its test module is not, and other storage modules are exempt.
    let src = "fn miss(dst: &mut [u8], src: &[u8]) { dst.copy_from_slice(src); }\n\
               #[cfg(test)]\n\
               mod tests { fn t(a: &mut [u8]) { a.copy_from_slice(&[0]); } }\n";
    let read_path_fns = |rel: &str| -> Vec<String> {
        analyze(&[(rel.to_string(), src.to_string())])
            .findings
            .into_iter()
            .filter(|f| f.rule == "alloc-in-read-path")
            .map(|f| f.function)
            .collect()
    };
    assert_eq!(read_path_fns("crates/storage/src/buffer.rs"), ["miss"]);
    assert!(read_path_fns("crates/storage/src/wal.rs").is_empty());
}
