//! `lock-order`: the may-hold-while-acquiring graph for `crates/core`,
//! `crates/memtable` and `crates/server`, checked against the
//! documented lock hierarchy (DESIGN.md §14/§15 are the normative
//! references).
//!
//! For every non-test function the guard-liveness walk yields the set
//! of locks held at each acquisition; each `(held, acquired)` pair is
//! an edge. One level of intra-crate call propagation is added: a call
//! made while holding lock `a` into a function that directly acquires
//! lock `b` contributes the edge `a → b` labeled with the callee.
//! `CatalogCell::load`/`store` on a `catalog` receiver count as
//! acquisitions of the `catalog` lock (the cell's `inner` RwLock is
//! aliased to `catalog`); `.load`/`.store` on known atomic fields are
//! filtered out so atomics don't masquerade as catalog accesses.
//!
//! Failures: an edge against the documented order, a reentrant edge
//! (`a` while holding `a`), an edge touching a lock missing from the
//! hierarchy (forces DESIGN.md §14 maintenance), or any cycle.

use std::collections::{BTreeMap, BTreeSet};

use super::{Finding, FnSummary};

/// The documented lock hierarchy per crate, outermost first. An edge
/// `a → b` is legal iff `a` appears strictly before `b`.
fn hierarchy(krate: &str) -> &'static [&'static str] {
    match krate {
        // DESIGN.md §14: merge01 → merge12 → merge → commit → wal →
        // catalog → pending. (`merge01`/`merge12` are the two
        // merge drivers and `merge` is what both install through; a
        // `C0:C1` pass that rotates `C1` may start the `C1':C2` merge, so
        // `merge01` comes first. `pending` is a doorbell's lock: each
        // merge thread's (`bell01`, `bell12`) and the hard cap's
        // (`bell_cap`, which writers over the cap park on and the
        // `C0:C1` drain rings under `merge01`).)
        // (`commit` is the group-commit election state,
        // DESIGN.md §18: a tiny bookkeeping mutex the leader drops
        // before any I/O or `wal` acquisition. Its slot between `merge`
        // and `wal` makes the leader-side direction the legal one if an
        // edge ever forms; taking `commit` while holding `wal` would
        // deadlock the election and is an inversion.)
        // (`tree` and `c0` left the hierarchy in the concurrent-C0
        // refactor: the tree-wide mutex became the merge-plane locks
        // above and C0 became internally synchronized — its `pass` /
        // `tables` locks are checked under the `memtable` crate below.
        // `recovery` left when the write-once report became a
        // `OnceLock`, which no code path holds.)
        // The sharded serving tier (DESIGN.md §16) deliberately adds
        // nothing here: `ShardedBLsm`'s routing table is immutable after
        // open and its shard-manifest `ManifestStore` is a plain field
        // mutated only through `&mut self` (open / checkpoint /
        // shutdown), so cross-shard lock edges cannot exist by
        // construction. A lock appearing in `sharded.rs` or `route.rs`
        // must be argued into §14/§16 and this table together.
        "core" => &[
            "merge01", "merge12", "merge", "commit", "wal", "catalog", "pending",
        ],
        // DESIGN.md §15: the pass lock wraps per-shard table locks; no
        // C0 code path may take `pass` while holding any shard's
        // `tables` lock.
        "memtable" => &["pass", "tables"],
        // The server serves from pinned ReadViews and applies writes
        // through `&self` engine calls; its own locks are two leaf
        // mutexes that are never held while acquiring anything else —
        // which is why the hierarchy below stays empty (the rule fires
        // on hold-while-acquiring edges, and these must never grow
        // one): per-reactor `inbox` (accept thread hands off sockets)
        // and the committer's `pending` signal (paired with its
        // condvar). A failed commit group is the engine's own failure
        // epoch, which reactors read (DESIGN.md §11, §18).
        // The shard router keeps it that way: immutable boundaries plus
        // per-shard `AdmissionController`s (atomic counters only), so
        // routing a request acquires no lock on any path (DESIGN.md
        // §16). The replicated tier (DESIGN.md §17) extends the same
        // invariant: `replication.rs` is atomics-only by design —
        // `ReplState` (epoch/role/cursor/acks) carries an `// ordering:`
        // comment per atomic, the commit gate spins on peer-ack LSNs
        // without blocking on any mutex, and shipper threads hold only
        // the repl state plus a `ReadView` of the engine. A lock
        // appearing anywhere in the server crate must be argued into
        // DESIGN.md §14 and this table together.
        _ => &[],
    }
}

/// Canonical lock name for a raw receiver identifier in `rel`. The
/// catalog cell's `inner` RwLock *is* the catalog lock.
pub fn lock_alias(rel: &str, raw: &str) -> String {
    if raw == "inner" && rel.ends_with("core/src/catalog.rs") {
        "catalog".to_string()
    } else {
        raw.to_string()
    }
}

/// One hold-while-acquiring edge with its acquisition sites.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Edge {
    from: String,
    to: String,
    file: String,
    function: String,
    from_line: usize,
    to_line: usize,
    /// Propagated edges carry the callee name.
    via: Option<String>,
}

/// Checks one crate's functions against the documented hierarchy.
/// `atomic_fields` are the crate's known atomic field names, used to
/// keep `shutdown.load(…)` from reading as a catalog access.
pub fn check(
    krate: &str,
    fns: &[(String, FnSummary)],
    atomic_fields: &BTreeSet<String>,
) -> Vec<Finding> {
    let order = hierarchy(krate);
    let rank = |lock: &str| order.iter().position(|l| *l == lock);

    // Direct acquisitions per function name (for call propagation).
    let mut fn_locks: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (_, f) in fns.iter().filter(|(_, f)| !f.is_test) {
        let entry = fn_locks.entry(f.name.as_str()).or_default();
        for a in &f.acquires {
            entry.insert(a.lock.as_str());
        }
        for c in &f.calls {
            if is_catalog_cell_access(c, atomic_fields) {
                entry.insert("catalog");
            }
        }
    }

    let mut edges: BTreeSet<Edge> = BTreeSet::new();
    for (file, f) in fns.iter().filter(|(_, f)| !f.is_test) {
        for a in &f.acquires {
            for h in &a.held {
                edges.insert(Edge {
                    from: h.lock.clone(),
                    to: a.lock.clone(),
                    file: file.clone(),
                    function: f.name.clone(),
                    from_line: h.line,
                    to_line: a.line,
                    via: None,
                });
            }
        }
        for c in &f.calls {
            if c.held.is_empty() {
                continue;
            }
            // Atomic accesses are not lock traffic.
            if let Some(recv) = &c.recv_last {
                if atomic_fields.contains(recv) {
                    continue;
                }
            }
            if is_catalog_cell_access(c, atomic_fields) {
                for h in &c.held {
                    edges.insert(Edge {
                        from: h.lock.clone(),
                        to: "catalog".to_string(),
                        file: file.clone(),
                        function: f.name.clone(),
                        from_line: h.line,
                        to_line: c.line,
                        via: None,
                    });
                }
                continue;
            }
            // One-level propagation into same-crate functions. `load`/
            // `store` are never propagated by name: outside a catalog
            // receiver they are almost always atomics. Likewise the
            // container-accessor names: `map.get(…)`/`.len()`/
            // `.is_empty()` on a collection held under a lock would
            // otherwise alias any same-crate lock-taking method that
            // shares the idiomatic name (e.g. `ConcurrentC0::get`).
            if matches!(
                c.name.as_str(),
                "load" | "store" | "get" | "len" | "is_empty"
            ) {
                continue;
            }
            let Some(locks) = fn_locks.get(c.name.as_str()) else {
                continue;
            };
            if c.name == f.name {
                continue; // direct recursion adds no new pairs
            }
            for lock in locks {
                for h in &c.held {
                    edges.insert(Edge {
                        from: h.lock.clone(),
                        to: (*lock).to_string(),
                        file: file.clone(),
                        function: f.name.clone(),
                        from_line: h.line,
                        to_line: c.line,
                        via: Some(c.name.clone()),
                    });
                }
            }
        }
    }

    let mut findings = Vec::new();
    let mut reported: BTreeSet<(String, String, String)> = BTreeSet::new();
    for e in &edges {
        let key = (e.function.clone(), e.from.clone(), e.to.clone());
        if !reported.insert(key) {
            continue;
        }
        let via = e
            .via
            .as_ref()
            .map(|v| format!(" — via call to `{v}`"))
            .unwrap_or_default();
        if e.from == e.to {
            findings.push(Finding {
                rule: "lock-order",
                file: e.file.clone(),
                line: e.to_line,
                function: e.function.clone(),
                message: format!(
                    "reentrant acquisition: takes `{}` (line {}) while already holding \
                     `{}` (acquired line {}){via}; parking_lot locks are not reentrant",
                    e.to, e.to_line, e.from, e.from_line
                ),
            });
            continue;
        }
        match (rank(&e.from), rank(&e.to)) {
            (Some(rf), Some(rt)) if rf > rt => {
                findings.push(Finding {
                    rule: "lock-order",
                    file: e.file.clone(),
                    line: e.to_line,
                    function: e.function.clone(),
                    message: format!(
                        "lock-order violation: acquires `{}` (line {}) while holding \
                         `{}` (acquired line {}){via}; the documented hierarchy \
                         ({}) puts `{}` before `{}` (DESIGN.md §14)",
                        e.to,
                        e.to_line,
                        e.from,
                        e.from_line,
                        hierarchy_text(order),
                        e.to,
                        e.from
                    ),
                });
            }
            (Some(_), Some(_)) => {}
            _ => {
                let unknown = if rank(&e.from).is_none() {
                    &e.from
                } else {
                    &e.to
                };
                findings.push(Finding {
                    rule: "lock-order",
                    file: e.file.clone(),
                    line: e.to_line,
                    function: e.function.clone(),
                    message: format!(
                        "lock `{unknown}` (edge `{}` → `{}`, lines {} → {}){via} is not \
                         in the documented {krate} lock hierarchy ({}); update \
                         DESIGN.md §14 and this check's order table together",
                        e.from,
                        e.to,
                        e.from_line,
                        e.to_line,
                        hierarchy_text(order)
                    ),
                });
            }
        }
    }

    findings.extend(find_cycles(&edges));
    findings
}

/// `CatalogCell::load()`/`store(next)` on a `catalog`-named receiver.
fn is_catalog_cell_access(c: &super::CallRec, atomic_fields: &BTreeSet<String>) -> bool {
    if !c.is_method || !matches!(c.name.as_str(), "load" | "store") {
        return false;
    }
    match &c.recv_last {
        Some(recv) => recv == "catalog" && !atomic_fields.contains(recv),
        None => false,
    }
}

fn hierarchy_text(order: &[&str]) -> String {
    if order.is_empty() {
        "empty — no locks are documented for this crate".to_string()
    } else {
        order.join(" → ")
    }
}

/// DFS cycle detection over the edge set; reports each distinct cycle
/// (by node set) once, anchored at one of its edges' sites.
fn find_cycles(edges: &BTreeSet<Edge>) -> Vec<Finding> {
    let mut adj: BTreeMap<&str, Vec<&Edge>> = BTreeMap::new();
    for e in edges {
        adj.entry(e.from.as_str()).or_default().push(e);
    }
    let mut findings = Vec::new();
    let mut seen_cycles: BTreeSet<BTreeSet<String>> = BTreeSet::new();
    let nodes: BTreeSet<&str> = edges
        .iter()
        .flat_map(|e| [e.from.as_str(), e.to.as_str()])
        .collect();
    for start in nodes {
        let mut stack: Vec<(&str, usize)> = vec![(start, 0)];
        let mut path: Vec<&Edge> = Vec::new();
        let mut on_path: Vec<&str> = vec![start];
        while let Some((node, next_i)) = stack.pop() {
            let out = adj.get(node).map(Vec::as_slice).unwrap_or_default();
            if next_i >= out.len() {
                path.pop();
                on_path.pop();
                continue;
            }
            stack.push((node, next_i + 1));
            let e = out[next_i];
            if e.to == start && (!path.is_empty() || e.from == start) {
                // Closing the cycle back at `start`.
                let mut cycle: Vec<String> = path.iter().map(|p| p.from.clone()).collect();
                cycle.push(e.from.clone());
                let nodeset: BTreeSet<String> = cycle.iter().cloned().collect();
                if seen_cycles.insert(nodeset) {
                    let chain: Vec<String> = cycle
                        .iter()
                        .chain(std::iter::once(&e.to))
                        .cloned()
                        .collect();
                    findings.push(Finding {
                        rule: "lock-order",
                        file: e.file.clone(),
                        line: e.to_line,
                        function: e.function.clone(),
                        message: format!(
                            "lock-order cycle: {} (closing edge acquired at line {} \
                             while holding `{}` from line {})",
                            chain.join(" → "),
                            e.to_line,
                            e.from,
                            e.from_line
                        ),
                    });
                }
            } else if !on_path.contains(&e.to.as_str()) && e.to != start {
                path.push(e);
                on_path.push(e.to.as_str());
                stack.push((e.to.as_str(), 0));
            }
        }
    }
    findings
}
