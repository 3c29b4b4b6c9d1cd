//! `design-test-citation`: every `module::tests::name` DESIGN.md cites
//! names a test that still exists — a `fn name` inside the
//! `#[cfg(test)]` module of a workspace file `module.rs`. A design note
//! that points at a deleted or renamed test is a claim nobody checks
//! any more.

use std::collections::BTreeSet;

use crate::syntax::{BlockKind, SourceFile};

use super::Finding;

/// Checks the citations in `design` (DESIGN.md's text) against the
/// unit tests defined in `files` (`(rel-path, source)` pairs).
pub fn check(design: &str, files: &[(String, String)]) -> Vec<Finding> {
    let cited: Vec<(usize, &str, &str)> = design
        .lines()
        .enumerate()
        .flat_map(|(i, line)| citations(line).map(move |(m, t)| (i + 1, m, t)))
        .collect();
    if cited.is_empty() {
        return Vec::new();
    }
    // (module stem, test fn name) for every fn in a `#[cfg(test)]` mod.
    let mut tests = BTreeSet::new();
    for (rel, source) in files {
        let Some(stem) = rel.rsplit('/').next().and_then(|f| f.strip_suffix(".rs")) else {
            continue;
        };
        let sf = SourceFile::parse(source);
        for (block, in_test) in sf.functions() {
            if let (BlockKind::Fn { name, .. }, true) = (&block.kind, in_test) {
                tests.insert((stem.to_string(), name.clone()));
            }
        }
    }
    cited
        .into_iter()
        .filter(|(_, module, test)| !tests.contains(&(module.to_string(), test.to_string())))
        .map(|(line, module, test)| Finding {
            rule: "design-test-citation",
            file: "DESIGN.md".to_string(),
            line,
            function: test.to_string(),
            message: format!(
                "cites `{module}::tests::{test}`, but no `{module}.rs` has a test `{test}`"
            ),
        })
        .collect()
}

/// The `(module, test)` pairs of every `module::tests::test` in `line`.
fn citations(line: &str) -> impl Iterator<Item = (&str, &str)> {
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    line.match_indices("::tests::")
        .filter_map(move |(at, sep)| {
            let before = &line[..at];
            let module = &before[before.trim_end_matches(is_ident).len()..];
            let after = &line[at + sep.len()..];
            let test = &after[..after.len() - after.trim_start_matches(is_ident).len()];
            (!module.is_empty() && !test.is_empty()).then_some((module, test))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn files() -> Vec<(String, String)> {
        let src = "fn helper() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn kept() {}\n}\n";
        vec![("crates/a/src/plane.rs".to_string(), src.to_string())]
    }

    #[test]
    fn a_live_citation_passes_and_a_stale_one_is_named() {
        let design = "Pinned by `plane::tests::kept`.\n\
                      See `plane::tests::gone` and `plane::tests::helper`.\n";
        let found = check(design, &files());
        let named: Vec<(usize, &str)> = found
            .iter()
            .map(|f| (f.line, f.function.as_str()))
            .collect();
        assert_eq!(named, [(2, "gone"), (2, "helper")]);
        assert!(found.iter().all(|f| f.rule == "design-test-citation"));
    }

    #[test]
    fn the_module_must_match() {
        let found = check("`merge::tests::kept`", &files());
        assert_eq!(found.len(), 1);
    }
}
