//! Token-scan rules: `relaxed-atomic`, `stringly-corruption`,
//! `alloc-in-read-path`.
//!
//! These match fixed token shapes rather than guard state, but unlike
//! the old line-regex engine they operate on *code tokens only* — an
//! `Ordering::Relaxed` in a comment or a `".wait("` inside a string
//! literal can no longer trigger them, and test modules are excluded
//! structurally rather than by per-line stack tracking.

use crate::lexer::TokenKind;
use crate::syntax::SourceFile;

use super::{is_test_like, Finding};

/// The modules whose non-test code is the point-lookup / scan hot path,
/// where the zero-copy invariant is enforced: the sstable read modules
/// and the buffer pool, whose misses read into a page buffer in place.
fn is_read_path_module(rel: &str) -> bool {
    matches!(
        rel,
        "crates/sstable/src/format.rs"
            | "crates/sstable/src/table.rs"
            | "crates/sstable/src/iter.rs"
            | "crates/storage/src/buffer.rs"
    )
}

/// Runs the three token-scan rules over one file.
pub fn check(rel: &str, sf: &SourceFile<'_>) -> Vec<Finding> {
    let mut findings = Vec::new();
    let file_test = is_test_like(rel);
    let in_lib = rel.starts_with("crates/") && rel.contains("/src/");
    let read_path = is_read_path_module(rel);

    for ci in 0..sf.len() {
        if sf.kind(ci) != TokenKind::Ident {
            continue;
        }
        let in_test = file_test || sf.in_test_mod(ci);
        if in_test {
            continue;
        }
        let text = sf.text(ci);

        // relaxed-atomic: the code-token sequence `Ordering :: Relaxed`.
        if text == "Relaxed"
            && ci >= 3
            && sf.text(ci - 1) == ":"
            && sf.text(ci - 2) == ":"
            && sf.is_ident(ci - 3, "Ordering")
        {
            findings.push(Finding {
                rule: "relaxed-atomic",
                file: rel.to_string(),
                line: sf.line(ci),
                function: sf.enclosing_fn(ci),
                message: "Ordering::Relaxed on shared state; pick an ordering deliberately \
                          (or allowlist with the audit reason)"
                    .to_string(),
            });
        }

        // stringly-corruption: `InvalidFormat` in code with a corruption
        // telltale in the same line's code or string literals (comments
        // deliberately do not count — that was a known FP class).
        if in_lib && text == "InvalidFormat" {
            let line = sf.line(ci);
            let told = same_line_nontrivia_text(sf, line)
                .into_iter()
                .find_map(|chunk| {
                    let lower = chunk.to_lowercase();
                    ["corrupt", "checksum", "crc", "torn"]
                        .into_iter()
                        .find(|w| lower.contains(w))
                });
            if let Some(word) = told {
                findings.push(Finding {
                    rule: "stringly-corruption",
                    file: rel.to_string(),
                    line,
                    function: sf.enclosing_fn(ci),
                    message: format!(
                        "stringly corruption report (InvalidFormat + `{word}`); use \
                         StorageError::corruption(component, offset, detail) so callers \
                         can route on the typed variant"
                    ),
                });
            }
        }

        // alloc-in-read-path: `copy_from_slice` or `.to_vec()` in the
        // read-path modules.
        if read_path {
            let what = if text == "copy_from_slice" {
                Some("copy_from_slice")
            } else if text == "to_vec"
                && ci >= 1
                && sf.text(ci - 1) == "."
                && ci + 2 < sf.len()
                && sf.text(ci + 1) == "("
                && sf.text(ci + 2) == ")"
            {
                Some(".to_vec()")
            } else {
                None
            };
            if let Some(what) = what {
                findings.push(Finding {
                    rule: "alloc-in-read-path",
                    file: rel.to_string(),
                    line: sf.line(ci),
                    function: sf.enclosing_fn(ci),
                    message: format!(
                        "`{what}` in a read-path module; keep entry decode zero-copy \
                         (slice the cached page's Bytes) or allowlist with the audit \
                         reason if this copy is genuinely cold"
                    ),
                });
            }
        }
    }
    findings
}

/// Text of every non-comment token on `line` (code idents, punctuation
/// and string literals; comments excluded).
fn same_line_nontrivia_text<'a>(sf: &SourceFile<'a>, line: usize) -> Vec<&'a str> {
    sf.tokens
        .iter()
        .filter(|t| {
            t.line as usize == line
                && !t.kind.is_comment()
                && t.kind != crate::lexer::TokenKind::Whitespace
        })
        .map(|t| &sf.src[t.start..t.end])
        .collect()
}
