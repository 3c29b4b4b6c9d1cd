//! The lint engine: file discovery, rule dispatch, allowlist handling
//! and output formatting for `cargo xtask lint`.
//!
//! Per-file rules run on each parsed [`SourceFile`]; the lock-order and
//! atomics analyses additionally aggregate per crate (one level of
//! intra-crate call propagation needs the whole crate's functions).
//!
//! Audited exceptions live in `xtask-lint.allow` at the workspace root:
//! one `rule-id<space>file<space>function` triple per line, `#`
//! comments. Every entry must carry a trailing `# reason`, and entries
//! that no longer fire are themselves failures (stale audit).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use crate::rules::{self, atomics, is_test_like, Finding, FnSummary};
use crate::syntax::SourceFile;

/// Output mode for `cargo xtask lint`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Output {
    /// Human-readable text on stderr (the default).
    Text,
    /// One JSON document on stdout (`--json`).
    Json,
    /// GitHub Actions workflow annotations (`--github`): findings land
    /// on the PR diff as `::error` lines.
    Github,
}

/// An allowlist entry: `rule file function # reason`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Rule identifier.
    pub rule: String,
    /// Workspace-relative file.
    pub file: String,
    /// Function name (or struct name for field findings).
    pub function: String,
}

/// Result of analyzing a set of files.
#[derive(Debug)]
pub struct Analysis {
    /// All findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Number of files analyzed.
    pub files: usize,
}

/// Runs every rule over `(rel-path, source)` pairs. This is the whole
/// analysis with no filesystem or allowlist involvement — integration
/// tests feed fixture files through it directly.
pub fn analyze(files: &[(String, String)]) -> Analysis {
    let mut findings = Vec::new();
    let mut inventory = atomics::Inventory::default();
    // (file, summary) per crate-scoped analysis target.
    let mut per_crate: BTreeMap<&'static str, Vec<(String, FnSummary)>> = BTreeMap::new();

    for (rel, source) in files {
        let sf = SourceFile::parse(source);
        let file_test = is_test_like(rel);
        let alias = |raw: &str| rules::lock_order::lock_alias(rel, raw);
        let fns = rules::collect_fns(&sf, file_test, &alias);

        findings.extend(rules::simple::check(rel, &sf));
        findings.extend(rules::condvar::check(rel, &sf));
        findings.extend(rules::docs::check(rel, &sf));
        findings.extend(rules::guards::check(rel, &fns));
        inventory.collect_file(rel, &sf, &fns);

        for krate in ["core", "memtable", "server"] {
            if rel.starts_with(&format!("crates/{krate}/src/")) {
                per_crate
                    .entry(match krate {
                        "core" => "core",
                        "memtable" => "memtable",
                        _ => "server",
                    })
                    .or_default()
                    .extend(fns.iter().map(|f| (rel.clone(), f.clone())));
            }
        }
    }

    findings.extend(inventory.check());
    for (krate, fns) in &per_crate {
        let atomic_fields = inventory.field_names(krate);
        findings.extend(rules::lock_order::check(krate, fns, &atomic_fields));
    }

    findings.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
    findings.dedup();
    Analysis {
        findings,
        files: files.len(),
    }
}

/// Runs the lint over the workspace and reports in `output` mode.
pub fn run(output: Output) -> ExitCode {
    let root = workspace_root();
    let allow_path = root.join("xtask-lint.allow");
    let allow = match load_allowlist(&allow_path) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xtask lint: cannot read {}: {e}", allow_path.display());
            return ExitCode::FAILURE;
        }
    };

    let mut paths = Vec::new();
    for dir in ["crates", "shims", "src", "tests", "examples"] {
        collect_rs_files(&root.join(dir), &mut paths);
    }
    paths.sort();
    let mut files = Vec::new();
    for path in &paths {
        let Ok(source) = std::fs::read_to_string(path) else {
            eprintln!("xtask lint: unreadable file {}", path.display());
            return ExitCode::FAILURE;
        };
        let rel = path
            .strip_prefix(&root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        files.push((rel, source));
    }
    let mut analysis = analyze(&files);
    let design_path = root.join("DESIGN.md");
    let Ok(design) = std::fs::read_to_string(&design_path) else {
        eprintln!("xtask lint: unreadable file {}", design_path.display());
        return ExitCode::FAILURE;
    };
    analysis
        .findings
        .extend(rules::citations::check(&design, &files));

    let mut used = vec![false; allow.len()];
    let mut unallowed: Vec<&Finding> = Vec::new();
    for finding in &analysis.findings {
        let hit = allow.iter().enumerate().find(|(_, a)| {
            a.rule == finding.rule && a.file == finding.file && a.function == finding.function
        });
        match hit {
            Some((i, _)) => used[i] = true,
            None => unallowed.push(finding),
        }
    }
    let stale: Vec<&AllowEntry> = allow
        .iter()
        .zip(&used)
        .filter(|(_, u)| !**u)
        .map(|(e, _)| e)
        .collect();
    let ok = unallowed.is_empty() && stale.is_empty();

    match output {
        Output::Text => {
            for f in &unallowed {
                eprintln!("{f}");
            }
            for e in &stale {
                eprintln!(
                    "xtask-lint.allow: stale entry `{} {} {}` (no longer triggered; remove it)",
                    e.rule, e.file, e.function
                );
            }
            if ok {
                println!(
                    "xtask lint: OK ({} files, {} findings all allowlisted)",
                    analysis.files,
                    analysis.findings.len()
                );
            } else {
                eprintln!();
                eprintln!(
                    "xtask lint: failed. Audited exceptions go in xtask-lint.allow as \
                     `rule file function  # reason`."
                );
            }
        }
        Output::Json => {
            println!("{}", to_json(&analysis, &unallowed, &stale, ok));
        }
        Output::Github => {
            for f in &unallowed {
                println!(
                    "::error file={},line={},title=xtask-lint {}::{}",
                    f.file,
                    f.line,
                    f.rule,
                    github_escape(&format!("in `{}`: {}", f.function, f.message))
                );
            }
            for e in &stale {
                println!(
                    "::error file=xtask-lint.allow,title=xtask-lint stale-allow::stale \
                     entry `{} {} {}` (no longer triggered; remove it)",
                    e.rule, e.file, e.function
                );
            }
            if ok {
                println!(
                    "xtask lint: OK ({} files, {} findings all allowlisted)",
                    analysis.files,
                    analysis.findings.len()
                );
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The workspace root: parent of this crate's manifest directory's parent
/// when running under `cargo xtask` (CARGO_MANIFEST_DIR = crates/xtask),
/// else the current directory.
fn workspace_root() -> PathBuf {
    match std::env::var_os("CARGO_MANIFEST_DIR") {
        Some(dir) => {
            let p = PathBuf::from(dir);
            p.ancestors().nth(2).map_or(p.clone(), Path::to_path_buf)
        }
        None => PathBuf::from("."),
    }
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Loads `xtask-lint.allow`; a missing file is an empty allowlist.
///
/// # Errors
/// Fails on unreadable files, entries without a `# reason`, and
/// malformed lines.
pub fn load_allowlist(path: &Path) -> std::io::Result<Vec<AllowEntry>> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut entries = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if !raw.contains('#') {
            return Err(std::io::Error::other(format!(
                "{}:{}: allowlist entry has no `# reason` comment",
                path.display(),
                lineno + 1
            )));
        }
        let mut parts = line.split_whitespace();
        match (parts.next(), parts.next(), parts.next(), parts.next()) {
            (Some(rule), Some(file), Some(function), None) => entries.push(AllowEntry {
                rule: rule.to_string(),
                file: file.to_string(),
                function: function.to_string(),
            }),
            _ => {
                return Err(std::io::Error::other(format!(
                    "{}:{}: expected `rule file function  # reason`",
                    path.display(),
                    lineno + 1
                )))
            }
        }
    }
    Ok(entries)
}

fn to_json(analysis: &Analysis, unallowed: &[&Finding], stale: &[&AllowEntry], ok: bool) -> String {
    let mut s = String::from("{");
    s.push_str(&format!("\"ok\":{ok},\"files\":{},", analysis.files));
    s.push_str("\"findings\":[");
    for (i, f) in analysis.findings.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let allowed = !unallowed.contains(&f);
        s.push_str(&format!(
            "{{\"rule\":{},\"file\":{},\"line\":{},\"function\":{},\"message\":{},\
             \"allowed\":{allowed}}}",
            json_str(f.rule),
            json_str(&f.file),
            f.line,
            json_str(&f.function),
            json_str(&f.message),
        ));
    }
    s.push_str("],\"stale_allow_entries\":[");
    for (i, e) in stale.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"rule\":{},\"file\":{},\"function\":{}}}",
            json_str(&e.rule),
            json_str(&e.file),
            json_str(&e.function),
        ));
    }
    s.push_str("]}");
    s
}

/// JSON string literal with the escapes the format requires.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Workflow-command message escaping (GitHub interprets `%`, CR, LF).
fn github_escape(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}
