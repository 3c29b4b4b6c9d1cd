//! `bench_suite`: the repository's benchmark. One harness, five
//! workloads, end-to-end metrics from untraced runs and per-layer
//! metrics from a traced run. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! bench_suite --workload W --seed N --seconds S --trace 0|1     one run (what BENCHMARK.json's command does)
//! bench_suite run [--workload W] [--seed N] [--runs K] [--trace] [--out FILE]
//! bench_suite compare A B [--per-run]                           A, B: result files or directories of them
//! bench_suite manifest                                          prints BENCHMARK.json from the tables in the code
//! ```
//! Every form also takes `--dir D` (scratch space, default `.bench_tmp`)
//! and `--quick` (a tenth of every size, for smoke runs). A single
//! traced run also takes `--spans FILE` and writes its spans there.

mod compare;
mod devices;
mod exec;
mod gen;
mod hist;
mod json;
mod layers;
mod metrics;
mod openloop;
mod phase;
mod record;
mod sys;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use json::Json;
use metrics::find;
use workloads::{Output, Spec, Workload, RUN_SECONDS};

/// Parsed command line: flags with a value, bare flags, and the rest.
#[derive(Debug, Default)]
struct Args {
    values: Vec<(String, String)>,
    flags: Vec<String>,
    positional: Vec<String>,
}

const VALUE_FLAGS: [&str; 8] = [
    "--spans",
    "--workload",
    "--seed",
    "--seconds",
    "--trace",
    "--dir",
    "--out",
    "--runs",
];
const BARE_FLAGS: [&str; 2] = ["--quick", "--per-run"];

impl Args {
    /// `bare_trace`: in `run`, `--trace` is a switch; in the single-run
    /// form the driver passes it a value.
    fn parse(args: &[String], bare_trace: bool) -> Result<Args, String> {
        let mut out = Args::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if (bare_trace && arg == "--trace") || BARE_FLAGS.contains(&arg.as_str()) {
                out.flags.push(arg.clone());
            } else if VALUE_FLAGS.contains(&arg.as_str()) {
                let value = it.next().ok_or(format!("{arg} needs a value"))?;
                out.values.push((arg.clone(), value.clone()));
            } else if arg.starts_with("--") {
                return Err(format!("unknown flag {arg}"));
            } else {
                out.positional.push(arg.clone());
            }
        }
        Ok(out)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{flag}: bad value {v}")),
        }
    }

    fn flag(&self, flag: &str) -> bool {
        self.flags.iter().any(|f| f == flag)
    }

    fn dir(&self) -> PathBuf {
        PathBuf::from(self.value("--dir").unwrap_or(".bench_tmp"))
    }

    fn workloads(&self) -> Result<Vec<Workload>, String> {
        match self.value("--workload") {
            None => Ok(Workload::ALL.to_vec()),
            Some(name) => Workload::parse(name)
                .map(|w| vec![w])
                .ok_or(format!("unknown workload {name}")),
        }
    }
}

/// Prints `metrics` by name with their units; `skip_idle` leaves out
/// the ones that read 0 (layers the run did not exercise or trace).
fn print_metrics(title: &str, metrics: &[metrics::Metric], skip_idle: bool) {
    println!("  {title}:");
    for m in metrics.iter().filter(|m| !skip_idle || m.value != 0.0) {
        let unit = find(m.name).map_or("", |d| d.unit);
        println!("    {:<46} {:>16.4} {unit}", m.name, m.value);
    }
}

fn print_output(spec: &Spec, out: &Output) {
    println!(
        "{} seed={} seconds={} trace={}{}",
        spec.workload.name(),
        spec.seed,
        spec.seconds,
        u8::from(spec.trace),
        if spec.quick { " quick" } else { "" }
    );
    if !spec.trace {
        print_metrics("end to end", &out.end_to_end, false);
    }
    print_metrics(
        if spec.trace {
            "per layer"
        } else {
            "diagnostics (untraced; entries that read 0 left out)"
        },
        &out.per_layer,
        !spec.trace,
    );
    for c in &out.checks {
        println!(
            "  check {:<44} {} {}",
            c.name,
            if c.ok { "ok" } else { "FAILED" },
            c.detail
        );
    }
    println!("  info {}", out.info.to_line());
    println!(
        "  attempted {} failed {} (errors {} refused {} wrong {} lost {}) => {}",
        out.attempted,
        out.failures.total(),
        out.failures.errors,
        out.failures.refused,
        out.failures.wrong,
        out.failures.lost,
        if out.correct() {
            "correct"
        } else {
            "INCORRECT"
        }
    );
}

fn write_file(path: &Path, json: &Json) -> Result<(), String> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    std::fs::write(path, json.to_pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

/// One workload, in this process; the last line printed is the result
/// object the driver reads.
fn single(args: &Args) -> Result<bool, String> {
    let name = args.value("--workload").ok_or("--workload is required")?;
    let spec = Spec {
        workload: Workload::parse(name).ok_or(format!("unknown workload {name}"))?,
        seed: args.number("--seed", 1)?,
        seconds: args.number("--seconds", RUN_SECONDS)?,
        trace: match args.value("--trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace: bad value {other}")),
        },
        dir: args.dir(),
        quick: args.flag("--quick"),
    };
    if !(spec.seconds > 0.0 && spec.seconds <= 3600.0) {
        return Err(format!("--seconds: bad value {}", spec.seconds));
    }
    let out = workloads::run(&spec)?;
    print_output(&spec, &out);
    if let Some(path) = args.value("--out") {
        write_file(Path::new(path), &record::run_record(&spec, &out))?;
    }
    if let Some(path) = args.value("--spans") {
        write_file(Path::new(path), &record::spans_json(&out.spans))?;
    }
    println!("{}", record::driver_line(&spec, &out).to_line());
    Ok(out.correct())
}

/// Every workload (or the one named), each run in a fresh child process
/// so that no run inherits another's heap, page cache footprint or
/// peak-memory mark.
fn run_suite(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let dir = args.dir();
    let first_seed: u64 = args.number("--seed", 1)?;
    let runs: u64 = args.number("--runs", 1)?;
    let seconds: f64 = args.number("--seconds", RUN_SECONDS)?;
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let fingerprint = sys::fingerprint(&dir);
    println!("environment {}", fingerprint.to_line());

    let mut records = Vec::new();
    let mut all_correct = true;
    for seed in first_seed..first_seed + runs {
        for trace in [false, true] {
            if trace && !args.flag("--trace") {
                continue;
            }
            for workload in args.workloads()? {
                let record_path = dir.join(format!("record-{}.json", std::process::id()));
                let mut child = std::process::Command::new(&exe);
                child
                    .args(["--workload", workload.name()])
                    .args(["--seed", &seed.to_string()])
                    .args(["--seconds", &seconds.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }])
                    .arg("--dir")
                    .arg(&dir)
                    .arg("--out")
                    .arg(&record_path);
                if args.flag("--quick") {
                    child.arg("--quick");
                }
                let status = child.status().map_err(|e| format!("start child: {e}"))?;
                let record = std::fs::read_to_string(&record_path)
                    .map_err(|e| e.to_string())
                    .and_then(|text| Json::parse(&text));
                let _ = std::fs::remove_file(&record_path);
                match record {
                    Ok(record) => {
                        all_correct &= status.success()
                            && record.get("correct").and_then(Json::as_bool) == Some(true);
                        records.push(record);
                    }
                    Err(e) => {
                        eprintln!("{}: run left no result ({status}): {e}", workload.name());
                        all_correct = false;
                    }
                }
            }
        }
    }
    let _ = std::fs::remove_dir(&dir);
    if let Some(path) = args.value("--out") {
        write_file(Path::new(path), &record::result_file(fingerprint, records))?;
        println!("wrote {path}");
    }
    println!(
        "suite {}",
        if all_correct {
            "correct"
        } else {
            "INCORRECT: a run failed or broke a correctness gate"
        }
    );
    Ok(all_correct)
}

fn compare_sets(args: &Args) -> Result<bool, String> {
    let [a, b] = args.positional.as_slice() else {
        return Err("compare needs two result files or directories".into());
    };
    let rows = compare::compare(
        &compare::load_runs(Path::new(a))?,
        &compare::load_runs(Path::new(b))?,
    );
    compare::print(&rows, args.flag("--per-run"));
    let count = |v| rows.iter().filter(|r| r.enforced && r.verdict == v).count();
    let (worse, unresolved) = (
        count(compare::Verdict::Worse),
        count(compare::Verdict::Unresolved),
    );
    println!(
        "{} rows: {} same, {} better, {worse} worse, {unresolved} unresolved (diagnostic rows not counted)",
        rows.len(),
        count(compare::Verdict::Same),
        count(compare::Verdict::Better),
    );
    Ok(worse == 0 && unresolved == 0)
}

/// `BENCHMARK.json`, from the tables the program itself reports by.
fn manifest() -> Json {
    let entry = |d: &metrics::MetricDef, with_bound: bool| {
        let mut fields = vec![
            ("name", Json::str(d.name)),
            ("unit", Json::str(d.unit)),
            ("better", Json::str(d.better.as_str())),
        ];
        if with_bound {
            fields.push(("bound", Json::Num(d.bound)));
        }
        Json::obj(fields)
    };
    let command = [
        "cargo",
        "run",
        "--offline",
        "--release",
        "--quiet",
        "--manifest-path",
        "bench_suite/Cargo.toml",
        "--",
    ];
    Json::obj([
        ("command", Json::Arr(command.map(Json::str).to_vec())),
        ("paths", Json::Arr(vec![Json::str("bench_suite")])),
        ("run_seconds", Json::Num(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| {
                        Json::obj([("name", Json::str(w.name())), ("why", Json::str(w.why()))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(metrics::END_TO_END.iter().map(|d| entry(d, true)).collect()),
        ),
        (
            "per_layer",
            Json::Arr(metrics::PER_LAYER.iter().map(|d| entry(d, false)).collect()),
        ),
    ])
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("run") => Args::parse(&argv[1..], true).and_then(|a| run_suite(&a)),
        Some("compare") => Args::parse(&argv[1..], false).and_then(|a| compare_sets(&a)),
        Some("manifest") => {
            print!("{}", manifest().to_pretty());
            Ok(true)
        }
        _ => Args::parse(&argv, false).and_then(|a| single(&a)),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bench_suite: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str, bare_trace: bool) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        Args::parse(&argv, bare_trace)
    }

    #[test]
    fn benchmark_json_is_what_the_tables_say() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            Json::parse(&text).expect("valid JSON"),
            manifest(),
            "regenerate with `bench_suite manifest > BENCHMARK.json`"
        );
        assert!(text.len() <= 64 << 10);
        let manifest = manifest();
        let keys: Vec<&str> = manifest.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse(
            "--workload wire_mixed --seed 42 --seconds 8 --trace 1",
            false,
        )
        .unwrap();
        assert_eq!(a.value("--workload"), Some("wire_mixed"));
        assert_eq!(a.number::<u64>("--seed", 1), Ok(42));
        assert_eq!(a.number::<f64>("--seconds", 0.0), Ok(8.0));
        assert_eq!(a.value("--trace"), Some("1"));
        assert_eq!(a.dir(), PathBuf::from(".bench_tmp"));
        assert!(!a.flag("--quick"));
    }

    #[test]
    fn run_takes_trace_as_a_switch_and_rejects_what_it_does_not_know() {
        let a = parse("--trace --quick --runs 5 --out x.json", true).unwrap();
        assert!(a.flag("--trace") && a.flag("--quick"));
        assert_eq!(a.number::<u64>("--runs", 1), Ok(5));
        assert_eq!(a.workloads().unwrap().len(), 5);
        assert!(parse("--seed", false).is_err());
        assert!(parse("--frobnicate 1", false).is_err());
        assert!(parse("--seed x", false)
            .unwrap()
            .number::<u64>("--seed", 1)
            .is_err());
        assert!(parse("--workload nope", false)
            .unwrap()
            .workloads()
            .is_err());
        assert_eq!(
            parse("a.json b.json --per-run", false)
                .unwrap()
                .positional
                .len(),
            2
        );
    }
}
