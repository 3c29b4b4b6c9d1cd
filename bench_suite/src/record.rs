//! A run as it is written to a result file and read back by `compare`.

use crate::json::Json;
use crate::metrics::{find, Metric};
use crate::trace::{Span, SPAN_NAMES};
use crate::workloads::{Output, Spec};

/// Names the layout of result files; bump on an incompatible change.
pub const SCHEMA: &str = "bench_suite/1";

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|m| {
        let unit = find(m.name).map_or("", |d| d.unit);
        (
            m.name,
            Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(unit))]),
        )
    }))
}

/// The object the driver reads from the last line of standard output.
pub fn driver_line(spec: &Spec, out: &Output) -> Json {
    let metrics = if spec.trace {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    Json::obj([
        ("correct", Json::Bool(out.correct())),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failures.total() as f64)),
        ("metrics", metrics_json(metrics)),
    ])
}

/// Everything about one run. An untraced run carries the end-to-end
/// metrics and, as `diagnostics`, the per-layer entries that need no
/// tracing; a traced run carries the whole per-layer table and no
/// end-to-end metrics (those are only ever taken with tracing off).
pub fn run_record(spec: &Spec, out: &Output) -> Json {
    let mut fields = vec![
        ("workload".to_string(), Json::str(spec.workload.name())),
        ("seed".to_string(), Json::Num(spec.seed as f64)),
        ("seconds".to_string(), Json::Num(spec.seconds)),
        ("trace".to_string(), Json::Bool(spec.trace)),
        ("quick".to_string(), Json::Bool(spec.quick)),
        ("correct".to_string(), Json::Bool(out.correct())),
        ("attempted".to_string(), Json::Num(out.attempted as f64)),
        ("failed".to_string(), Json::Num(out.failures.total() as f64)),
    ];
    if spec.trace {
        fields.push(("per_layer".to_string(), metrics_json(&out.per_layer)));
    } else {
        fields.push(("end_to_end".to_string(), metrics_json(&out.end_to_end)));
        fields.push(("diagnostics".to_string(), metrics_json(&out.per_layer)));
    }
    fields.push((
        "checks".to_string(),
        Json::Arr(
            out.checks
                .iter()
                .map(|c| {
                    Json::obj([
                        ("name", Json::str(c.name)),
                        ("ok", Json::Bool(c.ok)),
                        ("detail", Json::str(c.detail.clone())),
                    ])
                })
                .collect(),
        ),
    ));
    fields.push(("info".to_string(), out.info.clone()));
    Json::Obj(fields)
}

/// The spans of a traced run, as written by `--spans FILE`: name, thread,
/// start and end in nanoseconds since the run's epoch, and for a device
/// call the position of the operation span that caused it in the same
/// thread's list.
pub fn spans_json(threads: &[Vec<Span>]) -> Json {
    Json::Arr(
        threads
            .iter()
            .map(|spans| {
                Json::Arr(
                    spans
                        .iter()
                        .map(|s| {
                            let parent = match s.parent {
                                u32::MAX => Json::Null,
                                p => Json::Num(f64::from(p)),
                            };
                            Json::obj([
                                ("name", Json::str(SPAN_NAMES[s.kind as usize])),
                                ("thread", Json::Num(f64::from(s.thread))),
                                ("parent", parent),
                                ("start_ns", Json::Num(s.start_ns as f64)),
                                ("end_ns", Json::Num(s.end_ns as f64)),
                            ])
                        })
                        .collect(),
                )
            })
            .collect(),
    )
}

/// A result file: the environment and the runs made in it.
pub fn result_file(fingerprint: Json, runs: Vec<Json>) -> Json {
    Json::obj([
        ("schema", Json::str(SCHEMA)),
        ("fingerprint", fingerprint),
        ("runs", Json::Arr(runs)),
    ])
}

/// The value of metric `name` in a run record, wherever it is listed.
pub fn metric_of(run: &Json, name: &str) -> Option<f64> {
    ["end_to_end", "diagnostics", "per_layer"]
        .iter()
        .find_map(|section| run.get(section)?.get(name)?.get("value")?.as_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Failures;
    use crate::metrics::{END_TO_END, PER_LAYER};
    use crate::workloads::{Check, Workload};

    fn sample(trace: bool, wrong: u64, check_ok: bool) -> (Spec, Output) {
        let spec = Spec {
            workload: Workload::EngineRead,
            seed: 9,
            seconds: 1.5,
            trace,
            dir: ".bench_tmp".into(),
            quick: false,
        };
        let value = |i: usize| 1.25 + i as f64;
        let out = Output {
            attempted: 1000,
            failures: Failures {
                wrong,
                ..Failures::default()
            },
            checks: vec![Check {
                name: "scrub_after",
                ok: check_ok,
                detail: "fine \"so far\"".into(),
            }],
            end_to_end: END_TO_END
                .iter()
                .enumerate()
                .map(|(i, d)| Metric {
                    name: d.name,
                    value: value(i),
                })
                .collect(),
            per_layer: PER_LAYER
                .iter()
                .enumerate()
                .map(|(i, d)| Metric {
                    name: d.name,
                    value: value(i),
                })
                .collect(),
            info: Json::obj([("note", Json::str("x"))]),
            spans: Vec::new(),
        };
        (spec, out)
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        for trace in [false, true] {
            let (spec, out) = sample(trace, 0, true);
            let line = driver_line(&spec, &out);
            let keys: Vec<&str> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
            let table = if trace { PER_LAYER } else { END_TO_END };
            let metrics = line.get("metrics").unwrap().fields();
            assert_eq!(metrics.len(), table.len());
            for ((name, m), def) in metrics.iter().zip(table) {
                assert_eq!(name, def.name);
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(def.unit));
                assert!(m.get("value").and_then(Json::as_f64).is_some());
            }
            assert!(!line.to_line().contains('\n'));
        }
    }

    #[test]
    fn a_wrong_answer_or_a_failed_check_makes_the_run_incorrect() {
        let (spec, out) = sample(false, 1, true);
        assert!(!out.correct());
        let line = driver_line(&spec, &out);
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(line.get("failed"), Some(&Json::Num(1.0)));
        assert!(!sample(false, 0, false).1.correct());
        assert!(sample(false, 0, true).1.correct());
    }

    #[test]
    fn spans_are_written_with_name_thread_parent_and_times() {
        use crate::trace::SpanKind;
        let root = Span {
            kind: SpanKind::OpRead,
            thread: 1,
            parent: u32::MAX,
            start_ns: 100,
            end_ns: 900,
        };
        let child = Span {
            kind: SpanKind::DataRead,
            parent: 0,
            start_ns: 200,
            end_ns: 700,
            ..root
        };
        let json = spans_json(&[vec![root, child], vec![]]);
        let threads = json.as_arr().unwrap();
        assert_eq!(threads.len(), 2);
        let first = threads[0].as_arr().unwrap();
        assert_eq!(first[0].get("name").and_then(Json::as_str), Some("op.read"));
        assert_eq!(first[0].get("parent"), Some(&Json::Null));
        assert_eq!(
            first[1].get("name").and_then(Json::as_str),
            Some("storage.device.data.read")
        );
        assert_eq!(first[1].get("parent"), Some(&Json::Num(0.0)));
        assert_eq!(first[1].get("end_ns"), Some(&Json::Num(700.0)));
    }

    #[test]
    fn records_survive_the_file() {
        let (spec, out) = sample(false, 0, true);
        let (tspec, tout) = sample(true, 0, true);
        let file = result_file(
            Json::obj([("nproc", Json::Num(2.0))]),
            vec![run_record(&spec, &out), run_record(&tspec, &tout)],
        );
        let back = Json::parse(&file.to_pretty()).unwrap();
        assert_eq!(back, file);
        assert_eq!(back.get("schema").and_then(Json::as_str), Some(SCHEMA));
        let runs = back.get("runs").unwrap().as_arr().unwrap();
        assert_eq!(metric_of(&runs[0], "ops_per_s"), Some(2.25));
        assert_eq!(
            metric_of(&runs[0], "read_p50_us"),
            metric_of(&runs[1], "read_p50_us")
        );
        assert!(runs[1].get("end_to_end").is_none());
        assert_eq!(metric_of(&runs[0], "no_such_metric"), None);
    }
}
