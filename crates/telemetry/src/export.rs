//! Exporters: CSV, JSON-lines and Prometheus-style text exposition for
//! metric snapshots and trace records, plus the parsers that read the
//! JSONL forms back (used by round-trip tests and offline analysis).

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use crate::json::{self, Json};
use crate::registry::{HistogramSummary, MetricSnapshot, MetricValue};
use crate::trace::{RoundSnapshot, TraceEvent, TraceRecord};

// ---------------------------------------------------------------------------
// CSV primitives (shared with `workloads::report::Table`)
// ---------------------------------------------------------------------------

/// Escapes one CSV field per RFC 4180: fields containing commas, quotes
/// or newlines are quoted, quotes doubled.
#[must_use]
pub fn csv_escape(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') || field.contains('\r') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_owned()
    }
}

/// Joins fields into one CSV line (no trailing newline).
#[must_use]
pub fn csv_line<S: AsRef<str>>(fields: &[S]) -> String {
    fields
        .iter()
        .map(|f| csv_escape(f.as_ref()))
        .collect::<Vec<_>>()
        .join(",")
}

/// Renders a header row plus data rows as a CSV document.
#[must_use]
pub fn csv_table<S: AsRef<str>>(headers: &[S], rows: &[Vec<String>]) -> String {
    let mut out = csv_line(headers);
    out.push('\n');
    for row in rows {
        out.push_str(&csv_line(row));
        out.push('\n');
    }
    out
}

/// Writes `contents` to `path`, creating parent directories first.
pub fn write_file(path: impl AsRef<Path>, contents: &str) -> io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, contents)
}

// ---------------------------------------------------------------------------
// Metric snapshots
// ---------------------------------------------------------------------------

/// One JSON object per metric, one per line.
///
/// Counters/gauges: `{"name":...,"kind":...,"value":...}`; histograms
/// carry `count/sum/min/max/p50/p90/p99` fields instead of `value`.
#[must_use]
pub fn metrics_to_jsonl(snapshot: &[MetricSnapshot]) -> String {
    let mut out = String::new();
    for m in snapshot {
        let name = json::escape(&m.name);
        match &m.value {
            MetricValue::Counter(v) => {
                let _ = writeln!(
                    out,
                    "{{\"name\":{name},\"kind\":\"counter\",\"value\":{v}}}"
                );
            }
            MetricValue::Gauge(v) => {
                let _ = writeln!(
                    out,
                    "{{\"name\":{name},\"kind\":\"gauge\",\"value\":{}}}",
                    json::num(*v)
                );
            }
            MetricValue::Histogram(h) => {
                let _ = writeln!(
                    out,
                    "{{\"name\":{name},\"kind\":\"histogram\",\"count\":{},\"sum\":{},\
                     \"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                    h.count, h.sum, h.min, h.max, h.p50, h.p90, h.p99
                );
            }
        }
    }
    out
}

/// Parses [`metrics_to_jsonl`] output back into snapshots.
pub fn parse_metrics_jsonl(input: &str) -> Result<Vec<MetricSnapshot>, String> {
    let docs = json::parse_lines(input).map_err(|e| e.to_string())?;
    docs.iter()
        .map(|d| {
            let name = d
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric missing name")?
                .to_owned();
            let kind = d
                .get("kind")
                .and_then(Json::as_str)
                .ok_or("metric missing kind")?;
            let value = match kind {
                "counter" => MetricValue::Counter(
                    d.get("value")
                        .and_then(Json::as_u64)
                        .ok_or("counter missing value")?,
                ),
                "gauge" => MetricValue::Gauge(
                    d.get("value")
                        .and_then(Json::as_f64)
                        .ok_or("gauge missing value")?,
                ),
                "histogram" => {
                    let f = |k: &str| -> Result<u64, String> {
                        d.get(k)
                            .and_then(Json::as_u64)
                            .ok_or_else(|| format!("histogram missing {k}"))
                    };
                    MetricValue::Histogram(HistogramSummary {
                        count: f("count")?,
                        sum: f("sum")?,
                        min: f("min")?,
                        max: f("max")?,
                        p50: f("p50")?,
                        p90: f("p90")?,
                        p99: f("p99")?,
                    })
                }
                other => return Err(format!("unknown metric kind '{other}'")),
            };
            Ok(MetricSnapshot { name, value })
        })
        .collect()
}

/// CSV with fixed columns `name,kind,value,count,sum,min,max,p50,p90,p99`
/// (histogram columns empty for counters/gauges and vice versa).
#[must_use]
pub fn metrics_to_csv(snapshot: &[MetricSnapshot]) -> String {
    let headers = [
        "name", "kind", "value", "count", "sum", "min", "max", "p50", "p90", "p99",
    ];
    let rows: Vec<Vec<String>> = snapshot
        .iter()
        .map(|m| {
            let mut row = vec![m.name.clone()];
            match &m.value {
                MetricValue::Counter(v) => {
                    row.push("counter".into());
                    row.push(v.to_string());
                    row.extend(std::iter::repeat_with(String::new).take(7));
                }
                MetricValue::Gauge(v) => {
                    row.push("gauge".into());
                    row.push(json::num(*v));
                    row.extend(std::iter::repeat_with(String::new).take(7));
                }
                MetricValue::Histogram(h) => {
                    row.push("histogram".into());
                    row.push(String::new());
                    for v in [h.count, h.sum, h.min, h.max, h.p50, h.p90, h.p99] {
                        row.push(v.to_string());
                    }
                }
            }
            row
        })
        .collect();
    csv_table(&headers, &rows)
}

fn prometheus_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Prometheus text exposition format (counters, gauges, and histograms
/// as summaries with `{quantile=...}` series plus `_sum`/`_count`).
#[must_use]
pub fn metrics_to_prometheus(snapshot: &[MetricSnapshot]) -> String {
    let mut out = String::new();
    for m in snapshot {
        let name = prometheus_name(&m.name);
        match &m.value {
            MetricValue::Counter(v) => {
                let _ = writeln!(out, "# TYPE {name} counter\n{name} {v}");
            }
            MetricValue::Gauge(v) => {
                let _ = writeln!(out, "# TYPE {name} gauge\n{name} {}", json::num(*v));
            }
            MetricValue::Histogram(h) => {
                let _ = writeln!(out, "# TYPE {name} summary");
                for (q, v) in [("0.5", h.p50), ("0.9", h.p90), ("0.99", h.p99)] {
                    let _ = writeln!(out, "{name}{{quantile=\"{q}\"}} {v}");
                }
                let _ = writeln!(out, "{name}_sum {}", h.sum);
                let _ = writeln!(out, "{name}_count {}", h.count);
                let _ = writeln!(out, "{name}_max {}", h.max);
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Trace records
// ---------------------------------------------------------------------------

fn u32s(v: &[u32]) -> String {
    let items: Vec<String> = v.iter().map(u32::to_string).collect();
    format!("[{}]", items.join(","))
}

fn usizes(v: &[usize]) -> String {
    let items: Vec<String> = v.iter().map(usize::to_string).collect();
    format!("[{}]", items.join(","))
}

fn f64s(v: &[f64]) -> String {
    let items: Vec<String> = v.iter().map(|&x| json::num(x)).collect();
    format!("[{}]", items.join(","))
}

/// One JSON object per trace record, one per line. The `type` field is
/// [`TraceEvent::kind`]; remaining fields mirror the variant's fields.
#[must_use]
pub fn trace_to_jsonl(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    for r in records {
        let seq = r.seq;
        let kind = r.event.kind();
        match &r.event {
            TraceEvent::Sample(RoundSnapshot {
                region,
                t_ns,
                weights,
                rates,
                delivered,
                clusters,
            }) => {
                let clusters = match clusters {
                    Some(c) => usizes(c),
                    None => "null".to_owned(),
                };
                let _ = writeln!(
                    out,
                    "{{\"seq\":{seq},\"type\":\"{kind}\",\"region\":{region},\"t_ns\":{t_ns},\
                     \"weights\":{},\"rates\":{},\"delivered\":{delivered},\"clusters\":{clusters}}}",
                    u32s(weights),
                    f64s(rates)
                );
            }
            TraceEvent::ControllerRound {
                round,
                rates,
                weights_before,
                weights_after,
            } => {
                let _ = writeln!(
                    out,
                    "{{\"seq\":{seq},\"type\":\"{kind}\",\"round\":{round},\"rates\":{},\
                     \"weights_before\":{},\"weights_after\":{}}}",
                    f64s(rates),
                    u32s(weights_before),
                    u32s(weights_after)
                );
            }
            TraceEvent::Decay { round, decay } => {
                let _ = writeln!(
                    out,
                    "{{\"seq\":{seq},\"type\":\"{kind}\",\"round\":{round},\"decay\":{}}}",
                    json::num(*decay)
                );
            }
            TraceEvent::Exploration {
                round,
                connection,
                from,
                to,
            } => {
                let _ = writeln!(
                    out,
                    "{{\"seq\":{seq},\"type\":\"{kind}\",\"round\":{round},\
                     \"connection\":{connection},\"from\":{from},\"to\":{to}}}"
                );
            }
            TraceEvent::ClusterUpdate { round, assignment } => {
                let _ = writeln!(
                    out,
                    "{{\"seq\":{seq},\"type\":\"{kind}\",\"round\":{round},\"assignment\":{}}}",
                    usizes(assignment)
                );
            }
            TraceEvent::Custom { name, fields } => {
                let fields: Vec<String> = fields
                    .iter()
                    .map(|(k, v)| format!("{}:{}", json::escape(k), json::num(*v)))
                    .collect();
                let _ = writeln!(
                    out,
                    "{{\"seq\":{seq},\"type\":\"{kind}\",\"name\":{},\"fields\":{{{}}}}}",
                    json::escape(name),
                    fields.join(",")
                );
            }
        }
    }
    out
}

fn arr_u32(d: &Json, key: &str) -> Result<Vec<u32>, String> {
    d.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing array '{key}'"))?
        .iter()
        .map(|v| {
            v.as_u64()
                .and_then(|x| u32::try_from(x).ok())
                .ok_or_else(|| format!("bad u32 in '{key}'"))
        })
        .collect()
}

fn arr_usize(d: &Json, key: &str) -> Result<Vec<usize>, String> {
    d.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing array '{key}'"))?
        .iter()
        .map(|v| {
            v.as_u64()
                .and_then(|x| usize::try_from(x).ok())
                .ok_or_else(|| format!("bad usize in '{key}'"))
        })
        .collect()
}

fn arr_f64(d: &Json, key: &str) -> Result<Vec<f64>, String> {
    d.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing array '{key}'"))?
        .iter()
        .map(|v| v.as_f64().ok_or_else(|| format!("bad number in '{key}'")))
        .collect()
}

fn field_u64(d: &Json, key: &str) -> Result<u64, String> {
    d.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing field '{key}'"))
}

fn field_usize(d: &Json, key: &str) -> Result<usize, String> {
    usize::try_from(field_u64(d, key)?).map_err(|_| format!("field '{key}' out of range"))
}

/// Parses [`trace_to_jsonl`] output back into records.
pub fn parse_trace_jsonl(input: &str) -> Result<Vec<TraceRecord>, String> {
    let docs = json::parse_lines(input).map_err(|e| e.to_string())?;
    docs.iter()
        .map(|d| {
            let seq = field_u64(d, "seq")?;
            let kind = d
                .get("type")
                .and_then(Json::as_str)
                .ok_or("record missing type")?;
            let event = match kind {
                "sample" => TraceEvent::Sample(RoundSnapshot {
                    region: field_usize(d, "region")?,
                    t_ns: field_u64(d, "t_ns")?,
                    weights: arr_u32(d, "weights")?,
                    rates: arr_f64(d, "rates")?,
                    delivered: field_u64(d, "delivered")?,
                    clusters: match d.get("clusters") {
                        None | Some(Json::Null) => None,
                        Some(_) => Some(arr_usize(d, "clusters")?),
                    },
                }),
                "controller_round" => TraceEvent::ControllerRound {
                    round: field_u64(d, "round")?,
                    rates: arr_f64(d, "rates")?,
                    weights_before: arr_u32(d, "weights_before")?,
                    weights_after: arr_u32(d, "weights_after")?,
                },
                "decay" => TraceEvent::Decay {
                    round: field_u64(d, "round")?,
                    decay: d
                        .get("decay")
                        .and_then(Json::as_f64)
                        .ok_or("decay missing factor")?,
                },
                "exploration" => TraceEvent::Exploration {
                    round: field_u64(d, "round")?,
                    connection: field_usize(d, "connection")?,
                    from: u32::try_from(field_u64(d, "from")?).map_err(|e| e.to_string())?,
                    to: u32::try_from(field_u64(d, "to")?).map_err(|e| e.to_string())?,
                },
                "cluster_update" => TraceEvent::ClusterUpdate {
                    round: field_u64(d, "round")?,
                    assignment: arr_usize(d, "assignment")?,
                },
                "custom" => {
                    let fields = match d.get("fields") {
                        Some(Json::Obj(m)) => m
                            .iter()
                            .map(|(k, v)| {
                                v.as_f64()
                                    .map(|x| (k.clone(), x))
                                    .ok_or_else(|| format!("bad custom field '{k}'"))
                            })
                            .collect::<Result<Vec<_>, _>>()?,
                        _ => return Err("custom missing fields".into()),
                    };
                    TraceEvent::Custom {
                        name: d
                            .get("name")
                            .and_then(Json::as_str)
                            .ok_or("custom missing name")?
                            .to_owned(),
                        fields,
                    }
                }
                other => return Err(format!("unknown trace type '{other}'")),
            };
            Ok(TraceRecord { seq, event })
        })
        .collect()
}

/// CSV rendering of trace records with fixed columns; list-valued
/// fields are `|`-joined inside one cell.
#[must_use]
pub fn trace_to_csv(records: &[TraceRecord]) -> String {
    let headers = [
        "seq",
        "type",
        "region",
        "t_ns",
        "round",
        "delivered",
        "decay",
        "connection",
        "from",
        "to",
        "name",
        "weights",
        "rates",
        "clusters",
        "fields",
    ];
    let join_u32 = |v: &[u32]| v.iter().map(u32::to_string).collect::<Vec<_>>().join("|");
    let join_usize = |v: &[usize]| v.iter().map(usize::to_string).collect::<Vec<_>>().join("|");
    let join_f64 = |v: &[f64]| {
        v.iter()
            .map(|&x| json::num(x))
            .collect::<Vec<_>>()
            .join("|")
    };
    let rows: Vec<Vec<String>> = records
        .iter()
        .map(|r| {
            let mut row = vec![r.seq.to_string(), r.event.kind().to_owned()];
            let blank = String::new;
            match &r.event {
                TraceEvent::Sample(RoundSnapshot {
                    region,
                    t_ns,
                    weights,
                    rates,
                    delivered,
                    clusters,
                }) => {
                    row.push(region.to_string());
                    row.push(t_ns.to_string());
                    row.push(blank());
                    row.push(delivered.to_string());
                    row.extend([blank(), blank(), blank(), blank(), blank()]);
                    row.push(join_u32(weights));
                    row.push(join_f64(rates));
                    row.push(clusters.as_deref().map(join_usize).unwrap_or_default());
                    row.push(blank());
                }
                TraceEvent::ControllerRound {
                    round,
                    rates,
                    weights_before,
                    weights_after,
                } => {
                    row.extend([blank(), blank()]);
                    row.push(round.to_string());
                    row.extend([blank(), blank(), blank(), blank(), blank(), blank()]);
                    row.push(format!(
                        "{}->{}",
                        join_u32(weights_before),
                        join_u32(weights_after)
                    ));
                    row.push(join_f64(rates));
                    row.extend([blank(), blank()]);
                }
                TraceEvent::Decay { round, decay } => {
                    row.extend([blank(), blank()]);
                    row.push(round.to_string());
                    row.push(blank());
                    row.push(json::num(*decay));
                    row.extend(std::iter::repeat_with(blank).take(8));
                }
                TraceEvent::Exploration {
                    round,
                    connection,
                    from,
                    to,
                } => {
                    row.extend([blank(), blank()]);
                    row.push(round.to_string());
                    row.extend([blank(), blank()]);
                    row.push(connection.to_string());
                    row.push(from.to_string());
                    row.push(to.to_string());
                    row.extend(std::iter::repeat_with(blank).take(5));
                }
                TraceEvent::ClusterUpdate { round, assignment } => {
                    row.extend([blank(), blank()]);
                    row.push(round.to_string());
                    row.extend(std::iter::repeat_with(blank).take(8));
                    row.push(join_usize(assignment));
                    row.push(blank());
                }
                TraceEvent::Custom { name, fields } => {
                    row.extend(std::iter::repeat_with(blank).take(8));
                    row.push(name.clone());
                    row.extend([blank(), blank(), blank()]);
                    row.push(
                        fields
                            .iter()
                            .map(|(k, v)| format!("{k}={}", json::num(*v)))
                            .collect::<Vec<_>>()
                            .join("|"),
                    );
                }
            }
            debug_assert_eq!(row.len(), headers.len(), "row width for {}", r.event.kind());
            row
        })
        .collect();
    csv_table(&headers, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    fn sample_records() -> Vec<TraceRecord> {
        vec![
            TraceRecord {
                seq: 0,
                event: TraceEvent::Sample(RoundSnapshot {
                    region: 0,
                    t_ns: 1_000_000_000,
                    weights: vec![500, 300, 200],
                    rates: vec![0.25, 0.0, 0.125],
                    delivered: 4_321,
                    clusters: Some(vec![0, 0, 1]),
                }),
            },
            TraceRecord {
                seq: 1,
                event: TraceEvent::ControllerRound {
                    round: 1,
                    rates: vec![0.5, 0.5, 0.1],
                    weights_before: vec![334, 333, 333],
                    weights_after: vec![300, 300, 400],
                },
            },
            TraceRecord {
                seq: 2,
                event: TraceEvent::Decay {
                    round: 2,
                    decay: 0.9,
                },
            },
            TraceRecord {
                seq: 3,
                event: TraceEvent::Exploration {
                    round: 2,
                    connection: 1,
                    from: 300,
                    to: 310,
                },
            },
            TraceRecord {
                seq: 4,
                event: TraceEvent::ClusterUpdate {
                    round: 3,
                    assignment: vec![0, 1, 1],
                },
            },
            TraceRecord {
                seq: 5,
                event: TraceEvent::Custom {
                    name: "runtime.note".into(),
                    fields: vec![("elapsed_ms".into(), 12.5)],
                },
            },
        ]
    }

    #[test]
    fn trace_jsonl_round_trips_exactly() {
        let records = sample_records();
        let jsonl = trace_to_jsonl(&records);
        let parsed = parse_trace_jsonl(&jsonl).unwrap();
        assert_eq!(parsed, records);
    }

    #[test]
    fn metrics_jsonl_round_trips_exactly() {
        let r = MetricsRegistry::new();
        r.counter("sim.delivered").add(999);
        r.gauge("conn0.rate").set(0.375);
        let h = r.histogram("latency_ns");
        for i in 1..=100 {
            h.record(i * 1000);
        }
        let snap = r.snapshot();
        let parsed = parse_metrics_jsonl(&metrics_to_jsonl(&snap)).unwrap();
        assert_eq!(parsed, snap);
    }

    #[test]
    fn prometheus_format_shape() {
        let r = MetricsRegistry::new();
        r.counter("sim.splitter.tuples_sent").add(7);
        r.gauge("conn.0.weight").set(333.0);
        r.histogram("lat").record(100);
        let text = metrics_to_prometheus(&r.snapshot());
        assert!(text.contains("# TYPE conn_0_weight gauge"));
        assert!(text.contains("sim_splitter_tuples_sent 7"));
        assert!(text.contains("lat{quantile=\"0.99\"}"));
        assert!(text.contains("lat_count 1"));
    }

    #[test]
    fn csv_escaping() {
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
        let line = csv_line(&["a,b", "c"]);
        assert_eq!(line, "\"a,b\",c");
    }

    #[test]
    fn trace_csv_has_fixed_width() {
        let csv = trace_to_csv(&sample_records());
        let mut lines = csv.lines();
        let width = lines.next().unwrap().split(',').count();
        assert_eq!(width, 15);
        // Data rows with unquoted cells must match the header width.
        for line in lines {
            assert!(line.split(',').count() >= width - 2, "short row: {line}");
        }
        assert!(csv.contains("sample"));
        assert!(csv.contains("500|300|200"));
    }

    #[test]
    fn metrics_csv_shape() {
        let r = MetricsRegistry::new();
        r.counter("c").add(1);
        r.histogram("h").record(10);
        let csv = metrics_to_csv(&r.snapshot());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "name,kind,value,count,sum,min,max,p50,p90,p99");
        assert_eq!(lines.len(), 3);
        assert!(lines.iter().all(|l| l.split(',').count() == 10));
    }
}
