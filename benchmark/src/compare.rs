//! `compare <setA> <setB>`: the tool for the repeatability criterion
//! and for later before/after rows.
//!
//! A set is a file of lines written by `run --save <file>`, at least
//! three runs per workload. For every workload and end-to-end metric it
//! prints both sets' medians and quartiles and a verdict against the
//! metric's bound in `BENCHMARK.json`:
//!
//! - `unresolved` — a set's own spread (q3 − q1 over its median) exceeds
//!   the bound, so a difference of that size cannot be told from noise;
//!   unless every run of B reads better than every run of A (`better`)
//! - `worse` — B's median is worse than A's by more than the bound
//! - `within` — anything else

use std::collections::BTreeMap;
use std::fmt::Write as _;

use streambal_telemetry::json::{self, Json};

use crate::stats::{quartiles, spread};

/// Fewest runs per workload a set may hold.
const MIN_RUNS: usize = 3;

#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// The end-to-end metrics' directions and bounds from `BENCHMARK.json`.
pub fn bounds_from_spec(text: &str) -> Result<Vec<Bound>, String> {
    let doc = json::parse(text).map_err(|e| format!("spec: {e}"))?;
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("spec: no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("spec: metric without name")?;
            let better = m
                .get("better")
                .and_then(Json::as_str)
                .ok_or("spec: metric without better")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("spec: metric without bound")?;
            Ok(Bound {
                name: name.to_owned(),
                higher_is_better: better == "higher",
                bound,
            })
        })
        .collect()
}

/// workload → metric → one value per run.
pub type RunSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Parses a `--save` file; traced runs (per-layer metrics) are skipped.
pub fn parse_set(text: &str) -> Result<RunSet, String> {
    let mut set = RunSet::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if doc.get("trace").and_then(Json::as_u64) != Some(0) {
            continue;
        }
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: no workload", i + 1))?;
        let Some(Json::Obj(metrics)) = doc.get("result").and_then(|r| r.get("metrics")) else {
            return Err(format!("line {}: no result.metrics", i + 1));
        };
        let per_metric = set.entry(workload.to_owned()).or_default();
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("line {}: metric {name} has no value", i + 1))?;
            per_metric.entry(name.clone()).or_default().push(value);
        }
    }
    Ok(set)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Worse,
    Better,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The verdict for one metric on one workload. `None` when either set
/// has fewer than three runs.
pub fn verdict(a: &[f64], b: &[f64], spec: &Bound) -> Option<Verdict> {
    if a.len() < MIN_RUNS || b.len() < MIN_RUNS {
        return None;
    }
    let (med_a, med_b) = (quartiles(a)?[1], quartiles(b)?[1]);
    let noisy = [a, b]
        .iter()
        .any(|runs| spread(runs).is_none_or(|s| s > spec.bound));
    if noisy {
        // Only a clean separation of every run still says something.
        let min = |r: &[f64]| r.iter().copied().fold(f64::INFINITY, f64::min);
        let max = |r: &[f64]| r.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let every_b_better = if spec.higher_is_better {
            min(b) > max(a)
        } else {
            max(b) < min(a)
        };
        return Some(if every_b_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        });
    }
    let worse_by = if spec.higher_is_better {
        (med_a - med_b) / med_a.abs()
    } else {
        (med_b - med_a) / med_a.abs()
    };
    Some(if worse_by > spec.bound {
        Verdict::Worse
    } else {
        Verdict::Within
    })
}

/// The full report, and whether every row came out `within`/`better`.
pub fn report(a: &RunSet, b: &RunSet, bounds: &[Bound]) -> Result<(String, bool), String> {
    let mut text = String::new();
    let mut clean = true;
    let _ = writeln!(
        text,
        "{:<14} {:<14} {:>6}  {:>36}  {:>36}  verdict",
        "workload", "metric", "bound", "A  q1 / median / q3", "B  q1 / median / q3"
    );
    for (workload, metrics_a) in a {
        let metrics_b = b
            .get(workload)
            .ok_or_else(|| format!("set B has no runs of {workload}"))?;
        for spec in bounds {
            let runs = |m: &BTreeMap<String, Vec<f64>>, set: &str| {
                m.get(&spec.name)
                    .cloned()
                    .ok_or_else(|| format!("set {set}: {workload} has no {}", spec.name))
            };
            let (ra, rb) = (runs(metrics_a, "A")?, runs(metrics_b, "B")?);
            let v = verdict(&ra, &rb, spec)
                .ok_or_else(|| format!("{workload}: each set needs at least {MIN_RUNS} runs"))?;
            clean &= matches!(v, Verdict::Within | Verdict::Better);
            let q = |r: &[f64]| {
                let [q1, q2, q3] = quartiles(r).expect("three runs or more");
                format!("{q1:.4} / {q2:.4} / {q3:.4}")
            };
            let _ = writeln!(
                text,
                "{:<14} {:<14} {:>5.0}%  {:>36}  {:>36}  {}",
                workload,
                spec.name,
                spec.bound * 100.0,
                q(&ra),
                q(&rb),
                v.label()
            );
        }
    }
    Ok((text, clean))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound {
            name: "p50_us".into(),
            higher_is_better: false,
            bound,
        }
    }

    fn higher(bound: f64) -> Bound {
        Bound {
            name: "ops_per_s".into(),
            higher_is_better: true,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let a = [100.0, 101.0, 99.0, 100.5];
        // 4 % slower on a lower-is-better metric with a 10 % bound.
        assert_eq!(
            verdict(&a, &[104.0, 105.0, 103.0], &lower(0.10)),
            Some(Verdict::Within)
        );
        // 20 % slower.
        assert_eq!(
            verdict(&a, &[120.0, 121.0, 119.0], &lower(0.10)),
            Some(Verdict::Worse)
        );
        // 20 % lower is a gain when lower is better, a loss when higher is.
        assert_eq!(
            verdict(&a, &[80.0, 81.0, 79.0], &lower(0.10)),
            Some(Verdict::Within)
        );
        assert_eq!(
            verdict(&a, &[80.0, 81.0, 79.0], &higher(0.10)),
            Some(Verdict::Worse)
        );
        // A set whose own quartiles are wider than the bound resolves nothing...
        let noisy = [70.0, 100.0, 130.0, 95.0];
        assert_eq!(verdict(&a, &noisy, &lower(0.10)), Some(Verdict::Unresolved));
        // ...unless every one of its runs beats every run of A.
        let fast_noisy = [40.0, 60.0, 80.0, 50.0];
        assert_eq!(
            verdict(&a, &fast_noisy, &lower(0.10)),
            Some(Verdict::Better)
        );
        assert_eq!(
            verdict(&a, &fast_noisy, &higher(0.10)),
            Some(Verdict::Unresolved)
        );
        // Fewer than three runs is not a set.
        assert_eq!(verdict(&a, &[100.0, 100.0], &lower(0.10)), None);
    }

    #[test]
    fn sets_and_spec_parse_from_what_run_writes() {
        let line = |seed: u32, v: f64, trace: u32| {
            format!(
                "{{\"workload\":\"proxy-small\",\"seed\":{seed},\"trace\":{trace},\"result\":\
                 {{\"correct\":true,\"attempted\":9,\"failed\":0,\"metrics\":\
                 {{\"p50_us\":{{\"value\":{v},\"unit\":\"us\"}}}}}}}}"
            )
        };
        let text = [
            line(1, 50.0, 0),
            line(2, 51.5, 0),
            line(3, 49.0, 0),
            line(4, 7.0, 1),
        ]
        .join("\n");
        let set = parse_set(&text).unwrap();
        assert_eq!(set["proxy-small"]["p50_us"], vec![50.0, 51.5, 49.0]);
        let spec = r#"{"end_to_end":[{"name":"p50_us","unit":"us","better":"lower","bound":0.1}]}"#;
        let bounds = bounds_from_spec(spec).unwrap();
        assert_eq!(bounds, vec![lower(0.1)]);
        let (text, clean) = report(&set, &set, &bounds).unwrap();
        assert!(clean && text.contains("within"), "{text}");
    }
}
