//! `compare A.json B.json`: two ledgers of the `run` command, side by
//! side, judged by the bounds `BENCHMARK.json` fixes.
//!
//! B is "worse" on an end-to-end metric when its median is worse than
//! A's by more than the bound; the pair is "unresolved" when either
//! side's own repeats spread (interquartile range ÷ median) wider than
//! the bound, because then the difference cannot be told from noise.
//! Per-layer metrics are listed with their deltas and never judged.

use std::process::ExitCode;

use crate::json::Json;

struct Bound {
    higher_is_better: bool,
    bound: f64,
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn bounds(doc: &Json) -> Result<Vec<(String, Bound)>, String> {
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("bounds file has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let field = |key: &str| {
                m.get(key)
                    .ok_or(format!("end_to_end entry lacks \"{key}\""))
            };
            Ok((
                field("name")?
                    .as_str()
                    .ok_or("metric name is not a string")?
                    .to_string(),
                Bound {
                    higher_is_better: field("better")?.as_str() == Some("higher"),
                    bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
                },
            ))
        })
        .collect()
}

struct Value {
    median: f64,
    /// (q3 − q1) ÷ median over the ledger's own repeats.
    spread: f64,
}

fn value(doc: &Json, workload: &str, tier: &str, metric: &str) -> Option<Value> {
    let m = doc.at(&["workloads", workload, tier, metric])?;
    let median = m.get("median")?.as_f64()?;
    let (q1, q3) = (m.get("q1")?.as_f64()?, m.get("q3")?.as_f64()?);
    Some(Value {
        median,
        spread: if median == 0.0 {
            0.0
        } else {
            (q3 - q1) / median.abs()
        },
    })
}

/// Relative change of `b` against `a`, positive when `b` is worse.
fn worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    let change = (b - a) / a.abs();
    if higher_is_better {
        -change
    } else {
        change
    }
}

#[derive(Debug, PartialEq, Eq)]
enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

fn judge(a: &Value, b: &Value, bound: &Bound) -> Verdict {
    if a.spread > bound.bound || b.spread > bound.bound {
        Verdict::Unresolved
    } else if worsening(a.median, b.median, bound.higher_is_better) > bound.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

pub fn run(a_path: &str, b_path: &str, bounds_path: &str) -> Result<ExitCode, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let bounds = bounds(&load(bounds_path)?)?;
    let workloads = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or(format!("{a_path}: no workloads"))?;
    let mut worse = 0;
    println!(
        "{:<18} {:<34} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "delta%", "bound%"
    );
    for workload in workloads.keys() {
        for (metric, bound) in &bounds {
            let (Some(va), Some(vb)) = (
                value(&a, workload, "end_to_end", metric),
                value(&b, workload, "end_to_end", metric),
            ) else {
                return Err(format!("{workload}/{metric} missing from a ledger"));
            };
            let verdict = judge(&va, &vb, bound);
            worse += usize::from(verdict == Verdict::Worse);
            println!(
                "{:<18} {:<34} {:>14.4} {:>14.4} {:>+9.2} {:>7.1}  {}",
                workload,
                metric,
                va.median,
                vb.median,
                (vb.median - va.median) / va.median * 100.0,
                bound.bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok".to_string(),
                    Verdict::Worse => "WORSE".to_string(),
                    Verdict::Unresolved => format!(
                        "unresolved (spread {:.1}% / {:.1}%)",
                        va.spread * 100.0,
                        vb.spread * 100.0
                    ),
                }
            );
        }
        let layers = workloads[workload]
            .get("per_layer")
            .and_then(Json::as_obj)
            .ok_or(format!("{a_path}: {workload} has no per_layer section"))?;
        for metric in layers.keys() {
            let (Some(va), Some(vb)) = (
                value(&a, workload, "per_layer", metric),
                value(&b, workload, "per_layer", metric),
            ) else {
                continue;
            };
            let delta = if va.median == 0.0 {
                0.0
            } else {
                (vb.median - va.median) / va.median * 100.0
            };
            println!(
                "{:<18} {:<34} {:>14.4} {:>14.4} {:>+9.2} {:>7}  -",
                workload, metric, va.median, vb.median, delta, "-"
            );
        }
    }
    let ratio = |doc: &Json| {
        doc.at(&["derived", "stream_over_cluster_writes_per_s"])
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    println!(
        "tpcc-stream / cluster-rw writes_per_s: A {:.2}  B {:.2}",
        ratio(&a),
        ratio(&b)
    );
    if worse > 0 {
        println!("{worse} end-to-end metric(s) worse than the bound allows");
        return Ok(ExitCode::from(1));
    }
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(median: f64, spread: f64) -> Value {
        Value { median, spread }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let lower = Bound {
            higher_is_better: false,
            bound: 0.10,
        };
        let higher = Bound {
            higher_is_better: true,
            bound: 0.10,
        };
        assert_eq!(judge(&v(100.0, 0.02), &v(109.0, 0.02), &lower), Verdict::Ok);
        assert_eq!(
            judge(&v(100.0, 0.02), &v(111.0, 0.02), &lower),
            Verdict::Worse
        );
        assert_eq!(judge(&v(100.0, 0.02), &v(50.0, 0.02), &lower), Verdict::Ok);
        assert_eq!(
            judge(&v(100.0, 0.02), &v(89.0, 0.02), &higher),
            Verdict::Worse
        );
        assert_eq!(
            judge(&v(100.0, 0.02), &v(150.0, 0.02), &higher),
            Verdict::Ok
        );
        assert_eq!(
            judge(&v(100.0, 0.02), &v(150.0, 0.2), &lower),
            Verdict::Unresolved
        );
    }
}
