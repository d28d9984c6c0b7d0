//! `samm-benchmark compare A.json B.json`: every (workload, end-to-end
//! metric) pair of two reports, judged against the bounds in
//! `BENCHMARK.json`.

use samm_serve::json::{self, Json};

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn number(v: Option<&Json>, what: &str) -> Result<f64, String> {
    v.and_then(Json::as_f64).ok_or(format!("missing {what}"))
}

/// One end-to-end metric of `BENCHMARK.json`.
struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn bounds(benchmark: &Json) -> Result<Vec<Bound>, String> {
    benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Ok(Bound {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("unnamed metric")?
                    .to_owned(),
                lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
                bound: number(m.get("bound"), "bound")?,
            })
        })
        .collect()
}

/// The failed share of one workload's report.
fn fail_ratio(report: &Json) -> Result<f64, String> {
    let attempted = number(report.get("attempted"), "attempted")?;
    Ok(number(report.get("failed"), "failed")? / attempted.max(1.0))
}

/// Prints the comparison of reports `a` (before) and `b` (after).
/// Returns whether `b` passes: no resolved regression beyond a bound and
/// no rise in any workload's failed share.
///
/// # Errors
///
/// Unreadable or incomplete reports or bounds.
pub fn compare(a_path: &str, b_path: &str, bounds_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let bounds = bounds(&load(bounds_path)?)?;
    let workloads = |r: &Json| match r.get("workloads") {
        Some(Json::Obj(map)) => Ok(map.clone()),
        _ => Err("report has no workloads".to_owned()),
    };
    let (wa, wb) = (workloads(&a)?, workloads(&b)?);
    let mut pass = true;
    println!(
        "{:<13} {:<22} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "delta", "bound"
    );
    for (name, ra) in &wa {
        let rb = wb
            .get(name)
            .ok_or(format!("{b_path} lacks workload {name}"))?;
        for bound in &bounds {
            let value = |r: &Json, what: &str| {
                number(
                    r.get("end_to_end")
                        .and_then(|m| m.get(&bound.name))
                        .and_then(|m| m.get(what)),
                    &format!("{name} {} {what}", bound.name),
                )
            };
            let (va, vb) = (value(ra, "value")?, value(rb, "value")?);
            let delta = (vb - va) / va.abs().max(f64::MIN_POSITIVE);
            let worse = if bound.lower_is_better { delta } else { -delta };
            let spread = value(ra, "spread")?.max(value(rb, "spread")?);
            let verdict = if spread > bound.bound {
                "unresolved"
            } else if worse > bound.bound {
                pass = false;
                "REGRESSION"
            } else {
                "ok"
            };
            println!(
                "{name:<13} {:<22} {va:>14.4} {vb:>14.4} {:>7.2}% {:>5.1}%  {verdict}",
                bound.name,
                delta * 100.0,
                bound.bound * 100.0
            );
        }
        let (fa, fb) = (fail_ratio(ra)?, fail_ratio(rb)?);
        let verdict = if fb > fa {
            pass = false;
            "REGRESSION"
        } else {
            "ok"
        };
        println!(
            "{name:<13} {:<22} {fa:>14.6} {fb:>14.6} {:>8} {:>6}  {verdict}",
            "fail_ratio", "", "0"
        );
    }
    Ok(pass)
}
