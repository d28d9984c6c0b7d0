//! Expected answers and the two response checks.
//!
//! The oracle is computed client-side at set-up, before any server
//! runs: outcome sets from the serial engine
//! (`samm_core::enumerate::enumerate`), verdicts from those sets and the
//! catalog's expectations, and certify answers from `samm_analyze`,
//! cross-checked against the serial outcome sets.
//!
//! [`fast_check`] is the hot-path check: a substring scan of the raw
//! response line that needs no JSON parse. [`full_check`] parses the
//! response and compares every answer field, outcome sets included.

use std::collections::{BTreeMap, BTreeSet};

use samm_core::enumerate::{enumerate, EnumConfig};
use samm_core::outcome::OutcomeSet;
use samm_litmus::catalog::ModelSel;
use samm_serve::json::{self, Json};

use crate::workload::{Kind, Line, Workload};

/// The expected answer of one distinct request.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    Enumerate {
        count: usize,
        /// Each outcome rendered as the service renders it.
        outcomes: BTreeSet<String>,
    },
    Verdict {
        all_pass: bool,
        /// `(observed_allowed, outcome count)` per catalog verdict row.
        rows: Vec<(bool, usize)>,
    },
    Witness {
        found: bool,
    },
    Refutation {
        refuted: bool,
    },
    /// The service must also report every certificate it emits as
    /// `checked` and its robustness evidence as `robust_checked`.
    Certify {
        certified: bool,
        /// The robustness verdict name.
        robust: &'static str,
    },
}

impl Answer {
    /// Substrings the response must contain, in rendering order (the
    /// service renders object keys sorted).
    fn needles(&self) -> Vec<String> {
        match self {
            Answer::Enumerate { count, .. } => vec![format!("\"outcome_count\":{count},")],
            Answer::Verdict { all_pass, .. } => vec![format!("\"all_pass\":{all_pass}")],
            Answer::Witness { found } => vec![format!("\"found\":{found}")],
            Answer::Refutation { refuted } => vec![format!("\"refuted\":{refuted}")],
            Answer::Certify { certified, robust } => vec![
                format!("\"checked\":{certified}"),
                format!("\"robust\":\"{robust}\",\"robust_checked\":true"),
            ],
        }
    }
}

/// Expected answers for every request of a workload, plus what the
/// fast check of each line looks for.
#[derive(Debug, Clone)]
pub struct Oracle {
    pub answers: Vec<Answer>,
    /// Per line: the needles of its slots, in slot order.
    needles: Vec<Vec<String>>,
    /// Contradictions found while building the oracle (a certificate
    /// whose model outcome set differs from the SC one).
    pub inconsistencies: Vec<String>,
}

/// The enumeration configuration the service uses for every request.
pub fn service_config() -> EnumConfig {
    EnumConfig::builder()
        .keep_executions(false)
        .observe(true)
        .budget(None)
        .build()
}

/// Renders one outcome exactly as the service does.
fn render_outcomes(set: &OutcomeSet) -> BTreeSet<String> {
    set.iter()
        .map(|o| {
            Json::Arr(
                (0..o.thread_count())
                    .map(|t| {
                        Json::Arr(
                            o.thread_regs(t)
                                .iter()
                                .map(|v| Json::num(v.raw() as f64))
                                .collect(),
                        )
                    })
                    .collect(),
            )
            .to_string()
        })
        .collect()
}

impl Oracle {
    /// Computes every expected answer of `w`.
    ///
    /// # Errors
    ///
    /// An enumeration failure of the serial engine.
    pub fn build(w: &Workload) -> Result<Oracle, String> {
        let config = service_config();
        let mut sets: BTreeMap<(usize, ModelSel), OutcomeSet> = BTreeMap::new();
        let mut outcomes = |entry: usize, model: ModelSel| -> Result<OutcomeSet, String> {
            if let Some(set) = sets.get(&(entry, model)) {
                return Ok(set.clone());
            }
            let e = &w.catalog[entry];
            let set = enumerate(&e.test.program, &model.policy(), &config)
                .map_err(|err| format!("oracle: {} under {model}: {err}", e.test.name))?
                .outcomes;
            sets.insert((entry, model), set.clone());
            Ok(set)
        };
        let mut inconsistencies = Vec::new();
        let mut answers = Vec::with_capacity(w.reqs.len());
        for req in &w.reqs {
            let entry = &w.catalog[req.entry];
            let observable = |set: &OutcomeSet| entry.test.conditions[0].observable_in(set);
            let answer = match (req.kind, req.model) {
                (Kind::Enumerate, Some(model)) => {
                    let set = outcomes(req.entry, model)?;
                    Answer::Enumerate {
                        count: set.len(),
                        outcomes: render_outcomes(&set),
                    }
                }
                (Kind::Verdict, _) => {
                    let mut rows = Vec::new();
                    for v in &entry.verdicts {
                        let set = outcomes(req.entry, v.model)?;
                        let observed = entry.test.conditions[v.condition].observable_in(&set);
                        rows.push((observed, set.len(), v.allowed));
                    }
                    Answer::Verdict {
                        all_pass: rows
                            .iter()
                            .all(|&(observed, _, allowed)| observed == allowed),
                        rows: rows.into_iter().map(|(o, n, _)| (o, n)).collect(),
                    }
                }
                (Kind::Witness, Some(model)) => Answer::Witness {
                    found: observable(&outcomes(req.entry, model)?),
                },
                (Kind::Refutation, Some(model)) => Answer::Refutation {
                    refuted: !observable(&outcomes(req.entry, model)?),
                },
                (Kind::Certify, Some(model)) => {
                    let program = &entry.test.program;
                    let policy = model.policy();
                    let certified = samm_analyze::certify(program, &policy).is_some();
                    let robust = samm_analyze::analyze_static(program, &policy).name();
                    // Both certificates promise the SC outcome set.
                    if (certified || robust == "robust")
                        && outcomes(req.entry, model)? != outcomes(req.entry, ModelSel::Sc)?
                    {
                        inconsistencies.push(format!(
                            "{} under {model} is certified SC-equivalent, but the serial \
                             engine finds other outcomes than under SC",
                            entry.test.name
                        ));
                    }
                    Answer::Certify { certified, robust }
                }
                (kind, None) => unreachable!("{kind:?} requests carry a model"),
            };
            answers.push(answer);
        }
        let needles = w
            .lines
            .iter()
            .map(|line| {
                line.slots
                    .iter()
                    .flat_map(|&r| answers[r].needles())
                    .collect()
            })
            .collect();
        Ok(Oracle {
            answers,
            needles,
            inconsistencies,
        })
    }

    /// The hot-path check of `response` to `lines[line]`: no `ok:false`
    /// anywhere, one `ok:true` per slot (plus the batch envelope's), and
    /// every slot's answer substrings in slot order. The tallied members
    /// are flat `"name":value` pairs that never occur inside the
    /// payloads of a success response, so the scan is exact.
    pub fn fast_check(&self, lines: &[Line], line: usize, response: &str) -> bool {
        let expected_ok = lines[line].slots.len() + usize::from(lines[line].batch);
        if response.contains("\"ok\":false")
            || response.matches("\"ok\":true").count() != expected_ok
        {
            return false;
        }
        let mut at = 0;
        for needle in &self.needles[line] {
            match response[at..].find(needle.as_str()) {
                Some(i) => at += i + needle.len(),
                None => return false,
            }
        }
        true
    }

    /// Parses `response` and compares it in full with the expected
    /// answers of `lines[line]`.
    ///
    /// # Errors
    ///
    /// A description of the first mismatch.
    pub fn full_check(&self, lines: &[Line], line: usize, response: &str) -> Result<(), String> {
        let parsed = json::parse(response).map_err(|e| format!("unparseable response: {e}"))?;
        self.check_parsed(lines, line, &parsed)
    }

    /// As [`Oracle::full_check`], on an already parsed response.
    ///
    /// # Errors
    ///
    /// A description of the first mismatch.
    pub fn check_parsed(&self, lines: &[Line], line: usize, parsed: &Json) -> Result<(), String> {
        let line = &lines[line];
        if !line.batch {
            return self.check_one(line.slots[0], parsed);
        }
        expect_bool(parsed, "ok", true)?;
        let slots = parsed
            .get("responses")
            .and_then(Json::as_arr)
            .ok_or("batch response without a responses array")?;
        if slots.len() != line.slots.len() {
            return Err(format!(
                "batch of {} answered with {} slots",
                line.slots.len(),
                slots.len()
            ));
        }
        line.slots
            .iter()
            .zip(slots)
            .try_for_each(|(&r, slot)| self.check_one(r, slot))
    }

    fn check_one(&self, req: usize, got: &Json) -> Result<(), String> {
        expect_bool(got, "ok", true)?;
        match &self.answers[req] {
            Answer::Enumerate { count, outcomes } => {
                if got.get("outcome_count").and_then(Json::as_u64) != Some(*count as u64) {
                    return Err(format!("outcome_count is not {count}"));
                }
                let rendered: Option<BTreeSet<String>> = got
                    .get("outcomes")
                    .and_then(Json::as_arr)
                    .map(|a| a.iter().map(Json::to_string).collect());
                if rendered.as_ref() != Some(outcomes) {
                    return Err("outcome set differs from the serial oracle".to_owned());
                }
            }
            Answer::Verdict { all_pass, rows } => {
                let report = got.get("report").ok_or("verdict without report")?;
                expect_bool(report, "all_pass", *all_pass)?;
                let got_rows = report
                    .get("rows")
                    .and_then(Json::as_arr)
                    .ok_or("verdict without rows")?;
                if got_rows.len() != rows.len() {
                    return Err(format!(
                        "{} verdict rows, expected {}",
                        got_rows.len(),
                        rows.len()
                    ));
                }
                for (row, &(observed, count)) in got_rows.iter().zip(rows) {
                    expect_bool(row, "observed_allowed", observed)?;
                    if row.get("outcomes").and_then(Json::as_u64) != Some(count as u64) {
                        return Err(format!("verdict row outcome count is not {count}"));
                    }
                }
            }
            Answer::Witness { found } => {
                expect_bool(got, "found", *found)?;
                expect_present(got, "witness", *found)?;
            }
            Answer::Refutation { refuted } => {
                expect_bool(got, "refuted", *refuted)?;
                expect_present(got, "proof", *refuted)?;
                expect_present(got, "witness", !*refuted)?;
            }
            Answer::Certify { certified, robust } => {
                expect_bool(got, "certified", *certified)?;
                expect_bool(got, "checked", *certified)?;
                expect_bool(got, "robust_checked", true)?;
                if got.get("robust").and_then(Json::as_str) != Some(robust) {
                    return Err(format!("robust is not {robust}"));
                }
            }
        }
        Ok(())
    }
}

fn expect_bool(got: &Json, key: &str, want: bool) -> Result<(), String> {
    match got.get(key).and_then(Json::as_bool) {
        Some(b) if b == want => Ok(()),
        _ => Err(format!("{key} is not {want}: {got}")),
    }
}

/// `key` must be a non-null value exactly when `present`.
fn expect_present(got: &Json, key: &str, present: bool) -> Result<(), String> {
    let is = got.get(key).is_some_and(|v| *v != Json::Null);
    if is == present {
        Ok(())
    } else {
        Err(format!("{key} presence is not {present}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use samm_core::cache::EnumCache;
    use samm_serve::{handler, parse_envelope, ServerState};

    /// Answers `text` in-process, exactly as a server worker would.
    fn serve(state: &ServerState, text: &str) -> String {
        handler::handle_envelope(state, &parse_envelope(text).unwrap()).to_string()
    }

    /// Canned responses: every line of `fresh-mix` that names `SB` or
    /// `IRIW`, a batch, and an error.
    fn canned() -> (Workload, Oracle, Vec<(usize, String)>) {
        let mut w = Workload::build("fresh-mix", 1).unwrap();
        let batch_slots: Vec<usize> = (0..w.reqs.len())
            .filter(|&r| w.reqs[r].kind == Kind::Enumerate)
            .take(5)
            .collect();
        let body: Vec<&str> = batch_slots
            .iter()
            .map(|&r| w.reqs[r].text.as_str())
            .collect();
        w.lines.push(Line {
            text: format!(r#"{{"kind":"batch","requests":[{}]}}"#, body.join(",")),
            slots: batch_slots,
            batch: true,
        });
        let oracle = Oracle::build(&w).unwrap();
        let state = ServerState::new(EnumCache::new(64), None);
        let responses = (0..w.lines.len())
            .filter(|&l| {
                let test = &w.catalog[w.reqs[w.lines[l].slots[0]].entry].test.name;
                w.lines[l].batch || test == "SB" || test == "IRIW"
            })
            .map(|l| (l, serve(&state, &w.lines[l].text)))
            .collect();
        (w, oracle, responses)
    }

    #[test]
    fn substring_tally_agrees_with_the_full_parse() {
        let (w, oracle, responses) = canned();
        assert!(
            oracle.inconsistencies.is_empty(),
            "{:?}",
            oracle.inconsistencies
        );
        let error = r#"{"error":{"kind":"unknown-test","message":"no"},"id":"r1","ok":false}"#;
        for (line, response) in &responses {
            assert!(oracle.fast_check(&w.lines, *line, response), "{response}");
            oracle.full_check(&w.lines, *line, response).unwrap();
            // Every corruption that flips an answer fails both checks.
            let flips = [
                ("\"ok\":true", "\"ok\":false"),
                ("\"found\":true", "\"found\":false"),
                ("\"found\":false", "\"found\":true"),
                ("\"refuted\":true", "\"refuted\":false"),
                ("\"refuted\":false", "\"refuted\":true"),
                ("\"all_pass\":true", "\"all_pass\":false"),
                ("\"checked\":true", "\"checked\":false"),
                ("\"checked\":false", "\"checked\":true"),
                ("\"robust_checked\":true", "\"robust_checked\":false"),
                ("\"robust\":\"", "\"robust\":\"not-"),
                ("\"outcome_count\":", "\"outcome_count\":1"),
            ];
            for (from, to) in flips {
                if !response.contains(from) {
                    continue;
                }
                let bad = response.replacen(from, to, 1);
                assert!(!oracle.fast_check(&w.lines, *line, &bad), "{bad}");
                assert!(oracle.full_check(&w.lines, *line, &bad).is_err(), "{bad}");
            }
            assert!(!oracle.fast_check(&w.lines, *line, error));
            assert!(oracle.full_check(&w.lines, *line, error).is_err());
        }
        assert!(responses.iter().any(|(l, _)| w.lines[*l].batch));
    }

    #[test]
    fn corrupted_oracle_entry_is_a_failure() {
        let (w, mut oracle, responses) = canned();
        let (line, response) = &responses[0];
        let req = w.lines[*line].slots[0];
        let Answer::Enumerate { count, outcomes } = &mut oracle.answers[req] else {
            panic!("the first fresh-mix request is an enumerate");
        };
        *count += 1;
        outcomes.insert("[[9]]".to_owned());
        oracle.needles[*line] = oracle.answers[req].needles();
        assert!(!oracle.fast_check(&w.lines, *line, response));
        assert!(oracle.full_check(&w.lines, *line, response).is_err());
        // Same count, one wrong outcome: only the full check sees it.
        let Answer::Enumerate { count, .. } = &mut oracle.answers[req] else {
            unreachable!()
        };
        *count -= 1;
        oracle.needles[*line] = oracle.answers[req].needles();
        assert!(oracle.fast_check(&w.lines, *line, response));
        assert!(oracle.full_check(&w.lines, *line, response).is_err());
    }
}
