//! Rendering: a [`Response`] as its JSON line, and the `explain` line.
//!
//! The last stage of the request path. Both renderings are stable-key,
//! hand-formatted one-line JSON; strings pass through the workspace's
//! one escaper, [`lts_obs::json_escape`], and numbers through its one
//! number writer, [`lts_obs::json_num`].

use super::stages::{Planned, Resolved};
use super::Response;
use crate::fingerprint;
use lts_obs::{json_escape as esc, json_num as num};

impl Response {
    /// Render as one JSON object (stable key order). `mask_wall`
    /// zeroes the wall-time field so deterministic replays diff clean.
    pub fn to_json(&self, mask_wall: bool) -> String {
        let plan = match &self.plan {
            Some(p) => format!(
                ", \"plan\": {{\"kind\": \"{}\", \"prefilter\": \"{}\", \
                 \"residual\": \"{}\", \"population\": {}, \"survivors\": {}, \
                 \"selectivity\": {}}}",
                p.kind,
                esc(&p.prefilter),
                esc(&p.residual),
                p.population,
                p.survivors
                    .map_or_else(|| "null".to_string(), |s| s.to_string()),
                p.selectivity.map_or_else(|| "null".to_string(), num),
            ),
            None => String::new(),
        };
        format!(
            "{{\"id\": {}, \"ok\": {}, \"served\": \"{}\", \"route\": \"{}\", \
             \"fingerprint\": \"{:016x}\", \"estimate\": {}, \"std_error\": {}, \
             \"lo\": {}, \"hi\": {}, \"level\": {}, \"evals\": {}, \"budget\": {}, \
             \"model_version\": \"{:016x}\", \"table_version\": {}, \
             \"wall_micros\": {}{}{}{}}}",
            self.id,
            self.ok,
            self.served,
            self.route,
            self.fingerprint,
            num(self.estimate),
            num(self.std_error),
            num(self.lo),
            num(self.hi),
            num(self.level),
            self.evals,
            self.budget,
            self.model_version,
            self.table_version,
            if mask_wall { 0 } else { self.wall_micros },
            plan,
            match &self.trace {
                Some(t) => format!(", \"trace\": {}", t.to_json(mask_wall)),
                None => String::new(),
            },
            match &self.error {
                Some(e) => format!(", \"error\": \"{}\"", esc(e)),
                None => String::new(),
            },
        )
    }
}

/// The `explain` line: the chosen physical plan — route kind, planned
/// budget, decomposition parts with their own fingerprints, and
/// predicted (recorded before planning) vs observed (post-scan, as
/// `(survivors, selectivity)`) prefilter selectivity.
pub(super) fn explain_line(
    resolved: &Resolved,
    planned: &Planned,
    predicted: Option<f64>,
    observed: Option<(usize, f64)>,
) -> String {
    let opt_num = |v: Option<f64>| v.map_or_else(|| "null".to_string(), num);
    let opt_str = |v: Option<&str>| match v {
        Some(s) => format!("\"{}\"", esc(s)),
        None => "null".to_string(),
    };
    let part_fingerprint = |canonical: &str| {
        let fp = fingerprint::fingerprint(&resolved.dataset, resolved.table_version, canonical);
        format!("{fp:016x}")
    };
    let d = resolved.decomposition.as_ref();
    format!(
        "{{\"explain\": true, \"dataset\": \"{}\", \"fingerprint\": \"{:016x}\", \
             \"table_version\": {}, \"canonical\": \"{}\", \"decomposed\": {}, \
             \"route\": \"{}\", \"budget\": {}, \"population\": {}, \
             \"prefilter\": {}, \"residual\": {}, \
             \"prefilter_fingerprint\": {}, \"residual_fingerprint\": {}, \
             \"survivors\": {}, \"predicted_selectivity\": {}, \
             \"observed_selectivity\": {}}}",
        esc(&resolved.dataset),
        resolved.fingerprint,
        resolved.table_version,
        esc(&resolved.canonical),
        d.is_some(),
        planned.kind(),
        planned.budget,
        resolved.problem.n(),
        opt_str(d.map(|d| d.prefilter_canonical.as_str())),
        opt_str(d.map(|d| d.residual_canonical(&resolved.canonical))),
        opt_str(
            d.map(|d| part_fingerprint(&d.prefilter_canonical))
                .as_deref()
        ),
        opt_str(
            d.map(|d| part_fingerprint(d.residual_canonical(&resolved.canonical)))
                .as_deref()
        ),
        observed.map_or_else(|| "null".to_string(), |(m, _)| m.to_string()),
        opt_num(predicted),
        opt_num(observed.map(|(_, s)| s)),
    )
}
