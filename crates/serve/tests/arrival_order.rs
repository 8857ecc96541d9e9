//! Every span is a function of its request. Seeded scripts of
//! `register`, `count`, `explain` and `trace` lines, with a `state::save`
//! → `state::load` into a fresh service as one more step, run as written
//! and again with their explains and unrelated requests permuted. Per
//! request id, the two runs must agree on every pure field
//! (docs/observability.md, "The determinism contract"): the response's
//! `ok`, `error`, `route`, `plan`, `estimate`, `lo` and `hi`, and its
//! span's `route` and `prefilter` events. The history fields — `served`,
//! `evals`, the span's cache, store, phase and stage-2 events — depend
//! on what ran before, by design, and are not compared.
//!
//! Requests over one canonical query (a family: any budget, `fresh` or
//! not, any spelling) keep their order; everything else moves. An
//! `explain` plans its query as a count does, so a count that follows
//! one plans over a memoized plan, and one that precedes it builds the
//! plan: a span that reports what was built rather than what is used
//! differs between the two runs.
//!
//! The generator is std-only and fixed-seed (SplitMix64, as in
//! `state_fuzz.rs`), so every run replays the same scripts. CI runs this
//! binary at the default worker count and at one rayon worker.

use lts_serve::{
    handle_line, state, LineOutcome, ReplOptions, Service, ServiceConfig, SessionState,
};
use std::collections::BTreeMap;
use std::path::Path;

/// Scripts each test runs: four tests, so that 10³ scripts spread over
/// the test threads.
const SCRIPTS: u64 = 250;

/// SplitMix64: a fixed, std-only stream.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One step of a script after its registrations.
#[derive(Clone)]
enum Step {
    /// A `count` line with an explicit id, then `trace <id>`; `family`
    /// names its canonical query.
    Count {
        family: usize,
        id: u64,
        line: String,
    },
    /// An `explain` line.
    Explain(String),
    /// `state::save`, then `state::load` into a fresh service, which
    /// serves the rest of the script.
    Restore,
}

/// A query family's spellings over dataset `d`: one canonical query,
/// spelled one or two ways.
fn family(rng: &mut Stream, d: &str) -> Vec<String> {
    let dominated = |k: usize| {
        format!(
            "(SELECT COUNT(*) FROM {d} WHERE strikeouts >= o.strikeouts AND wins >= o.wins) < {k}"
        )
    };
    let (a, b, k) = (
        40 + 10 * rng.below(10),
        2 + rng.below(12),
        5 + 5 * rng.below(20),
    );
    match rng.below(11) {
        0 => vec![format!("strikeouts < {a}")],
        1 => vec![
            format!("wins > {b} AND strikeouts < {a}"),
            format!("strikeouts < {a} AND wins > {b}"),
        ],
        2 => vec![dominated(k)],
        3 => vec![
            format!("strikeouts > {a} AND {}", dominated(k)),
            format!("{} AND strikeouts > {a}", dominated(k)),
        ],
        4 | 5 => vec![format!(
            "wins > {b} AND (SELECT COUNT(*) FROM {d} WHERE wins >= o.wins) < {k}"
        )],
        6 => vec![format!("strikeouts < {a} AND")],
        _ => vec![
            format!("strikeouts > {a} AND {}", dominated(k)),
            format!("{} AND strikeouts > {a}", dominated(k)),
        ],
    }
}

/// Script `seed`: its registrations and its steps.
fn script(seed: u64) -> (Vec<String>, Vec<Step>) {
    let mut rng = Stream(seed);
    let datasets = ["s", "t"];
    let registers = datasets
        .iter()
        .map(|d| {
            let rows = 400 + 200 * rng.below(4);
            let data_seed = 1 + rng.below(40);
            format!("register sports {d} rows={rows} level=M seed={data_seed}")
        })
        .collect();
    let families: Vec<(&str, Vec<String>)> = (0..2 + rng.below(3))
        .map(|_| {
            let d = datasets[rng.below(2)];
            (d, family(&mut rng, d))
        })
        .collect();
    let mut steps = Vec::new();
    let mut restored = false;
    for id in 0..5 + rng.below(6) as u64 {
        let f = rng.below(families.len());
        let (d, spellings) = &families[f];
        let condition = &spellings[rng.below(spellings.len())];
        let budget = [60, 90, 150][rng.below(3)];
        if rng.below(4) == 0 {
            steps.push(Step::Explain(format!(
                "explain {d} budget={budget} :: {condition}"
            )));
        }
        let fresh = if rng.below(3) == 0 { " fresh" } else { "" };
        steps.push(Step::Count {
            family: f,
            id,
            line: format!("count {d} budget={budget}{fresh} id={id} :: {condition}"),
        });
        if !restored && rng.below(8) == 0 {
            steps.push(Step::Restore);
            restored = true;
        }
    }
    (registers, steps)
}

/// `steps` shuffled, except that the restore keeps its place and each
/// family's counts keep their order.
fn permuted(steps: &[Step], rng: &mut Stream) -> Vec<Step> {
    let slots: Vec<usize> = (0..steps.len())
        .filter(|&i| !matches!(steps[i], Step::Restore))
        .collect();
    let mut order = slots.clone();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let mut out = steps.to_vec();
    for (&slot, &from) in slots.iter().zip(&order) {
        out[slot] = steps[from].clone();
    }
    // Each family's counts, back in their written order over the slots
    // they landed on.
    let mut by_family: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (slot, step) in out.iter().enumerate() {
        if let Step::Count { family, .. } = step {
            by_family.entry(*family).or_default().push(slot);
        }
    }
    for (family, landed) in by_family {
        let written = steps
            .iter()
            .filter(|s| matches!(s, Step::Count { family: f, .. } if *f == family));
        for (slot, step) in landed.into_iter().zip(written) {
            out[slot] = step.clone();
        }
    }
    out
}

fn reply(service: &mut Service, session: &mut SessionState, line: &str) -> String {
    let opts = ReplOptions {
        deterministic: true,
    };
    match handle_line(service, session, opts, line) {
        LineOutcome::Reply(reply) => reply,
        _ => panic!("`{line}` gave no reply"),
    }
}

/// The value of `"key": …` in a one-line JSON object: a number, a
/// string or a flat object.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let marker = format!("\"{key}\": ");
    let rest = &line[line.find(&marker)? + marker.len()..];
    let bytes = rest.as_bytes();
    let end = match bytes[0] {
        b'{' => rest.find('}')? + 1,
        // A string ends at the first quote no backslash escapes.
        b'"' => (1..bytes.len()).find(|&i| bytes[i] == b'"' && bytes[i - 1] != b'\\')? + 1,
        _ => rest.find([',', '}'])?,
    };
    Some(&rest[..end])
}

/// The pure fields of a count's response and of its span, as text.
fn pure(response: &str, trace: &str) -> String {
    let mut out: Vec<String> = ["ok", "error", "route", "plan", "estimate", "lo", "hi"]
        .iter()
        .map(|key| format!("{key}={}", field(response, key).unwrap_or("-")))
        .collect();
    // A span's events are flat objects; the route and prefilter ones
    // are pure.
    let events = trace.split("{\"event\": ").skip(1);
    out.extend(
        events
            .filter(|e| e.starts_with("\"route\"") || e.starts_with("\"prefilter\""))
            .map(|e| e[..e.find('}').unwrap_or(e.len())].to_string()),
    );
    out.join(" ")
}

/// Run one script: every count's pure fields, by id.
fn run(registers: &[String], steps: &[Step], dir: &Path) -> BTreeMap<u64, String> {
    let mut service = Service::new(ServiceConfig::default());
    let mut session = SessionState::default();
    for line in registers {
        let registered = reply(&mut service, &mut session, line);
        assert!(registered.starts_with("{\"ok\": true"), "{registered}");
    }
    let mut by_id = BTreeMap::new();
    for step in steps {
        match step {
            Step::Count { id, line, .. } => {
                let response = reply(&mut service, &mut session, line);
                let trace = reply(&mut service, &mut session, &format!("trace {id}"));
                by_id.insert(*id, pure(&response, &trace));
            }
            Step::Explain(line) => {
                reply(&mut service, &mut session, line);
            }
            Step::Restore => {
                state::save(&service, dir).unwrap();
                service = Service::new(ServiceConfig::default());
                state::load(&mut service, dir).unwrap().unwrap();
            }
        }
    }
    by_id
}

/// Scripts `first..first + SCRIPTS`, each run as written and permuted.
fn scripts_agree(first: u64) {
    let dir =
        std::env::temp_dir().join(format!("lts_arrival_order_{first}_{}", std::process::id()));
    for seed in first..first + SCRIPTS {
        let (registers, steps) = script(seed);
        let shuffled = permuted(&steps, &mut Stream(!seed));
        let written = run(&registers, &steps, &dir);
        let moved = run(&registers, &shuffled, &dir);
        assert_eq!(written.len(), moved.len());
        for (id, pure) in &written {
            let listing = |steps: &[Step]| -> Vec<String> {
                (steps.iter())
                    .map(|s| match s {
                        Step::Count { line, .. } => line.clone(),
                        Step::Explain(line) => line.clone(),
                        Step::Restore => "(save → load)".into(),
                    })
                    .collect()
            };
            assert_eq!(
                Some(pure),
                moved.get(id),
                "script {seed}, id {id}\nwritten: {:#?}\npermuted: {:#?}",
                listing(&steps),
                listing(&shuffled)
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pure_fields_agree_in_any_arrival_order_0() {
    scripts_agree(0);
}

#[test]
fn pure_fields_agree_in_any_arrival_order_1() {
    scripts_agree(SCRIPTS);
}

#[test]
fn pure_fields_agree_in_any_arrival_order_2() {
    scripts_agree(2 * SCRIPTS);
}

#[test]
fn pure_fields_agree_in_any_arrival_order_3() {
    scripts_agree(3 * SCRIPTS);
}
