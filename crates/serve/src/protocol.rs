//! The `lts-serve` line protocol, shared by every front-end.
//!
//! One implementation of the line-in/JSON-out command grammar serves
//! both the stdin REPL ([`crate::repl`]) and the TCP server
//! ([`crate::net`]), so the golden transcripts pinned against the REPL
//! are the single source of truth for the network path too.
//!
//! ```text
//! register <sports|neighbors> <name> rows=<n> level=<XS|S|M|L|XL|XXL> seed=<u64>
//! count <dataset> [width=<frac>|abswidth=<counts>|budget=<n>] [fresh] [id=<u64>] :: <condition>
//! explain <dataset> [width=<frac>|abswidth=<counts>|budget=<n>] :: <condition>
//! invalidate <dataset>
//! stats
//! metrics [prom]   (registry snapshot: flat JSON, or Prometheus text)
//! trace <id>       (most recent retained trace span for a request id)
//! slow [k]         (top-k most oracle-expensive requests)
//! quit          (close this session; the server keeps running)
//! shutdown      (ack, then drain the whole server and exit)
//! ```
//!
//! `rows` must lie in `1..=`[`crate::service::MAX_REGISTER_ROWS`]
//! (default 4 000). A `<condition>` may nest at most
//! `lts_table::parser::MAX_CONDITION_DEPTH` (256) levels — open
//! parentheses around any point, and nodes of the parsed tree above any
//! leaf (an `a AND b AND …` chain is one level per link); past that it
//! is a parse error like any other.
//!
//! Every command yields exactly one JSON response line, except `quit`
//! (silent close) and blank/`#` lines (skipped). Request ids not given
//! explicitly are assigned from a per-session counter starting at 0 —
//! two sessions therefore assign overlapping ids, which is safe by the
//! determinism contract (a response is a pure function of the id, so
//! equal ids for equal requests replay the same response) but means
//! clients that want distinct `fresh` streams should pass explicit ids.

use crate::error::ServeError;
use crate::planner::Target;
use crate::service::{DatasetSpec, Request, Service};

/// Options shared by every protocol front-end.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplOptions {
    /// Zero wall-time fields in every response (golden-diff mode).
    pub deterministic: bool,
}

/// Per-session protocol state (one per REPL run / TCP connection).
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionState {
    /// Next auto-assigned request id for `count` without `id=`.
    pub next_id: u64,
}

/// What one protocol line asks the front-end to do.
#[derive(Debug, Clone)]
pub enum LineOutcome {
    /// Nothing to write (blank or comment line).
    Silent,
    /// Write this JSON response line.
    Reply(String),
    /// Close this session without a reply.
    Quit,
    /// Write the acknowledgement line, then gracefully shut the whole
    /// server down (the REPL treats this as an acked `quit`).
    Shutdown(String),
}

/// Render a protocol-level error as a JSON response line.
pub(crate) fn json_err(message: &str) -> String {
    format!(
        "{{\"ok\": false, \"error\": \"{}\"}}",
        lts_obs::json_escape(message)
    )
}

/// The response given to requests refused because the server is
/// draining: admitted-but-unexecuted requests at shutdown, and any
/// request submitted after shutdown began.
pub(crate) fn shutting_down_line() -> String {
    json_err("shutting_down: the server is draining and refuses new requests")
}

fn kv<'a>(tok: &'a str, key: &str) -> Option<&'a str> {
    tok.strip_prefix(key).and_then(|r| r.strip_prefix('='))
}

/// Parse a `width=` / `abswidth=` / `budget=` token into the target it
/// names (`None` for any other token) — the option `count` and
/// `explain` share.
fn target_option(tok: &str) -> Option<Result<Target, &'static str>> {
    let (key, v) = tok.split_once('=')?;
    Some(match key {
        "width" => v.parse().map(Target::RelWidth).map_err(|_| "bad width"),
        "abswidth" => v.parse().map(Target::AbsWidth).map_err(|_| "bad abswidth"),
        "budget" => v.parse().map(Target::Budget).map_err(|_| "bad budget"),
        _ => return None,
    })
}

fn stats_json(service: &Service) -> String {
    let s = service.stats();
    // No request is refused at admission: `rejected` reads 0.
    format!(
        "{{\"ok\": true, \"requests\": {}, \"rejected\": 0, \"errors\": {}, \
         \"exact\": {}, \"cold\": {}, \"warm\": {}, \"cached\": {}, \
         \"oracle_evals\": {}, \"oracle_evals_cold\": {}, \"oracle_evals_warm\": {}, \
         \"oracle_evals_exact\": {}, \"oracle_evals_saved\": {}, \
         \"catalog\": {}, \"store\": {}, \"cache\": {}}}",
        s.requests,
        s.errors,
        s.exact,
        s.cold,
        s.warm,
        s.cached,
        s.oracle_evals,
        s.oracle_evals_cold,
        s.oracle_evals_warm,
        s.oracle_evals_exact,
        s.oracle_evals_saved,
        service.catalog_len(),
        service.store_len(),
        service.cache_len(),
    )
}

/// `metrics` — one-line JSON snapshot of the registry; `metrics prom`
/// — the Prometheus exposition, JSON-wrapped as an escaped string so
/// the line protocol's one-line-per-reply framing holds. Deterministic
/// mode masks `wall_*` metrics in both renderings.
fn handle_metrics(service: &Service, rest: &str, opts: ReplOptions) -> String {
    let obs = service.observability();
    if !obs.registry.is_enabled() {
        return json_err("metrics registry is disabled");
    }
    let snapshot = obs.registry.snapshot();
    match rest.trim() {
        "" => format!(
            "{{\"ok\": true, \"metrics\": {}}}",
            snapshot.to_json(opts.deterministic)
        ),
        "prom" => format!(
            "{{\"ok\": true, \"prometheus\": \"{}\"}}",
            lts_obs::json_escape(&snapshot.to_prometheus(opts.deterministic))
        ),
        other => json_err(&format!("unknown metrics option `{other}`")),
    }
}

/// `trace <id>` — replay the most recent retained trace span for a
/// request id from the bounded ring.
fn handle_trace(service: &Service, rest: &str, opts: ReplOptions) -> String {
    let Ok(id) = rest.trim().parse::<u64>() else {
        return json_err("usage: trace <request-id>");
    };
    match service.observability().ring.get(id) {
        Some(trace) => format!(
            "{{\"ok\": true, \"trace\": {}}}",
            trace.to_json(opts.deterministic)
        ),
        None => json_err(&format!("no trace retained for id {id}")),
    }
}

/// `slow [k]` — the top-k most oracle-expensive requests, in the slow
/// log's deterministic order.
fn handle_slow(service: &Service, rest: &str) -> String {
    let slow = &service.observability().slow;
    let k = match rest.trim() {
        "" => slow.capacity(),
        v => match v.parse::<usize>() {
            Ok(k) => k,
            Err(_) => return json_err("usage: slow [k]"),
        },
    };
    let entries: Vec<String> = slow.top(k).iter().map(|e| e.to_json()).collect();
    format!("{{\"ok\": true, \"slow\": [{}]}}", entries.join(", "))
}

fn handle_register(service: &mut Service, rest: &str) -> String {
    let toks: Vec<&str> = rest.split_whitespace().collect();
    if toks.len() < 2 {
        return json_err("usage: register <sports|neighbors> <name> rows=<n> level=<L> seed=<s>");
    }
    let (kind, name) = (toks[0], toks[1]);
    let (mut rows, mut level, mut seed) = (4_000usize, "M".to_string(), 11u64);
    for tok in &toks[2..] {
        if let Some(v) = kv(tok, "rows") {
            match v.parse() {
                Ok(n) => rows = n,
                Err(_) => return json_err("bad rows"),
            }
        } else if let Some(v) = kv(tok, "level") {
            level = v.to_string();
        } else if let Some(v) = kv(tok, "seed") {
            match v.parse() {
                Ok(s) => seed = s,
                Err(_) => return json_err("bad seed"),
            }
        } else {
            return json_err(&format!("unknown register option `{tok}`"));
        }
    }
    // The service records the recipe so the durable-state snapshot can
    // re-generate the identical dataset on restart.
    let spec = DatasetSpec {
        kind: kind.to_string(),
        rows,
        level,
        seed,
    };
    match service.register_generated(name, &spec) {
        Ok(()) => format!(
            "{{\"ok\": true, \"registered\": \"{}\", \"rows\": {}, \
             \"version\": {}}}",
            lts_obs::json_escape(name),
            service.dataset_len(name).unwrap_or(0),
            service.dataset_version(name).unwrap_or(0)
        ),
        // `Invalid` carries the protocol-facing message verbatim
        // (unknown kind/level, generator failures).
        Err(ServeError::Invalid { message }) => json_err(&message),
        Err(e) => json_err(&e.to_string()),
    }
}

fn handle_count(service: &mut Service, rest: &str, next_id: &mut u64, opts: ReplOptions) -> String {
    let Some((head, condition)) = rest.split_once("::") else {
        return json_err("count needs `:: <condition>`");
    };
    let toks: Vec<&str> = head.split_whitespace().collect();
    if toks.is_empty() {
        return json_err("count needs a dataset name");
    }
    let dataset = toks[0].to_string();
    let mut target = Target::RelWidth(0.05);
    let mut fresh = false;
    let mut id: Option<u64> = None;
    for tok in &toks[1..] {
        if let Some(parsed) = target_option(tok) {
            match parsed {
                Ok(t) => target = t,
                Err(e) => return json_err(e),
            }
        } else if *tok == "fresh" {
            fresh = true;
        } else if let Some(v) = kv(tok, "id") {
            match v.parse() {
                Ok(i) => id = Some(i),
                Err(_) => return json_err("bad id"),
            }
        } else {
            return json_err(&format!("unknown count option `{tok}`"));
        }
    }
    let id = id.unwrap_or_else(|| {
        let i = *next_id;
        *next_id += 1;
        i
    });
    let response = service.run(Request {
        id,
        dataset,
        condition: condition.trim().to_string(),
        target,
        fresh,
    });
    response.to_json(opts.deterministic)
}

fn handle_explain(service: &mut Service, rest: &str) -> String {
    let Some((head, condition)) = rest.split_once("::") else {
        return json_err("explain needs `:: <condition>`");
    };
    let toks: Vec<&str> = head.split_whitespace().collect();
    if toks.is_empty() {
        return json_err("explain needs a dataset name");
    }
    let dataset = toks[0];
    let mut target = Target::RelWidth(0.05);
    for tok in &toks[1..] {
        match target_option(tok) {
            Some(Ok(t)) => target = t,
            Some(Err(e)) => return json_err(e),
            None => return json_err(&format!("unknown explain option `{tok}`")),
        }
    }
    match service.explain(dataset, condition.trim(), target) {
        Ok(line) => line,
        Err(e) => json_err(&e.to_string()),
    }
}

/// Execute one protocol line against the service. The single protocol
/// implementation behind both the REPL and the TCP server: any change
/// here shows up identically in the golden transcripts of both.
pub fn handle_line(
    service: &mut Service,
    session: &mut SessionState,
    opts: ReplOptions,
    line: &str,
) -> LineOutcome {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return LineOutcome::Silent;
    }
    let (cmd, rest) = line.split_once(' ').unwrap_or((line, ""));
    match cmd {
        "quit" | "exit" => LineOutcome::Quit,
        "shutdown" => LineOutcome::Shutdown("{\"ok\": true, \"shutting_down\": true}".to_string()),
        "register" => LineOutcome::Reply(handle_register(service, rest)),
        "count" => LineOutcome::Reply(handle_count(service, rest, &mut session.next_id, opts)),
        "explain" => LineOutcome::Reply(handle_explain(service, rest)),
        "invalidate" => LineOutcome::Reply(match service.invalidate(rest.trim()) {
            Ok(()) => format!(
                "{{\"ok\": true, \"invalidated\": \"{}\", \"version\": {}}}",
                lts_obs::json_escape(rest.trim()),
                service.dataset_version(rest.trim()).unwrap_or(0)
            ),
            Err(e) => json_err(&e.to_string()),
        }),
        "stats" => LineOutcome::Reply(stats_json(service)),
        "metrics" => LineOutcome::Reply(handle_metrics(service, rest, opts)),
        "trace" => LineOutcome::Reply(handle_trace(service, rest, opts)),
        "slow" => LineOutcome::Reply(handle_slow(service, rest)),
        other => LineOutcome::Reply(json_err(&format!("unknown command `{other}`"))),
    }
}
