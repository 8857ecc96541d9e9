//! The four workloads: their sizing constants, set-up, timed passes
//! and output checks, and the traced variant of each.
//!
//! Every workload is a closed loop in one process: the next op is
//! sent when the previous reply has arrived. A run is a fixed op list
//! (from `--seed`) executed for a fixed number of passes; the pass
//! count scales with `--seconds`, nothing else reads the clock.

use crate::host::{cpu_jiffies, process_usage, steal_share};
use crate::json::Json;
use crate::layers::{Derived, LayerCtx, Mode, Res, WarmEntry};
use crate::ops::{cycle_ops, monolithic_ops, planned_ops, Inputs, Op, Slot};
use crate::spans::{closure_share, medians_us, Recorder, Span};
use crate::stats::{median, percentile, sorted, spread, summarize_passes, Pass};
use lts_serve::{
    handle_line, state, LineOutcome, NetConfig, NetServer, ReplOptions, Response, Service,
    ServiceConfig, SessionState, Target,
};
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::Instant;

// ------------------------------------------------------------- sizing
//
// Constants, never computed at run time. Sized on the 2-vCPU
// Firecracker guest recorded in `baseline/host.json` so that
// `PASSES` passes take about `RUN_SECONDS` seconds on every workload
// (README, "Sizing").

/// Rows per dataset.
pub const ROWS: usize = 8_000;
/// The `run_seconds` of `BENCHMARK.json`: `--seconds` at which a run
/// makes [`PASSES`] passes.
pub const RUN_SECONDS: u64 = 18;
/// Timed passes at `--seconds` = [`RUN_SECONDS`].
pub const PASSES: usize = 7;
/// Untimed warm-up ops at the end of each set-up.
pub const WARMUP_OPS: usize = 5;
/// TCP connections (= driver threads) of `tcp_hot`; `nproc` is 2.
pub const CONNECTIONS: usize = 2;
/// Sports (cheaper subquery) and neighbors slots of an op mix.
const fn s(target: Target) -> Slot {
    (0, target)
}
const fn n(target: Target) -> Slot {
    (1, target)
}
/// The monolithic cold mix: four cost classes, cheapest first
/// sports/150, neighbors/150, sports/200, neighbors/200, weighted
/// 2 : 4 : 2 : 2 so that a pass's median falls inside the second
/// class and its p90 at the middle of the fourth.
const MONO_MIX: [Slot; 10] = {
    let (lo, hi) = (Target::Budget(200), Target::Budget(250));
    [
        s(lo),
        n(lo),
        s(hi),
        n(hi),
        n(lo),
        s(lo),
        n(lo),
        s(hi),
        n(hi),
        n(lo),
    ]
};
/// Three sports ops to one neighbors op: a pass's median falls inside
/// the sports class, its p90 inside the neighbors class.
const fn three_to_one(target: Target) -> [Slot; 4] {
    [s(target), s(target), n(target), s(target)]
}
/// Budget of the prepared working sets (`warm_restored`, `tcp_hot`):
/// 300 labels leave a 52-label stage 2 under the serve profile.
const WORKING_SET_BUDGET: usize = 300;
/// Width target of the planned cold ops.
const PLANNED_WIDTH: f64 = 0.05;

/// One of the four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Distinct monolithic counts, every op a full cold prepare.
    ColdMono,
    /// Distinct `cheap AND subquery` counts through the planner.
    ColdPlanned,
    /// Fresh estimates from a restored model store.
    WarmRestored,
    /// Cached counts over loopback TCP.
    TcpHot,
}

impl Workload {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ColdMono,
        Workload::ColdPlanned,
        Workload::WarmRestored,
        Workload::TcpHot,
    ];

    /// Name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdMono => "cold_mono",
            Workload::ColdPlanned => "cold_planned",
            Workload::WarmRestored => "warm_restored",
            Workload::TcpHot => "tcp_hot",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (one line, ≤ 200 characters).
    pub fn why(self) -> &'static str {
        match self {
            Workload::ColdMono => {
                "distinct monolithic subquery counts on a fresh service: every op is a full cold \
                 prepare, dominated by the lts_strata design DP, then lts_learn training and the \
                 lts_table oracle"
            }
            Workload::ColdPlanned => {
                "distinct cheap-AND-subquery counts: planner route prefilter scan + restrict + a \
                 small design, so scan and planner changes show here and a DP speed-up must not"
            }
            Workload::WarmRestored => {
                "fresh estimates over 8 queries from a model store restored by state::load: \
                 store hit + stage 2, lts_table oracle batches and rayon-shim calls; set-up carries \
                 save + restore"
            }
            Workload::TcpHot => {
                "cached counts over 2 loopback TCP connections: reader, admission, dispatcher, \
                 result cache, render, write queue, socket; zero oracle work, so estimator changes \
                 must not show"
            }
        }
    }

    /// Ops per pass.
    fn ops_per_pass(self) -> usize {
        match self {
            Workload::ColdMono => 20,
            Workload::ColdPlanned => 160,
            Workload::WarmRestored => 240,
            Workload::TcpHot => CONNECTIONS * 10_000,
        }
    }

    /// Complete set-ups per run; `setup_s` is their median. The cold
    /// set-ups are short (five cold ops and two generators), so they
    /// are repeated more often for the same steadiness.
    fn setups(self) -> usize {
        match self {
            Workload::ColdMono => 5,
            Workload::ColdPlanned => 9,
            Workload::WarmRestored | Workload::TcpHot => 3,
        }
    }

    /// Distinct prepared queries the ops cycle over (0: every op is
    /// its own query).
    fn working_set(self) -> usize {
        match self {
            Workload::ColdMono | Workload::ColdPlanned => 0,
            Workload::WarmRestored | Workload::TcpHot => 8,
        }
    }

    /// What must have served every timed op.
    fn served(self) -> &'static str {
        match self {
            Workload::ColdMono | Workload::ColdPlanned => "cold",
            Workload::WarmRestored => "warm",
            Workload::TcpHot => "cached",
        }
    }

    fn mode(self) -> Mode {
        match self {
            Workload::ColdMono | Workload::ColdPlanned => Mode::Cold,
            Workload::WarmRestored => Mode::Warm,
            Workload::TcpHot => Mode::Cached,
        }
    }

    fn run_span(self) -> &'static str {
        match self.mode() {
            Mode::Cold => "serve.run_cold",
            Mode::Warm => "serve.run_warm",
            Mode::Cached => "serve.run_cached",
        }
    }
}

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Nominal measuring time; scales the pass count.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of an end-to-end run.
    pub trace: bool,
    /// Smoke run: ops ÷ 10, one pass, one set-up; checks only.
    pub smoke: bool,
    /// Directory for the files the run itself needs (state snapshot,
    /// paged table); created, and removed again at the end.
    pub scratch: PathBuf,
}

/// What a run found.
pub struct RunOutput {
    /// Every output check held.
    pub correct: bool,
    /// Timed ops attempted.
    pub attempted: u64,
    /// Timed ops that failed a check.
    pub failed: u64,
    /// Metric values by name: the end-to-end table for an untraced
    /// run, the per-layer table for a traced one.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Untraced runs only: the per-layer metrics that cost nothing to
    /// take (pass spread, steal, accuracy against truth) — written to
    /// the run file and printed as comments, never in the result line.
    pub diagnostics: BTreeMap<&'static str, f64>,
    /// Spans of a traced run.
    pub spans: Vec<Span>,
    /// First few check failures, for the operator.
    pub problems: Vec<String>,
    /// One line per pass (`p50 max wall cpu spin`), for reading a noisy run.
    pub pass_lines: Vec<String>,
    /// The raw timings, one line per pass in run order: `plain|traced`,
    /// wall s, CPU s, host spin ms, then every op's latency in ms —
    /// written under `--out` for judging estimators offline.
    pub pass_matrix: String,
}

// ------------------------------------------------------------ replies

/// The fields of one reply the checks read, from either front-end.
#[derive(Debug, Clone)]
struct Reply {
    ok: bool,
    served: String,
    route: String,
    plan_kind: Option<String>,
    evals: u64,
    estimate: f64,
    lo: f64,
    hi: f64,
    /// The deterministic rendering: every pass must repeat pass 1's.
    det: String,
}

impl Reply {
    fn from_response(r: &Response) -> Reply {
        Reply {
            ok: r.ok,
            served: r.served.to_string(),
            route: r.route.to_string(),
            plan_kind: r.plan.as_ref().map(|p| p.kind.to_string()),
            evals: r.evals as u64,
            estimate: r.estimate,
            lo: r.lo,
            hi: r.hi,
            det: r.to_json(true),
        }
    }

    /// Parse a protocol reply line; `None` when it is not the JSON
    /// object a `count` reply must be.
    fn from_line(line: &str) -> Option<Reply> {
        let v = Json::parse(line).ok()?;
        let text = |k: &str| v.get(k).and_then(Json::as_str).map(str::to_string);
        let num = |k: &str| v.get(k).and_then(Json::as_f64);
        Some(Reply {
            ok: v.get("ok")?.as_bool()?,
            served: text("served")?,
            route: text("route")?,
            plan_kind: v
                .get("plan")
                .and_then(|p| p.get("kind"))
                .and_then(Json::as_str)
                .map(str::to_string),
            evals: num("evals")? as u64,
            estimate: num("estimate")?,
            lo: num("lo")?,
            hi: num("hi")?,
            det: line.to_string(),
        })
    }
}

/// Check one timed reply: ok, served by the expected mode and route,
/// and — after pass 1 — equal to pass 1's deterministic rendering.
fn check(workload: Workload, reply: &Reply, first: Option<&Reply>) -> Result<(), String> {
    if !reply.ok {
        return Err(format!("not ok: {}", reply.det));
    }
    if reply.served != workload.served() {
        return Err(format!(
            "served `{}`, expected `{}`",
            reply.served,
            workload.served()
        ));
    }
    if reply.route != "lss" {
        return Err(format!("route `{}`, expected `lss`", reply.route));
    }
    let want_plan = (workload == Workload::ColdPlanned).then_some("prefilter_estimate");
    if reply.plan_kind.as_deref() != want_plan {
        return Err(format!(
            "plan {:?}, expected {want_plan:?}",
            reply.plan_kind
        ));
    }
    if workload == Workload::TcpHot && reply.evals != 0 {
        return Err(format!("cached reply spent {} evals", reply.evals));
    }
    match first {
        Some(f) if f.det != reply.det => Err(format!(
            "differs from pass 1: `{}` vs `{}`",
            reply.det, f.det
        )),
        _ => Ok(()),
    }
}

// ------------------------------------------------------------ op lists

/// The op lists of one run.
struct Plan {
    /// Queries prepared during set-up (empty for the cold workloads).
    prepared: Vec<Op>,
    /// The timed ops of one pass.
    ops: Vec<Op>,
    /// Untimed warm-up ops.
    warmup: Vec<Op>,
}

impl Plan {
    fn new(workload: Workload, inputs: &Inputs, smoke: bool) -> Plan {
        let q = if smoke {
            (workload.ops_per_pass() / 10).max(2 * CONNECTIONS)
        } else {
            workload.ops_per_pass()
        };
        match workload {
            Workload::ColdMono => {
                let ops = monolithic_ops(inputs, q, &MONO_MIX, false);
                Plan {
                    warmup: ops[..WARMUP_OPS.min(ops.len())].to_vec(),
                    prepared: Vec::new(),
                    ops,
                }
            }
            Workload::ColdPlanned => {
                let ops = planned_ops(inputs, q, &three_to_one(Target::RelWidth(PLANNED_WIDTH)));
                Plan {
                    warmup: ops[..WARMUP_OPS.min(ops.len())].to_vec(),
                    prepared: Vec::new(),
                    ops,
                }
            }
            Workload::WarmRestored | Workload::TcpHot => {
                let fresh = workload == Workload::WarmRestored;
                let prepared = monolithic_ops(
                    inputs,
                    workload.working_set(),
                    &three_to_one(Target::Budget(WORKING_SET_BUDGET)),
                    false,
                );
                Plan {
                    // Timed ids start at 10 000, warm-up ids at 1 000:
                    // a fresh op's estimate is a function of its id.
                    ops: cycle_ops(&prepared, q, 10_000, fresh),
                    warmup: cycle_ops(&prepared, WARMUP_OPS, 1_000, fresh),
                    prepared,
                }
            }
        }
    }
}

// ------------------------------------------------------------- set-up

/// A service with both datasets registered from their recipes — the
/// protocol's `register` path; the generators run inside.
fn registered_service(inputs: &Inputs, config: ServiceConfig) -> Res<Service> {
    let mut svc = Service::new(config);
    for pop in inputs.populations() {
        svc.register_generated(pop.name, &inputs.spec(pop))
            .map_err(|e| e.to_string())?;
    }
    Ok(svc)
}

/// A fresh service over the already generated tables — the per-pass
/// reset of the cold workloads (not part of `setup_s`).
fn reset_service(inputs: &Inputs) -> Res<Service> {
    let mut svc = Service::new(ServiceConfig::default());
    for pop in inputs.populations() {
        svc.register_dataset(pop.name, Arc::clone(&pop.table), &pop.cols)
            .map_err(|e| e.to_string())?;
    }
    Ok(svc)
}

fn expect_served(reply: &Reply, served: &str, what: &str) -> Res<()> {
    if reply.ok && reply.served == served {
        Ok(())
    } else {
        Err(format!("{what}: expected `{served}`, got {}", reply.det))
    }
}

/// One protocol connection.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Res<Client> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Client { stream, reader })
    }

    /// Send one newline-terminated request and read the reply line
    /// into `reply` (cleared first).
    fn roundtrip(&mut self, request: &str, reply: &mut String) -> Res<()> {
        debug_assert!(request.ends_with('\n'));
        self.stream
            .write_all(request.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        reply.clear();
        let n = self
            .reader
            .read_line(reply)
            .map_err(|e| format!("receive: {e}"))?;
        if n == 0 {
            return Err("peer closed the connection".into());
        }
        reply.truncate(reply.trim_end().len());
        Ok(())
    }

    fn ask(&mut self, request: &str) -> Res<String> {
        let mut reply = String::new();
        self.roundtrip(&format!("{request}\n"), &mut reply)?;
        Ok(reply)
    }
}

/// A running in-process server with its connections.
struct Net {
    server: NetServer,
    clients: Vec<Client>,
}

impl Net {
    /// Close the connections, drain the server, join its threads.
    fn stop(self) {
        drop(self.clients);
        self.server.shutdown();
        self.server.join();
    }
}

/// What set-up leaves for the timed passes.
enum State {
    /// Cold workloads: every pass builds its own service.
    Cold,
    /// `warm_restored`: the restored service.
    Restored(Box<Service>),
    /// `tcp_hot`: the server and its connections.
    Net(Net),
}

impl State {
    fn stop(self) {
        if let State::Net(net) = self {
            net.stop();
        }
    }
}

/// Numbers a set-up measures about itself.
#[derive(Debug, Default, Clone, Copy)]
struct SetupFacts {
    snapshot_save_us: f64,
    snapshot_load_us: f64,
    snapshot_bytes: f64,
    restore_evals: f64,
}

/// One complete set-up: registration (data generation inside),
/// priming, (`warm_restored`) save + load with its checks, (`tcp_hot`)
/// bind + connect, and the warm-up ops.
fn set_up(
    workload: Workload,
    inputs: &Inputs,
    plan: &Plan,
    scratch: &Path,
) -> Res<(State, SetupFacts)> {
    let mut facts = SetupFacts::default();
    let state = match workload {
        Workload::ColdMono | Workload::ColdPlanned => {
            let mut svc = registered_service(inputs, ServiceConfig::default())?;
            for op in &plan.warmup {
                let reply = Reply::from_response(&svc.run(op.request()));
                expect_served(&reply, "cold", "warm-up")?;
            }
            State::Cold
        }
        Workload::WarmRestored => {
            let mut origin = registered_service(inputs, ServiceConfig::default())?;
            for op in &plan.prepared {
                let reply = Reply::from_response(&origin.run(op.request()));
                expect_served(&reply, "cold", "priming")?;
            }
            let probe = &plan.prepared[0];
            let before = Reply::from_response(&origin.run(probe.request()));
            expect_served(&before, "cached", "pre-save cached ask")?;

            let dir = scratch.join("state");
            let t = Instant::now();
            let file = state::save(&origin, &dir).map_err(|e| e.to_string())?;
            facts.snapshot_save_us = t.elapsed().as_secs_f64() * 1e6;
            facts.snapshot_bytes =
                std::fs::metadata(&file).map_err(|e| e.to_string())?.len() as f64;
            drop(origin);

            let mut restored = Service::new(ServiceConfig::default());
            let evals_before: u64 = lts_obs::phase::thread_evals().iter().sum();
            let t = Instant::now();
            let summary = state::load(&mut restored, &dir)
                .map_err(|e| e.to_string())?
                .ok_or("the snapshot just saved is missing")?;
            facts.snapshot_load_us = t.elapsed().as_secs_f64() * 1e6;
            let evals_after: u64 = lts_obs::phase::thread_evals().iter().sum();
            facts.restore_evals = (evals_after - evals_before) as f64;
            if summary.models != plan.prepared.len() || summary.cached != plan.prepared.len() {
                return Err(format!("restore brought back {summary:?}"));
            }
            if facts.restore_evals != 0.0 {
                return Err(format!(
                    "restore spent {} oracle evals",
                    facts.restore_evals
                ));
            }
            let after = Reply::from_response(&restored.run(probe.request()));
            expect_served(&after, "cached", "first post-load cached ask")?;
            if after.evals != 0 || after.det != before.det {
                return Err(format!(
                    "post-load cached ask differs: `{}` vs `{}`",
                    after.det, before.det
                ));
            }
            for op in &plan.warmup {
                let reply = Reply::from_response(&restored.run(op.request()));
                expect_served(&reply, "warm", "warm-up")?;
            }
            State::Restored(Box::new(restored))
        }
        Workload::TcpHot => {
            let server = NetServer::bind(
                "127.0.0.1:0",
                NetConfig {
                    repl: ReplOptions {
                        deterministic: true,
                    },
                    ..NetConfig::default()
                },
            )
            .map_err(|e| format!("bind: {e}"))?;
            let addr = server.local_addr();
            // From here on a failure must still stop the server.
            let connect = || -> Res<Vec<Client>> {
                let mut clients = vec![Client::connect(addr)?];
                for pop in inputs.populations() {
                    let spec = inputs.spec(pop);
                    let reply = clients[0].ask(&format!(
                        "register {} {} rows={} level={} seed={}",
                        spec.kind, pop.name, spec.rows, spec.level, spec.seed
                    ))?;
                    if !reply.contains("\"registered\"") {
                        return Err(format!("register failed: {reply}"));
                    }
                }
                for op in &plan.prepared {
                    let line = clients[0].ask(&op.line())?;
                    let reply =
                        Reply::from_line(&line).ok_or_else(|| format!("bad reply: {line}"))?;
                    expect_served(&reply, "cold", "priming")?;
                }
                while clients.len() < CONNECTIONS {
                    clients.push(Client::connect(addr)?);
                }
                for (i, op) in plan.warmup.iter().enumerate() {
                    let line = clients[i % CONNECTIONS].ask(&op.line())?;
                    let reply =
                        Reply::from_line(&line).ok_or_else(|| format!("bad reply: {line}"))?;
                    expect_served(&reply, "cached", "warm-up")?;
                }
                Ok(clients)
            };
            match connect() {
                Ok(clients) => State::Net(Net { server, clients }),
                Err(e) => {
                    server.shutdown();
                    server.join();
                    return Err(e);
                }
            }
        }
    };
    Ok((state, facts))
}

// ------------------------------------------------------- timed passes

/// The traced run's equipment.
struct Tracer {
    rec: Recorder,
    ctx: LayerCtx,
    /// The benchmark's own prepared states, one per working-set query
    /// (`warm_restored` only).
    entries: Vec<WarmEntry>,
    derived: Derived,
}

/// One in-process pass. With a tracer, every op's `Service::run` gets
/// a span and is followed by its stage-by-stage replay (outside the
/// op's latency, inside the pass).
fn pass_in_process(
    workload: Workload,
    svc: &mut Service,
    ops: &[Op],
    pass: usize,
    mut tracer: Option<&mut Tracer>,
) -> Res<(Pass, Vec<Reply>)> {
    let mut latency_ms = Vec::with_capacity(ops.len());
    let mut replies = Vec::with_capacity(ops.len());
    let cpu0 = process_usage().cpu_s;
    let t0 = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        let request = op.request();
        let response = match tracer.as_deref_mut() {
            None => {
                let t = Instant::now();
                let response = svc.run(request);
                latency_ms.push(t.elapsed().as_secs_f64() * 1e3);
                response
            }
            Some(tr) => {
                tr.rec.set_op(pass * ops.len() + i);
                let (response, us) = tr.rec.time_us(workload.run_span(), || svc.run(request));
                latency_ms.push(us / 1e3);
                let entry = (!tr.entries.is_empty()).then(|| &tr.entries[i % tr.entries.len()]);
                tr.ctx.replay(
                    &mut tr.rec,
                    op,
                    workload.mode(),
                    &response,
                    entry,
                    &mut tr.derived,
                )?;
                response
            }
        };
        replies.push(Reply::from_response(&response));
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = process_usage().cpu_s - cpu0;
    Ok((
        Pass {
            latency_ms,
            wall_s,
            cpu_s,
        },
        replies,
    ))
}

/// One `tcp_hot` pass: each connection's thread sends its share of
/// the ops (op `i` goes to connection `i mod CONNECTIONS`), reading
/// every reply before sending the next line. Replies are kept and
/// checked after the pass, off the clock. With an `epoch`, each round
/// trip is also recorded as a `serve.net_op` span.
fn pass_tcp(
    clients: &mut [Client],
    ops: &[Op],
    pass: usize,
    epoch: Option<Instant>,
) -> Res<(Pass, Vec<Option<Reply>>, Vec<Recorder>)> {
    let lines: Vec<String> = ops.iter().map(|op| format!("{}\n", op.line())).collect();
    let n_clients = clients.len();
    let barrier = Barrier::new(n_clients);
    let cpu0 = process_usage().cpu_s;
    type Share = (
        Instant,
        Instant,
        Vec<(usize, f64, String)>,
        Option<Recorder>,
    );
    let shares: Vec<Res<Share>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let (lines, barrier) = (&lines, &barrier);
                scope.spawn(move || -> Res<Share> {
                    let mine: Vec<usize> = (c..lines.len()).step_by(n_clients).collect();
                    let mut out = Vec::with_capacity(mine.len());
                    let mut rec = epoch.map(Recorder::with_epoch);
                    let mut reply = String::with_capacity(512);
                    barrier.wait();
                    let start = Instant::now();
                    for i in mine {
                        let t = Instant::now();
                        match rec.as_mut() {
                            None => client.roundtrip(&lines[i], &mut reply)?,
                            Some(rec) => {
                                rec.set_op(pass * lines.len() + i);
                                rec.time("serve.net_op", || {
                                    client.roundtrip(&lines[i], &mut reply)
                                })?;
                            }
                        }
                        out.push((i, t.elapsed().as_secs_f64() * 1e3, reply.clone()));
                    }
                    Ok((start, Instant::now(), out, rec))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let cpu_s = process_usage().cpu_s - cpu0;
    let mut latency_ms = vec![0.0; ops.len()];
    let mut replies: Vec<Option<Reply>> = vec![None; ops.len()];
    let mut recorders = Vec::new();
    let (mut first_start, mut last_end) = (None::<Instant>, None::<Instant>);
    for share in shares {
        let (start, end, out, rec) = share?;
        first_start = Some(first_start.map_or(start, |s| s.min(start)));
        last_end = Some(last_end.map_or(end, |e| e.max(end)));
        for (i, ms, line) in out {
            latency_ms[i] = ms;
            replies[i] = Reply::from_line(&line);
        }
        recorders.extend(rec);
    }
    let wall_s = match (first_start, last_end) {
        (Some(s), Some(e)) => e.duration_since(s).as_secs_f64(),
        _ => return Err("no connection ran".into()),
    };
    Ok((
        Pass {
            latency_ms,
            wall_s,
            cpu_s,
        },
        replies,
        recorders,
    ))
}

// -------------------------------------------------------------- a run

/// Passes for `--seconds`: [`PASSES`] at [`RUN_SECONDS`], in
/// proportion elsewhere, at least one.
pub fn passes_for(seconds: u64) -> usize {
    ((PASSES as u64 * seconds + RUN_SECONDS / 2) / RUN_SECONDS).clamp(1, 100) as usize
}

/// Accuracy of the pass-1 replies against the benchmark's own truth.
struct Accuracy {
    est_err_rel_p90: f64,
    ci_cover_share: f64,
    ci_halfwidth_rel_p50: f64,
    evals_per_op: f64,
}

fn accuracy(ops: &[Op], replies: &[Option<Reply>], rows: usize) -> Accuracy {
    let n = rows as f64;
    let pairs: Vec<(&Op, &Reply)> = ops
        .iter()
        .zip(replies)
        .filter_map(|(op, r)| r.as_ref().map(|r| (op, r)))
        .collect();
    let errs = sorted(
        pairs
            .iter()
            .map(|(op, r)| (r.estimate - op.truth as f64).abs() / n)
            .collect(),
    );
    let halfwidths: Vec<f64> = pairs.iter().map(|(_, r)| (r.hi - r.lo) / 2.0 / n).collect();
    let covered = pairs
        .iter()
        .filter(|(op, r)| r.lo <= op.truth as f64 && op.truth as f64 <= r.hi)
        .count();
    let evals: u64 = pairs.iter().map(|(_, r)| r.evals).sum();
    let count = pairs.len().max(1) as f64;
    Accuracy {
        // Unguarded nearest-rank p90: the smoke run has a handful of ops.
        est_err_rel_p90: errs
            .get(((errs.len().max(1) - 1) as f64 * 0.9).round() as usize)
            .copied()
            .unwrap_or(0.0),
        ci_cover_share: covered as f64 / count,
        ci_halfwidth_rel_p50: median(&halfwidths).unwrap_or(0.0),
        evals_per_op: evals as f64 / count,
    }
}

/// Execute one run end to end.
///
/// # Errors
///
/// Returns a message when set-up or a replay fails outright; failed
/// *checks* of timed ops are counted in the output instead.
pub fn run(cfg: &RunConfig) -> Res<RunOutput> {
    std::fs::create_dir_all(&cfg.scratch).map_err(|e| format!("{}: {e}", cfg.scratch.display()))?;
    let out = run_in(cfg);
    // The scratch files are the run's own; nothing outlives it.
    let _ = std::fs::remove_dir_all(&cfg.scratch);
    out
}

fn run_in(cfg: &RunConfig) -> Res<RunOutput> {
    let workload = cfg.workload;
    let inputs = Inputs::generate(cfg.seed, ROWS);
    let plan = Plan::new(workload, &inputs, cfg.smoke);

    // Set-up, several times; the last one's product is measured.
    let setups = if cfg.smoke { 1 } else { workload.setups() };
    let mut setup_s = Vec::with_capacity(setups);
    let mut setup_facts = Vec::with_capacity(setups);
    let mut state = State::Cold;
    for _ in 0..setups {
        std::mem::replace(&mut state, State::Cold).stop();
        let t = Instant::now();
        let (s, facts) = set_up(workload, &inputs, &plan, &cfg.scratch)?;
        setup_s.push(t.elapsed().as_secs_f64());
        setup_facts.push(facts);
        state = s;
    }

    let result = measure(cfg, &inputs, &plan, &mut state, &setup_s, &setup_facts);
    state.stop();
    result
}

fn measure(
    cfg: &RunConfig,
    inputs: &Inputs,
    plan: &Plan,
    state: &mut State,
    setup_s: &[f64],
    setup_facts: &[SetupFacts],
) -> Res<RunOutput> {
    let workload = cfg.workload;
    let ops = &plan.ops;

    let mut tracer = if cfg.trace {
        let mut tr = Tracer {
            rec: Recorder::new(),
            ctx: LayerCtx::new(inputs, &ServiceConfig::default()),
            entries: Vec::new(),
            derived: Derived::default(),
        };
        if workload == Workload::WarmRestored {
            for op in &plan.prepared {
                tr.entries.push(tr.ctx.warm_entry(&mut tr.rec, op)?);
            }
        }
        Some(tr)
    } else {
        None
    };

    // An untraced run makes `passes_for(seconds)` plain passes. A
    // traced run alternates plain and traced passes (the plain ones
    // are the untraced reference for the tracing overhead, taken
    // seconds apart from their traced twins) until every replayed
    // call has at least 30 samples. `true` marks a traced pass.
    let schedule: Vec<bool> = match (cfg.trace, cfg.smoke) {
        (false, false) => vec![false; passes_for(cfg.seconds)],
        (false, true) => vec![false],
        (true, false) => [false, true].repeat(30usize.div_ceil(ops.len())),
        (true, true) => vec![true],
    };

    let mut passes: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut first: Vec<Option<Reply>> = Vec::new();
    let mut failed = 0u64;
    let mut attempted = 0u64;
    let mut problems: Vec<String> = Vec::new();
    let mut reset_s = 0.0;
    let mut last_cold: Option<Service> = None;
    let mut spin_ms = Vec::with_capacity(schedule.len());
    let jiffies_timed0 = cpu_jiffies();

    for (p, &is_traced) in schedule.iter().enumerate() {
        spin_ms.push(host_spin_ms());
        let tr = if is_traced { tracer.as_mut() } else { None };
        let (pass, replies): (Pass, Vec<Option<Reply>>) = match state {
            State::Cold => {
                let t = Instant::now();
                let mut svc = reset_service(inputs)?;
                reset_s += t.elapsed().as_secs_f64();
                let (pass, replies) = pass_in_process(workload, &mut svc, ops, p, tr)?;
                last_cold = Some(svc);
                (pass, replies.into_iter().map(Some).collect())
            }
            State::Restored(svc) => {
                let (pass, replies) = pass_in_process(workload, svc, ops, p, tr)?;
                (pass, replies.into_iter().map(Some).collect())
            }
            State::Net(net) => {
                let epoch = tr.as_ref().map(|tr| tr.rec.epoch());
                let (pass, replies, recorders) = pass_tcp(&mut net.clients, ops, p, epoch)?;
                if let Some(tr) = tr {
                    for rec in recorders {
                        tr.rec.absorb(rec);
                    }
                }
                (pass, replies)
            }
        };
        for (i, reply) in replies.iter().enumerate() {
            attempted += 1;
            let verdict = match reply {
                None => Err("reply does not parse".to_string()),
                Some(r) => check(workload, r, first.get(i).and_then(Option::as_ref)),
            };
            if let Err(e) = verdict {
                failed += 1;
                if problems.len() < 5 {
                    problems.push(format!("pass {} op {}: {e}", p + 1, ops[i].id));
                }
            }
        }
        if first.is_empty() {
            first = replies;
        }
        if is_traced {
            traced.push(pass);
        } else {
            passes.push(pass);
        }
    }
    let timed_steal = steal_share(jiffies_timed0, cpu_jiffies());

    let acc = accuracy(ops, &first, inputs.rows);
    let ok_share = (attempted - failed) as f64 / attempted.max(1) as f64;
    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();

    let mut diagnostics: BTreeMap<&'static str, f64> = BTreeMap::new();

    if !cfg.trace {
        metrics.insert("setup_s", median(setup_s).unwrap_or(0.0));
        metrics.insert("peak_rss_mb", process_usage().peak_rss_mb);
        metrics.insert("ok_share", ok_share);
        // A smoke run is too short for percentiles: checks only.
        if let Some(s) = summarize_passes(&passes) {
            insert_timings(&mut diagnostics, &s);
            diagnostics.insert("bench.pass_spread_p50", s.pass_spread_p50);
        }
        // Beside the end-to-end metrics, for reading a noisy verdict
        // and for `compare`'s exact-repeat check; never in the result
        // line.
        diagnostics.insert("bench.steal_share", timed_steal);
        diagnostics.insert("bench.host_spin_spread", spread(&spin_ms));
        diagnostics.insert("bench.reset_s", reset_s);
        diagnostics.insert("bench.truth_s", inputs.truth_s);
        diagnostics.insert("core.evals_per_op", acc.evals_per_op);
        diagnostics.insert("stats.est_err_rel_p90", acc.est_err_rel_p90);
        diagnostics.insert("stats.ci_cover_share", acc.ci_cover_share);
        diagnostics.insert("stats.ci_halfwidth_rel_p50", acc.ci_halfwidth_rel_p50);
    } else {
        let tr = tracer.as_mut().expect("traced run has a tracer");
        for m in crate::metrics::PER_LAYER {
            metrics.insert(m.name, 0.0);
        }
        match workload {
            Workload::ColdPlanned => paged_probe(&mut tr.rec, inputs, &cfg.scratch, &mut metrics)?,
            Workload::WarmRestored => {
                metrics.insert(
                    "obs.overhead_share",
                    obs_overhead(inputs, &plan.prepared[0])?,
                );
            }
            Workload::TcpHot => {
                let reply_line = first
                    .iter()
                    .flatten()
                    .next()
                    .map(|r| r.det.clone())
                    .unwrap_or_default();
                tcp_probes(tr, inputs, plan, state, &reply_line)?;
            }
            Workload::ColdMono => {}
        }
        rayon_probe(&mut tr.rec);

        let spans = tr.rec.spans();
        let med = medians_us(spans);
        let us = |name: &str| med.get(name).map_or(0.0, |&(v, _)| v);
        // `<layer>.<call>_us` is the median duration of the spans
        // named `<layer>.<call>`; the few `_us` metrics that are
        // derived another way are set below.
        for m in crate::metrics::PER_LAYER {
            if let Some(&(median_us, _)) = m.name.strip_suffix("_us").and_then(|s| med.get(s)) {
                metrics.insert(m.name, median_us);
            }
        }
        if workload == Workload::TcpHot {
            metrics.insert(
                "serve.net_hop_us",
                us("serve.net_rtt") - us("serve.handle_line") - us("serve.net_echo_rtt"),
            );
        }
        let d = &tr.derived;
        let med_of = |v: &[f64]| median(v).unwrap_or(0.0);
        metrics.insert("table.oracle_eval_us", med_of(&d.oracle_eval_us));
        metrics.insert("table.oracle_batch_n", med_of(&d.oracle_batch));
        metrics.insert(
            "table.prefilter_scan_rows_per_s",
            med_of(&d.prefilter_rows_per_s),
        );
        metrics.insert("learn.score_rows_per_s", med_of(&d.score_rows_per_s));
        metrics.insert("strata.design_share", med_of(&d.design_share));
        metrics.insert("strata.pilots_n", med_of(&d.pilots));
        metrics.insert("strata.strata_n", med_of(&d.strata));
        metrics.insert("core.evals_per_op", acc.evals_per_op);
        metrics.insert("stats.est_err_rel_p90", acc.est_err_rel_p90);
        metrics.insert("stats.ci_cover_share", acc.ci_cover_share);
        metrics.insert("stats.ci_halfwidth_rel_p50", acc.ci_halfwidth_rel_p50);

        // Hit shares from the service's own counters.
        let stats_line = match state {
            State::Cold => last_cold.as_mut().map(stats_of),
            State::Restored(svc) => Some(stats_of(svc)),
            State::Net(net) => Some(net.clients[0].ask("stats")?),
        };
        if let Some(v) = stats_line.and_then(|l| Json::parse(&l).ok()) {
            let n = |k: &str| v.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            let served = n("cached") + n("cold") + n("warm") + n("exact");
            metrics.insert("serve.cache_hit_share", n("cached") / served.max(1.0));
            metrics.insert(
                "serve.store_hit_share",
                n("warm") / (n("warm") + n("cold")).max(1.0),
            );
        }
        let fact = |f: fn(&SetupFacts) -> f64| {
            median(&setup_facts.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
        };
        metrics.insert("serve.snapshot_save_us", fact(|f| f.snapshot_save_us));
        metrics.insert("serve.snapshot_load_us", fact(|f| f.snapshot_load_us));
        metrics.insert("serve.snapshot_bytes", fact(|f| f.snapshot_bytes));
        metrics.insert("serve.restore_evals_n", fact(|f| f.restore_evals));
        metrics.insert("rayon.threads_n", rayon::current_num_threads() as f64);
        metrics.insert("data.generate_us", inputs.generate_s * 1e6);

        // Diagnostics.
        metrics.insert(
            "bench.closure_share",
            closure_share(spans, "replay", workload.run_span()).unwrap_or(0.0),
        );
        // Each traced pass against the plain pass just before it, op
        // by op (identical work): the median ratio, minus one.
        let ratios: Vec<f64> = passes
            .iter()
            .zip(&traced)
            .flat_map(|(plain, with)| with.latency_ms.iter().zip(&plain.latency_ms))
            .map(|(with, plain)| with / plain)
            .collect();
        if let Some(ratio) = median(&ratios) {
            metrics.insert("bench.trace_overhead_share", ratio - 1.0);
        }
        let all: Vec<&Pass> = passes.iter().chain(&traced).collect();
        let per_pass_p50: Vec<f64> = all
            .iter()
            .filter_map(|p| percentile(&sorted(p.latency_ms.clone()), 0.5))
            .collect();
        metrics.insert("bench.pass_spread_p50", spread(&per_pass_p50));
        if let Some(s) = summarize_passes(&passes) {
            insert_timings(&mut metrics, &s);
        }
        let pooled = sorted(
            all.iter()
                .flat_map(|p| p.latency_ms.iter().copied())
                .collect(),
        );
        metrics.insert(
            "bench.latency_p99_ms",
            percentile(&pooled, 0.99).unwrap_or(0.0),
        );
        metrics.insert("bench.steal_share", timed_steal);
        metrics.insert("bench.host_spin_spread", spread(&spin_ms));
        metrics.insert("bench.reset_s", reset_s);
        metrics.insert("bench.truth_s", inputs.truth_s);
        let replayed = med.get("serve.render").map_or(0, |&(_, n)| n);
        metrics.insert("bench.samples_n", replayed as f64);
    }
    let mut by_kind = (passes.iter(), traced.iter());
    let mut pass_lines = Vec::with_capacity(schedule.len());
    let mut pass_matrix = String::new();
    for (&is_traced, spin) in schedule.iter().zip(&spin_ms) {
        let (kind, next) = if is_traced {
            ("traced", by_kind.1.next())
        } else {
            ("plain", by_kind.0.next())
        };
        let p = next.expect("one pass per schedule entry");
        let lat = sorted(p.latency_ms.clone());
        pass_lines.push(format!(
            "{kind} pass: p50 {:.4} ms, max {:.4} ms, wall {:.3} s, cpu {:.3} s, host spin {spin:.3} ms",
            percentile(&lat, 0.5).unwrap_or(0.0),
            lat.last().copied().unwrap_or(0.0),
            p.wall_s,
            p.cpu_s
        ));
        pass_matrix.push_str(&format!("{kind}\t{}\t{}\t{spin}", p.wall_s, p.cpu_s));
        for ms in &p.latency_ms {
            pass_matrix.push_str(&format!("\t{ms}"));
        }
        pass_matrix.push('\n');
    }

    Ok(RunOutput {
        correct: failed == 0 && attempted > 0,
        attempted,
        failed,
        metrics,
        diagnostics,
        spans: tracer.map(|t| t.rec.spans().to_vec()).unwrap_or_default(),
        problems,
        pass_lines,
        pass_matrix,
    })
}

/// The op timings of the median plain pass.
fn insert_timings(into: &mut BTreeMap<&'static str, f64>, s: &crate::stats::PassSummary) {
    into.insert("bench.latency_p50_ms", s.latency_p50_ms);
    into.insert("bench.latency_p90_ms", s.latency_p90_ms);
    into.insert("bench.throughput_ops_s", s.throughput_ops_s);
    into.insert("bench.cpu_ms_per_op", s.cpu_ms_per_op);
}

/// Milliseconds the host takes for a fixed single-thread loop (a few
/// ms), read before every pass: four independent multiply-add chains
/// over a 64 KiB buffer, so it keeps the core's ports and L1/L2 busy
/// the way the scans and the DP do. The loop never changes, so its
/// spread over a run (`bench.host_spin_spread`) is the host changing
/// speed — a busy hyper-thread sibling, a frequency step — which
/// `bench.steal_share` does not see.
fn host_spin_ms() -> f64 {
    let buf: Vec<u64> = (0..8192u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let buf = std::hint::black_box(buf);
    let t = Instant::now();
    let mut acc = [1u64, 2, 3, 4];
    for _ in 0..1600 {
        for quad in buf.chunks_exact(4) {
            for (a, &v) in acc.iter_mut().zip(quad) {
                *a = a.wrapping_mul(0x0100_0000_01B3).wrapping_add(v);
            }
        }
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64() * 1e3
}

fn stats_of(svc: &mut Service) -> String {
    let mut session = SessionState::default();
    match handle_line(svc, &mut session, ReplOptions::default(), "stats") {
        LineOutcome::Reply(line) => line,
        _ => String::new(),
    }
}

// -------------------------------------------------------------- probes

/// `rayon.par_call`: an empty ordered parallel map over one item per
/// worker — the shim's per-call cost (thread spawn + join).
fn rayon_probe(rec: &mut Recorder) {
    let items = rayon::current_num_threads();
    for _ in 0..200 {
        let out: Vec<usize> = rec.time("rayon.par_call", || {
            (0..items).into_par_iter().map(|i| i).collect()
        });
        std::hint::black_box(out);
    }
}

/// The only larger-than-cache probe: the x30-tier sports table on
/// disk, scanned five times through a buffer pool an eighth of its
/// pages, zone-map skipping on (the serve path itself never pages).
fn paged_probe(
    rec: &mut Recorder,
    inputs: &Inputs,
    scratch: &Path,
    metrics: &mut BTreeMap<&'static str, f64>,
) -> Res<()> {
    use lts_data::{scaled_scenario, DatasetKind, ScaledTier, SelectivityLevel};
    use lts_table::{Expr, PagedTable};
    const PAGE_ROWS: usize = 1024;
    let scenario = scaled_scenario(
        DatasetKind::Sports,
        ScaledTier::X30,
        SelectivityLevel::M,
        inputs.seed,
    )
    .map_err(|e| e.to_string())?;
    let table = &scenario.table;
    let dir = scratch.join("paged");
    PagedTable::create(&dir, table, PAGE_ROWS).map_err(|e| e.to_string())?;
    let total_pages = table.len().div_ceil(PAGE_ROWS) * table.schema().len();
    let paged = PagedTable::open(&dir, (total_pages / 8).max(1))
        .map_err(|e| e.to_string())?
        .with_zone_skipping(true);
    // `player_id` is nondecreasing in row order, so a range on it has
    // tight zone maps; the residual is row-local arithmetic.
    let ids = table.ints("player_id").map_err(|e| e.to_string())?;
    let cutoff = ids[table.len() / 4];
    let residual = (Expr::col("strikeouts").sub(Expr::lit(100.0)))
        .power(Expr::lit(2.0))
        .add((Expr::col("wins").sub(Expr::lit(8.0))).power(Expr::lit(2.0)))
        .sqrt()
        .lt(Expr::lit(60.0));
    let expr = Expr::col("player_id")
        .lt(Expr::lit(cutoff as f64))
        .and(residual);
    let mut rates = Vec::new();
    for _ in 0..5 {
        let (count, us) = rec.time_us("table.paged_scan", || paged.par_count(&expr));
        std::hint::black_box(count.map_err(|e| e.to_string())?);
        rates.push(table.len() as f64 / (us * 1e-6));
    }
    let scan = paged.scan_snapshot();
    let buffer = paged.buffer_snapshot();
    metrics.insert("table.paged_scan_rows_per_s", median(&rates).unwrap_or(0.0));
    metrics.insert(
        "table.paged_pages_read_share",
        scan.pages_evaluated as f64 / (scan.pages_evaluated + scan.pages_skipped).max(1) as f64,
    );
    metrics.insert(
        "table.buffer_hit_share",
        buffer.hits as f64 / (buffer.hits + buffer.misses).max(1) as f64,
    );
    Ok(())
}

/// `obs.overhead_share`: the same warm op on two services, telemetry
/// on and off, interleaved; median latency ratio minus one.
fn obs_overhead(inputs: &Inputs, query: &Op) -> Res<f64> {
    let mut services = Vec::new();
    for obs in [
        lts_serve::Observability::default(),
        lts_serve::Observability::disabled(),
    ] {
        let mut svc = Service::with_observability(ServiceConfig::default(), obs);
        for pop in inputs.populations() {
            svc.register_dataset(pop.name, Arc::clone(&pop.table), &pop.cols)
                .map_err(|e| e.to_string())?;
        }
        let reply = Reply::from_response(&svc.run(query.request()));
        expect_served(&reply, "cold", "obs probe priming")?;
        services.push(svc);
    }
    let mut ms = [Vec::new(), Vec::new()];
    for i in 0..60u64 {
        for (svc, ms) in services.iter_mut().zip(&mut ms) {
            let request = Op {
                id: 50_000 + i,
                fresh: true,
                ..query.clone()
            }
            .request();
            let t = Instant::now();
            let response = svc.run(request);
            ms.push(t.elapsed().as_secs_f64() * 1e3);
            expect_served(&Reply::from_response(&response), "warm", "obs probe")?;
        }
    }
    match (median(&ms[0]), median(&ms[1])) {
        (Some(on), Some(off)) if off > 0.0 => Ok(on / off - 1.0),
        _ => Ok(0.0),
    }
}

/// `tcp_hot`'s layer probes: an in-process twin of the server's
/// service (same primed queries) for `handle_line`, `Service::run`
/// and the front-half replay of cached ops; one connection's
/// sequential round trips; and a bare echo thread as the OS floor.
fn tcp_probes(
    tr: &mut Tracer,
    inputs: &Inputs,
    plan: &Plan,
    state: &mut State,
    reply_line: &str,
) -> Res<()> {
    const CALLS: usize = 2_000;
    let State::Net(net) = state else {
        return Err("tcp probes need the server".into());
    };
    let mut twin = reset_service(inputs)?;
    for op in &plan.prepared {
        let reply = Reply::from_response(&twin.run(op.request()));
        expect_served(&reply, "cold", "twin priming")?;
    }
    let ops = &plan.ops[..CALLS.min(plan.ops.len())];
    let mut session = SessionState::default();
    let opts = ReplOptions {
        deterministic: true,
    };
    for (i, op) in ops.iter().enumerate() {
        tr.rec.set_op(1_000_000 + i);
        let line = op.line();
        let outcome = tr.rec.time("serve.handle_line", || {
            handle_line(&mut twin, &mut session, opts, &line)
        });
        if !matches!(&outcome, LineOutcome::Reply(l) if l.contains("\"served\": \"cached\"")) {
            return Err(format!("twin handle_line: {outcome:?}"));
        }
        let response = tr.rec.time("serve.run_cached", || twin.run(op.request()));
        expect_served(&Reply::from_response(&response), "cached", "twin run")?;
        tr.ctx.replay(
            &mut tr.rec,
            op,
            Mode::Cached,
            &response,
            None,
            &mut tr.derived,
        )?;
    }
    // One connection, sequential round trips.
    let client = &mut net.clients[0];
    let mut reply = String::with_capacity(512);
    for op in ops {
        let line = format!("{}\n", op.line());
        tr.rec
            .time("serve.net_rtt", || client.roundtrip(&line, &mut reply))?;
    }
    // The OS floor: the same request bytes to a thread that answers
    // every line with the same reply bytes and does nothing else.
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let canned = format!("{reply_line}\n");
    std::thread::scope(|scope| -> Res<()> {
        let echo = scope.spawn(move || -> std::io::Result<()> {
            let (stream, _) = listener.accept()?;
            stream.set_nodelay(true)?;
            let mut reader = BufReader::new(stream.try_clone()?);
            let mut writer = stream;
            let mut line = String::new();
            loop {
                line.clear();
                if reader.read_line(&mut line)? == 0 {
                    return Ok(());
                }
                writer.write_all(canned.as_bytes())?;
            }
        });
        let probe = (|| -> Res<()> {
            let mut client = Client::connect(addr)?;
            for op in ops {
                let line = format!("{}\n", op.line());
                tr.rec
                    .time("serve.net_echo_rtt", || client.roundtrip(&line, &mut reply))?;
            }
            Ok(())
        })();
        // The client is dropped here, so the echo thread sees EOF.
        let echoed = echo
            .join()
            .map_err(|_| "echo thread panicked".to_string())?;
        probe?;
        echoed.map_err(|e| format!("echo thread: {e}"))
    })
}

/// Where a run keeps its own files when `--scratch` is not given:
/// beside the binary, which lives in the (git-ignored) build directory.
pub fn default_scratch() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."))
        .join("scratch")
        .join(format!("run-{}", std::process::id()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_count_scales_with_seconds() {
        assert_eq!(passes_for(RUN_SECONDS), PASSES);
        assert_eq!(passes_for(2 * RUN_SECONDS), 2 * PASSES);
        assert_eq!(passes_for(1), 1);
        assert_eq!(passes_for(0), 1);
        assert_eq!(passes_for(60), 23);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(w.why().len() <= 200, "{}: {}", w.name(), w.why().len());
            assert!(!w.why().contains('\n'));
        }
        assert_eq!(Workload::parse("restart"), None);
    }

    #[test]
    fn checks_reject_the_wrong_mode_route_plan_and_drift() {
        let line = "{\"id\": 10000, \"ok\": true, \"served\": \"cached\", \"route\": \"lss\", \
                    \"fingerprint\": \"00\", \"estimate\": 2310.5, \"std_error\": 1, \"lo\": 2000, \
                    \"hi\": 2600, \"level\": 0.95, \"evals\": 0, \"budget\": 300, \
                    \"model_version\": \"00\", \"table_version\": 0, \"wall_micros\": 0}";
        let reply = Reply::from_line(line).unwrap();
        assert!(check(Workload::TcpHot, &reply, None).is_ok());
        assert!(check(Workload::TcpHot, &reply, Some(&reply)).is_ok());
        // Wrong mode for the workload.
        assert!(check(Workload::WarmRestored, &reply, None)
            .unwrap_err()
            .contains("served"));
        // Drift from pass 1.
        let mut drift = reply.clone();
        drift.det.push(' ');
        assert!(check(Workload::TcpHot, &drift, Some(&reply))
            .unwrap_err()
            .contains("pass 1"));
        // A cached reply that spent evals.
        let spent = Reply {
            evals: 3,
            ..reply.clone()
        };
        assert!(check(Workload::TcpHot, &spent, None).is_err());
        // SRS fallback instead of the learned route.
        let srs = Reply {
            route: "srs".into(),
            ..reply.clone()
        };
        assert!(check(Workload::TcpHot, &srs, None)
            .unwrap_err()
            .contains("route"));
        // A planned op must carry the prefilter plan; a mono op none.
        let cold = Reply {
            served: "cold".into(),
            ..reply.clone()
        };
        assert!(check(Workload::ColdMono, &cold, None).is_ok());
        assert!(check(Workload::ColdPlanned, &cold, None)
            .unwrap_err()
            .contains("plan"));
        // Not JSON, or not a count reply: no Reply at all.
        assert!(Reply::from_line("{\"ok\": false, \"error\": \"x\"}").is_none());
        assert!(Reply::from_line("garbage").is_none());
    }

    #[test]
    fn accuracy_scores_error_cover_and_evals() {
        let op = |truth: usize| Op {
            id: 0,
            dataset: "sports",
            condition: String::new(),
            target: Target::Budget(1),
            fresh: false,
            truth,
        };
        let reply = |estimate: f64, lo: f64, hi: f64, evals: u64| {
            Some(Reply {
                ok: true,
                served: String::new(),
                route: String::new(),
                plan_kind: None,
                evals,
                estimate,
                lo,
                hi,
                det: String::new(),
            })
        };
        let ops = vec![op(100), op(200), op(300), op(400)];
        let replies = vec![
            reply(110.0, 90.0, 130.0, 10),
            reply(200.0, 180.0, 220.0, 20),
            reply(340.0, 330.0, 350.0, 30), // misses truth
            None,                           // unparsed: left out
        ];
        let a = accuracy(&ops, &replies, 1000);
        assert!((a.ci_cover_share - 2.0 / 3.0).abs() < 1e-12);
        assert!((a.evals_per_op - 20.0).abs() < 1e-12);
        assert!((a.est_err_rel_p90 - 0.04).abs() < 1e-12);
        assert!((a.ci_halfwidth_rel_p50 - 0.02).abs() < 1e-12);
    }
}
