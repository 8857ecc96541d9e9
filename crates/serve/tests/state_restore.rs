//! Durable warm state: a restored service is indistinguishable from
//! the one that saved.
//!
//! * A snapshot saved by one service and loaded into a fresh one must
//!   answer the first repeat request from the restored result cache —
//!   **zero oracle evaluations, byte-identical response** — and replay
//!   `fresh` requests bit-identically from the decoded model store, for
//!   monolithic and `+pf` states.
//! * A version-mismatched, torn, or corrupted snapshot — or a
//!   well-sealed one whose numbers do not describe a warm state of the
//!   problem they name — yields a structured error and a clean cold
//!   start — never a panic, never a silently different count.
//! * A dataset's version lineage is restored in one step, however long.
//! * The TCP server (`--state-dir`) round-trips the same contract
//!   across a real restart.

mod net_common;

use lts_serve::state;
use lts_serve::{
    DatasetSpec, NetConfig, NetServer, ReplOptions, Request, Response, Service, ServiceConfig,
    StateError, Target,
};
use net_common::Client;
use std::fs;
use std::path::PathBuf;

const PLAIN: &str = "strikeouts < 120";
/// Few enough survivors of its cheap conjunct over [`spec`]'s 600 rows
/// that the planner routes it as prefilter + estimate (a `+pf` state).
const DECOMPOSED: &str = "strikeouts < 60 AND (SELECT COUNT(*) FROM s WHERE wins >= o.wins) < 300";

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lts_state_restore_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn spec() -> DatasetSpec {
    DatasetSpec {
        kind: "sports".to_string(),
        rows: 600,
        level: "M".to_string(),
        seed: 3,
    }
}

/// `snapshot` with its checksum trailer recomputed: what any writer —
/// not only this crate — can produce.
fn resealed(snapshot: &str) -> String {
    let body: String = (snapshot.lines())
        .filter(|l| !l.starts_with("checksum\t"))
        .map(|l| format!("{l}\n"))
        .collect();
    format!(
        "{body}checksum\t{:016x}\n",
        lts_core::fnv1a(body.as_bytes())
    )
}

/// `snapshot` with the tab-separated fields of its first `store state`
/// line edited, resealed.
fn with_state_fields(snapshot: &str, edit: impl Fn(&mut Vec<String>)) -> String {
    let mut done = false;
    let lines: Vec<String> = (snapshot.lines())
        .map(|line| {
            if done || !line.starts_with("store\tstate\t") {
                return line.to_string();
            }
            done = true;
            let mut fields: Vec<String> = line.split('\t').map(str::to_string).collect();
            edit(&mut fields);
            fields.join("\t")
        })
        .collect();
    assert!(done, "the snapshot holds a warm state");
    resealed(&lines.join("\n"))
}

/// `snapshot` with its first store entry re-tagged `lss@4` — what a
/// build that still sharded wrote for a 4-shard state — resealed.
fn legacy_lss_at_4(snapshot: &str) -> String {
    let tagged = snapshot.replacen("\tlss\t", "\tlss@4\t", 1);
    assert_ne!(tagged, snapshot, "the snapshot holds an `lss` entry");
    resealed(&tagged)
}

/// The comma-separated id list of one `state` field, and back.
fn ids(field: &str) -> Vec<usize> {
    field.split(',').map(|i| i.parse().unwrap()).collect()
}

fn list(ids: Vec<usize>) -> String {
    let strings: Vec<String> = ids.iter().map(usize::to_string).collect();
    strings.join(",")
}

/// The edit setting entry `i` of id-list field `at` to `to`.
fn set(at: usize, i: usize, to: usize) -> impl Fn(&mut Vec<String>) {
    move |f| {
        let mut v = ids(&f[at]);
        v[i] = to;
        f[at] = list(v);
    }
}

fn count(svc: &mut Service, id: u64, condition: &str, fresh: bool) -> Response {
    let r = svc.run(Request {
        id,
        dataset: "s".to_string(),
        condition: condition.to_string(),
        target: Target::Budget(150),
        fresh,
    });
    assert!(r.ok, "request failed: {:?}", r.error);
    r
}

fn assert_bits_equal(a: &Response, b: &Response, what: &str) {
    assert_eq!(
        a.estimate.to_bits(),
        b.estimate.to_bits(),
        "{what}: estimate"
    );
    assert_eq!(
        a.std_error.to_bits(),
        b.std_error.to_bits(),
        "{what}: std_error"
    );
    assert_eq!(a.lo.to_bits(), b.lo.to_bits(), "{what}: lo");
    assert_eq!(a.hi.to_bits(), b.hi.to_bits(), "{what}: hi");
    assert_eq!(a.level.to_bits(), b.level.to_bits(), "{what}: level");
    assert_eq!(a.route, b.route, "{what}: route");
    assert_eq!(a.model_version, b.model_version, "{what}: model_version");
    assert_eq!(a.table_version, b.table_version, "{what}: table_version");
}

#[test]
fn snapshot_roundtrip_replays_bit_identically() {
    let dir = temp_dir("roundtrip");

    // Service A: cold-start two queries (one of which decomposes into
    // prefilter + residual, exercising the `+pf` store lineage), cache
    // their results, and take one `fresh` warm replay of each as a
    // reference.
    let mut a = Service::new(ServiceConfig::default());
    a.register_generated("s", &spec()).unwrap();
    let a_cold_plain = count(&mut a, 0, PLAIN, false);
    assert_eq!(a_cold_plain.served, "cold");
    let a_cold_decomp = count(&mut a, 1, DECOMPOSED, false);
    let kind = a_cold_decomp.plan.as_ref().map(|p| p.kind);
    assert_eq!(kind, Some("prefilter_estimate"), "the `+pf` lineage");
    let a_cached_plain = count(&mut a, 2, PLAIN, false);
    assert_eq!(a_cached_plain.served, "cached");
    let a_fresh = count(&mut a, 42, PLAIN, true);
    assert_eq!(a_fresh.served, "warm");
    let a_fresh_decomp = count(&mut a, 43, DECOMPOSED, true);
    assert_eq!(a_fresh_decomp.served, "warm");
    let saved_to = state::save(&a, &dir).unwrap();
    assert!(saved_to.ends_with(lts_serve::STATE_FILE));

    // Service B: load the snapshot and serve.
    let mut b = Service::new(ServiceConfig::default());
    let summary = state::load(&mut b, &dir)
        .unwrap()
        .expect("snapshot present");
    assert_eq!(summary.datasets, 1);
    assert!(summary.models >= 2, "both queries' warm states restored");
    assert!(summary.cached >= 2, "both cached results restored");
    assert_eq!(b.dataset_version("s"), a.dataset_version("s"));

    // First repeat request: answered from the restored cache — zero
    // oracle evaluations, bit-identical to the pre-restart response.
    let b_first = count(&mut b, 100, PLAIN, false);
    assert_eq!(b_first.served, "cached");
    assert_eq!(b_first.evals, 0);
    assert_eq!(b.stats().oracle_evals, 0, "warm-from-first-request");
    assert_bits_equal(&b_first, &a_cached_plain, "restored cached (plain)");

    let b_decomp = count(&mut b, 101, DECOMPOSED, false);
    assert_eq!(b_decomp.served, "cached");
    assert_eq!(b_decomp.evals, 0);
    assert_bits_equal(&b_decomp, &a_cold_decomp, "restored cached (decomposed)");

    // `fresh` replay: the decoded model store reproduces the exact
    // warm estimate (same per-id seed stream, same state digest).
    let b_fresh = count(&mut b, 42, PLAIN, true);
    assert_eq!(b_fresh.served, "warm");
    assert_eq!(b_fresh.evals, a_fresh.evals, "stage-2-only budget");
    assert_bits_equal(&b_fresh, &a_fresh, "fresh warm replay");
    let b_fresh_decomp = count(&mut b, 43, DECOMPOSED, true);
    assert_eq!(b_fresh_decomp.served, "warm");
    assert_eq!(b_fresh_decomp.evals, a_fresh_decomp.evals);
    assert_bits_equal(&b_fresh_decomp, &a_fresh_decomp, "fresh warm replay (+pf)");
    assert_eq!(b.stats().oracle_evals_cold, 0, "nothing was re-prepared");

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn missing_snapshot_is_a_normal_cold_start() {
    let dir = temp_dir("missing");
    let mut svc = Service::new(ServiceConfig::default());
    assert!(state::load(&mut svc, &dir).unwrap().is_none());
    // The service is untouched and serves normally.
    svc.register_generated("s", &spec()).unwrap();
    assert_eq!(count(&mut svc, 0, PLAIN, false).served, "cold");
}

#[test]
fn corrupt_snapshots_error_structurally_and_cold_start_cleanly() {
    let dir = temp_dir("corrupt");

    // Reference: the response a pure cold start produces.
    let mut reference = Service::new(ServiceConfig::default());
    reference.register_generated("s", &spec()).unwrap();
    let ref_cold = count(&mut reference, 0, PLAIN, false);
    state::save(&reference, &dir).unwrap();
    let path = dir.join(lts_serve::STATE_FILE);
    let good = fs::read_to_string(&path).unwrap();

    // (a) Version-mismatched snapshot, valid checksum: the previous
    // formats (there is no `v1`, `v2` or `v3` reader — a `v2` file caches
    // intervals of an older estimator and a `v3` file answers of an older
    // LSS configuration, so each cold-starts once) and a future one.
    for header in [
        "lts-state/v1",
        "lts-state/v2",
        "lts-state/v3",
        "lts-state/v5",
    ] {
        fs::write(&path, resealed(&good.replacen("lts-state/v4", header, 1))).unwrap();
        let mut svc = Service::new(ServiceConfig::default());
        assert!(matches!(
            state::load(&mut svc, &dir),
            Err(StateError::BadVersion { found }) if found == header
        ));
    }

    // (b) Torn write: the file ends mid-line, before the trailer.
    fs::write(&path, &good[..good.len() / 2]).unwrap();
    let mut svc = Service::new(ServiceConfig::default());
    let torn = state::load(&mut svc, &dir);
    assert!(
        matches!(
            torn,
            Err(StateError::Corrupt { .. } | StateError::ChecksumMismatch)
        ),
        "torn snapshot must surface structurally: {torn:?}"
    );

    // (c) One flipped payload byte under the stale checksum.
    let flipped = good.replacen("sports", "sporks", 1);
    assert_ne!(flipped, good, "fixture must actually flip a byte");
    fs::write(&path, flipped).unwrap();
    let mut svc = Service::new(ServiceConfig::default());
    assert!(matches!(
        state::load(&mut svc, &dir),
        Err(StateError::ChecksumMismatch)
    ));

    // (d) Well-sealed, ill-formed: every check `from_parts` makes in
    // place of the replay that used to guarantee it, tripped through
    // the file. Fields of a `store state` line: 2 profile, 6 training
    // ids, 7 training labels, 8 ordering, 9 pilot positions, 10 pilot
    // labels, 11 cuts.
    let first_of = |at: usize| {
        let line = good.lines().find(|l| l.starts_with("store\tstate\t"));
        ids(line.unwrap().split('\t').nth(at).unwrap())[0]
    };
    let (train0, order0) = (first_of(6), first_of(8));
    type Edit = Box<dyn Fn(&mut Vec<String>)>;
    let cases: Vec<(&str, Edit)> = vec![
        ("duplicate id in the ordering", Box::new(set(8, 1, order0))),
        (
            "missing id",
            Box::new(|f| f[8] = f[8][..f[8].rfind(',').unwrap()].to_string()),
        ),
        (
            "training id inside the ordering",
            Box::new(set(8, 0, train0)),
        ),
        ("ordered id ≥ N", Box::new(set(8, 0, 600))),
        ("pilot position out of range", Box::new(set(9, 0, 600))),
        (
            "descending cuts",
            Box::new(|f| f[11] = list(ids(&f[11]).into_iter().rev().collect())),
        ),
        (
            "training labels one short",
            Box::new(|f| {
                f[7].pop();
            }),
        ),
        (
            "pilot labels one short",
            Box::new(|f| {
                f[10].pop();
            }),
        ),
        ("training id ≥ N", Box::new(set(6, 0, 600))),
        ("repeated training id", Box::new(set(6, 1, train0))),
        (
            "another profile's digest",
            Box::new(|f| f[2] = format!("{:016x}", 7)),
        ),
    ];
    for (what, edit) in &cases {
        fs::write(&path, with_state_fields(&good, edit)).unwrap();
        let mut svc = Service::new(ServiceConfig::default());
        let refused = state::load(&mut svc, &dir);
        assert!(
            matches!(refused, Err(StateError::Restore { .. })),
            "{what}: {refused:?}"
        );
    }
    // The same refusal for real: a service whose LSS profile differs
    // from the one the state was prepared under.
    fs::write(&path, &good).unwrap();
    let mut other = Service::new(ServiceConfig {
        lss: lts_core::Lss {
            n_strata: 5,
            ..lts_core::Lss::default()
        },
        ..ServiceConfig::default()
    });
    assert!(matches!(
        state::load(&mut other, &dir),
        Err(StateError::Restore { message }) if message.contains("different LSS profile")
    ));
    // (e) Malformed warm-state lines are refused by the parse, before
    // any dataset is registered: a sharded entry of an earlier build
    // (`lss@k` is no tag this build reads), a second state under one
    // entry, and an ordering id past `u32` (orderings decode straight to
    // `u32`, so `order0 + 2³²` cannot wrap onto `order0`).
    let second_state = with_state_fields(&good, |f| {
        let again = f[1..].join("\t");
        f.push(format!("\nstore\tstate\t{again}"));
    });
    for (file, message) in [
        (legacy_lss_at_4(&good), "unknown estimator tag `lss@4`"),
        (
            second_state,
            "store state with no entry line right before it",
        ),
        (
            with_state_fields(&good, set(8, 0, order0 + (1 << 32))),
            "bad ordering",
        ),
    ] {
        fs::write(&path, &file).unwrap();
        let mut svc = Service::new(ServiceConfig::default());
        let refused = state::load(&mut svc, &dir);
        assert!(
            matches!(&refused, Err(StateError::Corrupt { message: m }) if m.contains(message)),
            "{message}: {refused:?}"
        );
        assert_eq!(
            svc.dataset_len("s"),
            None,
            "{message}: the service is untouched"
        );
    }
    // A version with no successor is refused before anything is built.
    let maxed = good.replacen("\tM\t3\t0\n", &format!("\tM\t3\t{}\n", u64::MAX), 1);
    assert_ne!(maxed, good);
    fs::write(&path, resealed(&maxed)).unwrap();
    let mut svc = Service::new(ServiceConfig::default());
    assert!(matches!(
        state::load(&mut svc, &dir),
        Err(StateError::Corrupt { message }) if message.contains("bad version")
    ));

    // After every rejected restore: a clean cold start serves the same
    // bits as a never-snapshotted service — corruption can delay
    // warmth, never change a count.
    let mut cold = Service::new(ServiceConfig::default());
    cold.register_generated("s", &spec()).unwrap();
    let cold_resp = count(&mut cold, 0, PLAIN, false);
    assert_eq!(cold_resp.served, "cold");
    assert_bits_equal(&cold_resp, &ref_cold, "cold start after rejected restore");

    let _ = fs::remove_dir_all(&dir);
}

/// A `+pf` state's ordering holds ids local to the survivors, below
/// their count `N′`, and is decoded straight to `u32`: an entry at `N′`
/// or repeated is refused by the restore, one at a real id plus `2³²`
/// (which a wrapping narrow would take back onto that id) by the parse
/// — a [`StateError`] either way, never a restored state.
#[test]
fn a_prefiltered_states_ordering_is_checked_not_wrapped() {
    let dir = temp_dir("pf_ids");
    let mut a = Service::new(ServiceConfig::default());
    a.register_generated("s", &spec()).unwrap();
    let cold = count(&mut a, 1, DECOMPOSED, false);
    let survivors = cold.plan.and_then(|p| p.survivors);
    let n_sub = survivors.expect("the planned op reports its survivors");
    let path = state::save(&a, &dir).unwrap();
    let good = fs::read_to_string(&path).unwrap();
    assert_eq!(good.matches("\tlss+pf\t").count(), 1, "one `+pf` entry");
    let order0 = {
        let line = good.lines().find(|l| l.starts_with("store\tstate\t"));
        ids(line.unwrap().split('\t').nth(8).unwrap())[0]
    };
    type Edit = Box<dyn Fn(&mut Vec<String>)>;
    let cases: [(&str, Edit); 3] = [
        ("ordered id N′", Box::new(set(8, 0, n_sub))),
        ("ordered id + 2³²", Box::new(set(8, 0, order0 + (1 << 32)))),
        ("duplicate id", Box::new(set(8, 1, order0))),
    ];
    for (what, edit) in &cases {
        fs::write(&path, with_state_fields(&good, edit)).unwrap();
        let mut svc = Service::new(ServiceConfig::default());
        let refused = state::load(&mut svc, &dir);
        let parsed = match &refused {
            Err(StateError::Corrupt { message }) => message.contains("bad ordering"),
            _ => false,
        };
        assert!(
            if what.contains("2³²") {
                parsed
            } else {
                matches!(refused, Err(StateError::Restore { .. }))
            },
            "{what}: {refused:?}"
        );
    }
    fs::write(&path, &good).unwrap();
    let mut b = Service::new(ServiceConfig::default());
    let summary = state::load(&mut b, &dir).unwrap().unwrap();
    assert_eq!(summary.models, 1);
    let _ = fs::remove_dir_all(&dir);
}

/// The parent re-created a lineage by bumping the version once per step
/// — `1 << 40` steps here — before serving anything.
#[test]
fn a_long_version_lineage_is_restored_in_one_step() {
    let dir = temp_dir("lineage");
    const VERSION: u64 = 1 << 40;
    let mut a = Service::new(ServiceConfig::default());
    a.register_generated("s", &spec()).unwrap();
    a.advance_version("s", VERSION).unwrap();
    let a_cold = count(&mut a, 0, PLAIN, false);
    assert_eq!((a_cold.served, a_cold.table_version), ("cold", VERSION));
    let a_fresh = count(&mut a, 42, PLAIN, true);
    state::save(&a, &dir).unwrap();

    let mut b = Service::new(ServiceConfig::default());
    let summary = state::load(&mut b, &dir).unwrap().unwrap();
    assert_eq!(
        (summary.datasets, summary.models, summary.cached),
        (1, 1, 1)
    );
    assert_eq!(b.dataset_version("s"), Some(VERSION));
    let b_fresh = count(&mut b, 42, PLAIN, true);
    assert_eq!((b_fresh.served, b_fresh.table_version), ("warm", VERSION));
    assert_bits_equal(
        &b_fresh,
        &a_fresh,
        "first warm request at the restored version",
    );
    assert_eq!(b.stats().oracle_evals, a_fresh.evals as u64);
    // An invalidation still moves the lineage on by one.
    b.invalidate("s").unwrap();
    assert_eq!(b.dataset_version("s"), Some(VERSION + 1));
    assert_eq!(b.store_len(), 0);

    let _ = fs::remove_dir_all(&dir);
}

/// A cached answer for a dataset the snapshot does not register, or for
/// another version than the one it restores, answers nothing: it is not
/// counted, not held, and not written back by the next save.
#[test]
fn cache_lines_for_unknown_datasets_or_stale_versions_are_dropped() {
    let dir = temp_dir("stale_cache");
    let mut a = Service::new(ServiceConfig::default());
    a.register_generated("s", &spec()).unwrap();
    count(&mut a, 0, PLAIN, false);
    let path = state::save(&a, &dir).unwrap();
    let good = fs::read_to_string(&path).unwrap();
    let line = good.lines().find(|l| l.starts_with("cache\t")).unwrap();
    let with_field = |at: usize, to: &str| {
        let mut fields: Vec<&str> = line.split('\t').collect();
        fields[at] = to;
        fields.join("\t")
    };
    // Fields of a `cache` line: 1 dataset, 4 table version.
    let (unknown, stale) = (with_field(1, "ghost"), with_field(4, "7"));
    let planted = good.replacen(line, &format!("{line}\n{unknown}\n{stale}"), 1);
    fs::write(&path, resealed(&planted)).unwrap();

    let mut b = Service::new(ServiceConfig::default());
    let summary = state::load(&mut b, &dir).unwrap().unwrap();
    assert_eq!((summary.models, summary.cached), (1, 1));
    assert_eq!(b.cache_len(), 1);
    let again = temp_dir("stale_cache_again");
    let saved = fs::read_to_string(state::save(&b, &again).unwrap()).unwrap();
    assert_eq!(saved, good, "neither planted line is written back");

    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&again);
}

/// A well-sealed snapshot the decoder refuses must not take the server
/// down: the dispatcher logs it, starts cold and keeps serving.
#[test]
fn tcp_server_cold_starts_over_a_snapshot_it_refuses() {
    let dir = temp_dir("tcp_refused");
    let mut a = Service::new(ServiceConfig::default());
    a.register_generated("s", &spec()).unwrap();
    count(&mut a, 0, PLAIN, false);
    let path = state::save(&a, &dir).unwrap();
    let good = fs::read_to_string(&path).unwrap();
    let broken = with_state_fields(&good, |f| f[8] = f[8].replacen(',', ",,", 1));
    for snapshot in [
        with_state_fields(&good, |f| f[11] = "9,9,9".into()),
        legacy_lss_at_4(&good),
        broken,
        resealed(&good.replacen("lts-state/v4", "lts-state/v3", 1)),
    ] {
        fs::write(&path, snapshot).unwrap();
        let config = NetConfig {
            repl: ReplOptions {
                deterministic: true,
            },
            state_dir: Some(dir.clone()),
            ..NetConfig::default()
        };
        let server = NetServer::bind("127.0.0.1:0", config).expect("bind");
        let mut c = Client::connect(server.local_addr());
        let unknown = c.roundtrip(&format!("count s budget=150 id=7 :: {PLAIN}"));
        assert!(
            unknown.contains("\"ok\": false"),
            "nothing restored: {unknown}"
        );
        let resp = c.roundtrip("register sports s rows=600 level=M seed=3");
        assert!(resp.contains("\"registered\""), "{resp}");
        let cold = c.roundtrip(&format!("count s budget=150 id=7 :: {PLAIN}"));
        assert!(cold.contains("\"served\": \"cold\""), "{cold}");
        let ack = c.roundtrip("shutdown");
        assert!(ack.contains("\"shutting_down\": true"), "{ack}");
        drop(c);
        server.join();
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn tcp_restart_serves_first_warm_request_bit_identically() {
    let dir = temp_dir("tcp");
    let config = NetConfig {
        repl: ReplOptions {
            deterministic: true,
        },
        state_dir: Some(dir.clone()),
        ..NetConfig::default()
    };

    // Run 1: register, cold count, cached repeat; graceful shutdown
    // writes the snapshot.
    let server = NetServer::bind("127.0.0.1:0", config.clone()).expect("bind");
    let golden_cached = {
        let mut c = Client::connect(server.local_addr());
        let resp = c.roundtrip("register sports s rows=600 level=M seed=3");
        assert!(resp.contains("\"registered\""), "{resp}");
        let cold = c.roundtrip(&format!("count s budget=150 id=7 :: {PLAIN}"));
        assert!(cold.contains("\"served\": \"cold\""), "{cold}");
        let cached = c.roundtrip(&format!("count s budget=150 id=7 :: {PLAIN}"));
        assert!(cached.contains("\"served\": \"cached\""), "{cached}");
        let ack = c.roundtrip("shutdown");
        assert!(ack.contains("\"shutting_down\": true"), "{ack}");
        cached
    };
    server.join();
    assert!(
        dir.join(lts_serve::STATE_FILE).is_file(),
        "snapshot written"
    );

    // Run 2: a NEW server process-equivalent on the same state dir.
    // Its very first request — no register, no warm-up — must be the
    // byte-identical cached response, at zero oracle cost.
    let server = NetServer::bind("127.0.0.1:0", config).expect("bind restarted");
    {
        let mut c = Client::connect(server.local_addr());
        let first = c.roundtrip(&format!("count s budget=150 id=7 :: {PLAIN}"));
        assert_eq!(first, golden_cached, "restart must replay the exact bytes");
        assert!(first.contains("\"evals\": 0"), "{first}");
        let stats = c.roundtrip("stats");
        assert!(
            stats.contains("\"oracle_evals\": 0,"),
            "zero oracle evaluations across the whole restarted run: {stats}"
        );
        let ack = c.roundtrip("shutdown");
        assert!(ack.contains("\"shutting_down\": true"), "{ack}");
    }
    server.join();

    let _ = fs::remove_dir_all(&dir);
}
