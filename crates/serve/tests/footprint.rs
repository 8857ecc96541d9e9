//! What a distinct query retains, measured exactly: live heap bytes
//! under a counting global allocator (never RSS).
//!
//! With `N` rows, `M` prefilter survivors and `d` feature columns
//! (ARCHITECTURE.md, "What a distinct query retains"):
//!
//! * a **planned** query keeps the warm state's score ordering,
//!   bit-packed at `⌈log₂ M⌉` bits a survivor (`⌈log₂ M⌉·M/8` bytes),
//!   plus a fixed part: the top of its parsed predicate (its subquery
//!   tree is the dataset version's, shared by every query spelling it
//!   alike), training and pilot labels, cuts, a decomposition whose
//!   residual canonical is a span of the entry's key, the entry with its
//!   warm state and answer inline, and its span in the trace ring —
//!   `O(budget)`, measured 3.0 KB at budget 150 and 3.2 KB at 250,
//!   held to 4 KiB. Its survivor id
//!   list is not its own: the dataset version keeps one per distinct
//!   selective prefilter (`4·M`: `u32` ids), which every plan with that
//!   prefilter shares — its restricted problem's predicate and feature
//!   view both read it. So `K` planned queries over one prefilter cost
//!   `K·(⌈log₂ M⌉·M/8 + fixed) + 4·M`, and a planned query with a
//!   prefilter of its own at most `⌈log₂ M⌉·M/8 + 4·M + fixed`. It
//!   keeps no feature rows: the view reads the table's feature columns
//!   through the id list, and no served path forces
//!   `CountingProblem::features`, which would gather `8·d·M` bytes;
//! * a **monolithic** query keeps the ordering over the population
//!   (`⌈log₂ N⌉·N/8`) plus the same fixed part less the decomposition
//!   and the restricted problem — 2.4 KB at budget 150 and 3.1 KB at
//!   250, held to 3.5 KiB; no feature matrix of
//!   its own — and so does a query whose prefilter is too unselective
//!   to plan over: the dataset version keeps that prefilter's survivor
//!   count, not its ids;
//! * **no** query keeps its classifier: the fixed part has no room for
//!   a forest, at either budget measured;
//! * the dataset version keeps **one** zone index, whatever the number
//!   of queries over it: `16·N` bytes of clustered filter columns plus
//!   the kd boxes, built by the first subquery that can use it and
//!   dropped with the table when the dataset is registered again;
//! * a **neighbors** dataset keeps its three read columns (`3·8·N`) and
//!   no padding through everything the benchmark does with it, restore
//!   included; the first query that names a padding column makes all 39
//!   of them, once. A **sports** dataset keeps its five read columns
//!   (`5·8·N`) through the same session; the first query that names
//!   `walks`, `hits`, `losses` or `era` makes those four, once;
//! * a span in the trace ring keeps its events at their length,
//!   `size_of::<TraceEvent>()` bytes each (40 B, no heap string);
//! * registering a dataset keeps no copy of its feature columns, one
//!   cold monolithic prepare at `N = 8 000` peaks at most 320 KiB above
//!   the live bytes before it, and a warm resume allocates by its budget:
//!   the same bytes at `N` = 2 000 and 32 000.
//!
//! The tests take one lock: the allocator counts the whole process, so
//! nothing else may run beside the measured sections.

use lts_core::{restrict_problem, CountingProblem, PhysicalPlan};
use lts_data::{neighbors_scenario, sports_scenario, QueryParam, SelectivityLevel};
use lts_obs::TraceEvent;
use lts_serve::{
    DatasetSpec, Observability, Request, Response, Service, ServiceConfig, Target,
    MAX_REGISTER_ROWS,
};
use lts_table::{
    decompose, parse_condition, ExprPredicate, FnPredicate, PartitionedTable, Table, TableRegistry,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
/// The most `LIVE_BYTES` has reached since [`reset_peak`].
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);
/// Every byte ever allocated.
static ALLOCATED_BYTES: AtomicUsize = AtomicUsize::new(0);

/// The system allocator with live, peak and cumulative byte counters.
/// `realloc` and `alloc_zeroed` keep their default bodies, which go
/// through `alloc` / `dealloc` and are therefore counted.
struct CountingAllocator;

// SAFETY: every call forwards to `System` with the caller's layout and
// pointer unchanged, so `System`'s own contract carries over; the
// counter is a statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's, passed through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let live = LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
            ALLOCATED_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: `p` was returned by `alloc` above, i.e. by `System`,
        // for this `layout`.
        unsafe { System.dealloc(p, layout) };
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Held by each test for its whole run.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn live_bytes() -> usize {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// Start a new peak at the live bytes now; returns them.
fn reset_peak() -> usize {
    let live = live_bytes();
    PEAK_BYTES.store(live, Ordering::Relaxed);
    live
}

fn peak_bytes() -> usize {
    PEAK_BYTES.load(Ordering::Relaxed)
}

fn allocated_bytes() -> usize {
    ALLOCATED_BYTES.load(Ordering::Relaxed)
}

const N: usize = 8_000;
const FEATURES: [&str; 2] = ["strikeouts", "wins"];
/// Fixed part of one distinct planned query: everything that does not
/// grow with `N` or `M` — the top of its parsed predicate (the subquery
/// tree is the dataset version's, shared), training and pilot ids +
/// labels, cuts, its decomposition (the residual canonical a span of
/// its key), its restricted problem, its catalog entry with the warm
/// state and answer inline, its span in the trace ring. Measured 3.0 KB
/// over a shared prefilter at a 150-label budget and 3.2 KB at 250; the
/// slack absorbs hash-map growth steps. An entry with a subquery tree
/// of its own, a copied residual canonical, hash maps for one state and
/// one answer and a span with spare slots (5.1 KB) does not fit, nor
/// does a retained proxy: the 100-tree forest over 75 labels alone is
/// ≈ 43 KiB, and larger at 250.
const FIXED_PLANNED: usize = 4 * 1024;
/// The fixed part of one distinct monolithic query: the same parts but
/// a decomposition and a restricted problem. Measured 2.4 KB at a
/// 150-label budget and 3.1 KB at 250; the per-entry copies above
/// (3.9 / 4.8 KB) do not fit.
const FIXED_MONOLITHIC: usize = 3 * 1024 + 512;
/// The budgets the bounds are held at.
const BUDGETS: [usize; 2] = [150, 250];
/// A `u32` survivor id of a selection, at most one per survivor for a
/// prefilter first scanned by this query.
const PER_SELECTED: usize = 4;

/// The packed ordering of a warm state over `n` objects: `⌈log₂ n⌉`
/// bits an object, in whole 64-bit words — all a planned query adds
/// over a prefilter already scanned, and all a monolithic one adds
/// over its fixed part.
fn ordering_bytes(n: usize) -> usize {
    let width = usize::BITS - n.saturating_sub(1).max(1).leading_zeros();
    (n * width as usize).div_ceil(64) * 8
}

/// The zone index: the two filter columns clustered (`16·N`) plus one
/// 56-byte kd node per at least 64 rows.
const ZONES_PER_ROW: usize = 17;

fn skyband(k: usize) -> String {
    format!(
        "(SELECT COUNT(*) FROM s WHERE strikeouts >= o.strikeouts AND wins >= o.wins \
         AND (strikeouts > o.strikeouts OR wins > o.wins)) < {k}"
    )
}

fn request(id: u64, condition: String, budget: usize) -> Request {
    Request {
        id,
        dataset: "s".into(),
        condition,
        target: Target::Budget(budget),
        fresh: false,
    }
}

#[test]
fn a_distinct_query_retains_its_delta_not_a_copy_of_the_table() {
    let _serial = serial();
    let table = sports_scenario(N, SelectivityLevel::M, 3).unwrap().table;
    let mut sorted = table.floats("strikeouts").unwrap().to_vec();
    sorted.sort_by(f64::total_cmp);
    // `strikeouts > cut(keep)` keeps about `keep · N` rows.
    let cut = |keep: f64| sorted[((1.0 - keep) * N as f64) as usize];
    let mut service = Service::new(ServiceConfig::default());
    service
        .register_dataset("s", Arc::clone(&table), &FEATURES)
        .unwrap();
    // Lazy one-time state (thread-locals, registry cells, the zone
    // index) is not growth. The first subquery builds the index.
    assert_eq!(table.zone_bytes(), 0);
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    assert!(service.run(request(0, skyband(5), 150)).ok);
    let zones = table.zone_bytes();
    assert!(
        (16 * N..=ZONES_PER_ROW * N).contains(&zones),
        "zone index of {zones} B"
    );
    assert!(LIVE_BYTES.load(Ordering::Relaxed) - before >= zones);
    let warm_up = format!("strikeouts > {} AND {}", cut(0.5), skyband(5));
    assert!(service.run(request(1, warm_up, 150)).ok);

    // Distinct queries per budget: `round` shifts every threshold.
    for (round, budget) in BUDGETS.into_iter().enumerate() {
        // 40 distinct planned queries.
        let before = LIVE_BYTES.load(Ordering::Relaxed);
        let (mut survivors, mut orderings) = (0usize, 0usize);
        for i in 0..40usize {
            let keep = [0.30, 0.20, 0.12][i % 3];
            let k = 10 + 3 * i + round;
            let condition = format!("strikeouts > {} AND {}", cut(keep), skyband(k));
            let response = service.run(request((100 + i) as u64, condition, budget));
            assert!(response.ok, "{:?}", response.error);
            let plan = response.plan.expect("the query decomposes");
            assert_eq!(plan.kind, "prefilter_estimate");
            let m = plan.survivors.expect("a prefilter route reports survivors");
            (survivors, orderings) = (survivors + m, orderings + ordering_bytes(m));
        }
        let grown = LIVE_BYTES.load(Ordering::Relaxed) - before;
        let bound = 40 * FIXED_PLANNED + orderings + PER_SELECTED * survivors;
        assert!(
            grown <= bound,
            "budget {budget}: 40 planned queries over {survivors} survivors retain \
             {grown} B > {bound} B"
        );
        // The bound has no room for a copy of the survivors' columns, nor
        // for their feature rows — which a `features()` forced on a
        // catalog plan's restricted problem would keep — nor for 8-byte
        // ids: an id list of `8·M` and an ordering of `8` per survivor
        // outside the training sample.
        assert!(bound < 8 * table.schema().len() * survivors);
        assert!(bound < 8 * FEATURES.len() * survivors);
        assert!(bound < 16 * survivors - 8 * 40 * budget);

        // 20 distinct monolithic queries.
        let before = LIVE_BYTES.load(Ordering::Relaxed);
        for i in 0..20usize {
            let response = service.run(request(
                (200 + i) as u64,
                skyband(11 + 3 * i + round),
                budget,
            ));
            assert!(response.ok && response.served == "cold", "{response:?}");
            assert!(response.plan.is_none());
        }
        let grown = LIVE_BYTES.load(Ordering::Relaxed) - before;
        let bound = 20 * (FIXED_MONOLITHIC + ordering_bytes(N));
        assert!(
            grown <= bound,
            "budget {budget}: 20 monolithic queries retain {grown} B > {bound} B"
        );
        // … nor this one for an 8-byte ordering, a feature matrix
        // (8·d·N) or a zone index beside each ordering: the table still
        // holds the one it built.
        assert!(bound < 20 * 8 * (N - budget));
        assert!(bound < 20 * (ordering_bytes(N) + 8 * FEATURES.len() * N));
        assert!(bound < 20 * (ordering_bytes(N) + zones));
        assert_eq!(table.zone_bytes(), zones);
    }

    // The sharing behind the numbers: a plan's restricted problem, and
    // any restriction of it, evaluate against the parent's table, read
    // their features from its columns and label as their parent does.
    {
        let registry = TableRegistry::new().register("s", Arc::clone(&table));
        let text = format!("strikeouts > {} AND {}", cut(0.2), skyband(20));
        let expr = parse_condition(&text, &registry).unwrap();
        let predicate = Arc::new(ExprPredicate::new("q", expr.clone()));
        let problem = CountingProblem::new(Arc::clone(&table), predicate, &FEATURES);
        let plan = PhysicalPlan::build(
            &problem.unwrap(),
            &PartitionedTable::auto(Arc::clone(&table)),
            &decompose(&expr).exact_prefilter.unwrap(),
        )
        .unwrap();
        let restricted = plan.restricted().expect("rows survive");
        assert!(Arc::ptr_eq(restricted.objects(), &table));
        let view = restricted.feature_view();
        assert!(std::ptr::eq(view.table(), &*table));
        // One id list, held by the view and by the predicate that labels
        // through it.
        let ids = view.ids().expect("a restriction reads through its ids");
        assert_eq!(ids.len(), restricted.n());
        assert_eq!(Arc::strong_count(ids), 2);
        let last = restricted.n() - 1;
        let nested = restrict_problem(restricted, &[0, last]).unwrap();
        assert!(Arc::ptr_eq(nested.objects(), &table));
        assert!(std::ptr::eq(nested.feature_view().table(), &*table));
        for (local, parent) in [(0, 0), (1, last)] {
            assert_eq!(
                nested.label(local).unwrap(),
                restricted.label(parent).unwrap()
            );
        }

        // What the service runs on a restricted problem — prepare and
        // resume under its LSS configuration — keeps nothing once the
        // state goes: no path forces `features()`, whose rows this would
        // see.
        let rows = 8 * FEATURES.len() * restricted.n();
        let lss = ServiceConfig::default().lss;
        let before = live_bytes();
        let warm = lss.prepare(restricted, 150, 7).unwrap();
        lss.estimate_prepared(restricted, &warm, 8).unwrap();
        drop(warm);
        assert!(live_bytes().saturating_sub(before) < rows);
        assert!(!restricted.has_gathered_features());
        let gathered = restricted.features();
        let columns = FEATURES.map(|name| table.floats(name).unwrap());
        for (local, &id) in ids.iter().enumerate() {
            let want = columns.map(|column| column[id as usize]);
            assert_eq!(gathered.row(local), want);
        }
        assert!(live_bytes().saturating_sub(before) >= rows);
    }

    // A new version of the dataset: the old table goes, and its zone
    // index with it, once nothing derived from it is left.
    let fresh = sports_scenario(N, SelectivityLevel::M, 4).unwrap().table;
    let old = Arc::downgrade(&table);
    drop(table);
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    service
        .register_dataset("s", Arc::clone(&fresh), &FEATURES)
        .unwrap();
    assert!(
        old.upgrade().is_none(),
        "the old table outlives its version"
    );
    assert!(before - LIVE_BYTES.load(Ordering::Relaxed) >= zones);
    assert_eq!(fresh.zone_bytes(), 0);
}

#[test]
fn planned_queries_over_one_prefilter_share_its_survivors() {
    let _serial = serial();
    let table = sports_scenario(N, SelectivityLevel::M, 3).unwrap().table;
    let mut sorted = table.floats("strikeouts").unwrap().to_vec();
    sorted.sort_by(f64::total_cmp);
    let prefilter = format!("strikeouts > {}", sorted[(0.7 * N as f64) as usize]);
    let mut service = Service::new(ServiceConfig::default());
    service
        .register_dataset("s", Arc::clone(&table), &FEATURES)
        .unwrap();
    // The first query scans the prefilter (and builds the zone index).
    let first = service.run(request(0, format!("{prefilter} AND {}", skyband(10)), 150));
    let plan = first.plan.expect("the query decomposes");
    let survivors = plan.survivors.expect("a prefilter route reports survivors");
    assert!((2_300..2_500).contains(&survivors), "M = {survivors}");

    const K: usize = 20;
    let before = live_bytes();
    for i in 0..K {
        let condition = format!("{prefilter} AND {}", skyband(13 + 3 * i));
        let response = service.run(request(1 + i as u64, condition, 150));
        assert!(response.ok && response.served == "cold", "{response:?}");
        let plan = response.plan.expect("the query decomposes");
        assert_eq!(plan.kind, "prefilter_estimate");
        assert_eq!(plan.survivors, Some(survivors));
    }
    let grown = live_bytes() - before;
    // A survivor list of each query's own (`4·M` more a query) does not
    // fit, nor a `u32` ordering.
    let bound = K * (ordering_bytes(survivors) + FIXED_PLANNED);
    assert!(
        grown < bound,
        "{K} planned queries over one scanned prefilter of {survivors} survivors retain \
         {grown} B ≥ {bound} B"
    );
}

#[test]
fn an_unselective_prefilter_keeps_its_count_not_its_ids() {
    let _serial = serial();
    let table = sports_scenario(N, SelectivityLevel::M, 3).unwrap().table;
    let mut sorted = table.floats("strikeouts").unwrap().to_vec();
    sorted.sort_by(f64::total_cmp);
    let prefilter = format!("strikeouts > {}", sorted[N / 10]);
    let mut service = Service::new(ServiceConfig::default());
    service
        .register_dataset("s", Arc::clone(&table), &FEATURES)
        .unwrap();
    // The first query builds the zone index.
    assert!(service.run(request(0, skyband(5), 150)).ok);
    let retained = |service: &mut Service, id, condition| {
        let before = live_bytes();
        let response = service.run(request(id, condition, 150));
        assert!(response.ok && response.served == "cold", "{response:?}");
        (live_bytes() - before, response)
    };
    let (twin, _) = retained(&mut service, 1, skyband(10));
    // A 90 % prefilter routes monolithically: its scan leaves the
    // survivor count, not `4·M` bytes of ids nobody reads.
    let condition = format!("{prefilter} AND {}", skyband(13));
    let (grown, response) = retained(&mut service, 2, condition);
    let plan = response.plan.expect("the query decomposes");
    assert_eq!((plan.kind, plan.survivors), ("monolithic", None));
    assert!(
        grown <= twin + FIXED_PLANNED,
        "a 90 % prefilter query retains {grown} B, its monolithic twin {twin} B"
    );
    // The count is what `explain` reports as observed.
    let condition = format!("{prefilter} AND {}", skyband(13));
    let line = service
        .explain("s", &condition, Target::Budget(150))
        .unwrap();
    assert!(!line.contains("\"observed_selectivity\": null"), "{line}");
}

/// Run one request on `dataset`, which must succeed.
fn served(
    service: &mut Service,
    dataset: &str,
    id: u64,
    condition: String,
    budget: usize,
    fresh: bool,
) -> Response {
    let response = service.run(Request {
        id,
        dataset: dataset.into(),
        condition,
        target: Target::Budget(budget),
        fresh,
    });
    assert!(response.ok, "{:?}", response.error);
    response
}

/// Bytes of a neighbors table's read columns: `src_rate`, `dst_rate`,
/// `label`.
const fn read_columns(rows: usize) -> usize {
    3 * 8 * rows
}

/// The eager table's response to `f05 > 1.0 AND <disk>` (id 900, budget
/// 200, seed-1 neighbors at 8 000 rows), wall time masked.
const F05_LINE: &str = concat!(
    r#"{"id": 900, "ok": true, "served": "cold", "route": "lss", "fingerprint": "d9978989d70470a8", "#,
    r#""estimate": 370.4783281733746, "std_error": 37.473603834732145, "lo": 296.1407784539408, "#,
    r#""hi": 444.81587789280843, "level": 0.95, "evals": 200, "budget": 200, "#,
    r#""model_version": "bf72f3da461708ba", "table_version": 0, "wall_micros": 0, "#,
    r#""plan": {"kind": "prefilter_estimate", "prefilter": "(1.0 < f05)", "residual": "#,
    r#""((SELECT Count(*) FROM [src_rate:Float,dst_rate:Float,f02:Float,f03:Float,f04:Float,"#,
    r#"f05:Float,f06:Float,f07:Float,f08:Float,f09:Float,f10:Float,f11:Float,f12:Float,f13:Float,"#,
    r#"f14:Float,f15:Float,f16:Float,f17:Float,f18:Float,f19:Float,f20:Float,f21:Float,f22:Float,"#,
    r#"f23:Float,f24:Float,f25:Float,f26:Float,f27:Float,f28:Float,f29:Float,f30:Float,f31:Float,"#,
    r#"f32:Float,f33:Float,f34:Float,f35:Float,f36:Float,f37:Float,f38:Float,f39:Float,f40:Float,"#,
    r#"label:Int;rows=8000] WHERE (Sqrt((Power((o.src_rate - src_rate), 2.0) + "#,
    r#"Power((o.dst_rate - dst_rate), 2.0))) <= 0.21945161881089598)) < 10.0)", "#,
    r#""population": 8000, "survivors": 1969, "selectivity": 0.246125}}"#,
);

#[test]
fn neighbors_padding_is_made_only_by_a_query_that_names_it() {
    let _serial = serial();
    let spec = |rows| DatasetSpec {
        kind: "neighbors".into(),
        rows,
        level: "M".into(),
        seed: 1,
    };
    let mut service = Service::new(ServiceConfig::default());
    service.register_generated("n", &spec(N)).unwrap();
    let table = Arc::clone(service.dataset_table("n").unwrap());
    assert_eq!(table.column_bytes(), read_columns(N));
    // The benchmark's radius, calibrated on its own copy of the table.
    let scenario = neighbors_scenario(N, SelectivityLevel::M, 1).unwrap();
    let QueryParam::D(d) = scenario.param else {
        panic!("neighbors calibrates d")
    };
    assert_eq!(scenario.table.column_bytes(), read_columns(N));
    let disk = |k: usize| {
        format!(
            "(SELECT COUNT(*) FROM n WHERE SQRT(POWER(o.src_rate - src_rate, 2) + \
             POWER(o.dst_rate - dst_rate, 2)) <= {d}) < {k}"
        )
    };
    let skyband = |k: usize| {
        format!(
            "(SELECT COUNT(*) FROM n WHERE src_rate >= o.src_rate AND dst_rate >= o.dst_rate \
             AND (src_rate > o.src_rate OR dst_rate > o.dst_rate)) < {k}"
        )
    };
    let run = |service: &mut Service, id, condition, budget, fresh| {
        served(service, "n", id, condition, budget, fresh)
    };

    // Monolithic ops at the benchmark's budgets, each resumed fresh.
    for (i, budget) in [200, 250, 300].into_iter().enumerate() {
        for (j, condition) in [disk(10 + i), skyband(5 + i)].into_iter().enumerate() {
            let id = 10 * (i + 1) as u64 + 2 * j as u64;
            let cold = run(&mut service, id, condition.clone(), budget, false);
            assert_eq!((cold.served, cold.plan.is_none()), ("cold", true));
            assert_eq!(
                run(&mut service, id + 1, condition, budget, true).served,
                "warm"
            );
        }
    }
    // A planned op: a cheap conjunct on a read column.
    let mut xs = table.floats("src_rate").unwrap().to_vec();
    xs.sort_by(f64::total_cmp);
    let planned = format!("src_rate > {} AND {}", xs[N * 4 / 5], disk(12));
    let response = run(&mut service, 100, planned, 200, false);
    assert_eq!(
        response.plan.expect("it decomposes").kind,
        "prefilter_estimate"
    );
    assert_eq!(table.column_bytes(), read_columns(N));

    // Save and restore: the restored dataset is generated without it too.
    let dir = std::env::temp_dir().join(format!("lts_footprint_{}", std::process::id()));
    lts_serve::state::save(&service, &dir).unwrap();
    let mut restored = Service::new(ServiceConfig::default());
    let summary = lts_serve::state::load(&mut restored, &dir).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(summary.map(|s| (s.datasets, s.models)), Some((1, 7)));
    assert_eq!(run(&mut restored, 200, disk(10), 200, true).served, "warm");
    let again = restored.dataset_table("n").unwrap();
    assert_eq!(again.column_bytes(), read_columns(N));
    drop(restored);

    // The largest registration holds its three columns, which are its
    // features too: neither a feature matrix (`16` bytes a row) nor 39
    // padding columns fit.
    let before = live_bytes();
    service
        .register_generated("big", &spec(MAX_REGISTER_ROWS))
        .unwrap();
    let grown = live_bytes().saturating_sub(before);
    let big = service.dataset_table("big").unwrap();
    assert_eq!(big.column_bytes(), read_columns(MAX_REGISTER_ROWS));
    assert!(
        grown < 4 * 8 * MAX_REGISTER_ROWS,
        "registration kept {grown} B"
    );

    // A query naming `f05` makes the padding once, and answers as the
    // eagerly generated table did.
    let before = live_bytes();
    let f05 = run(
        &mut service,
        900,
        format!("f05 > 1.0 AND {}", disk(10)),
        200,
        false,
    );
    assert_eq!(table.column_bytes(), 42 * 8 * N);
    assert!(live_bytes() - before >= 39 * 8 * N);
    assert_eq!(f05.to_json(true), F05_LINE);
    let before = live_bytes();
    run(
        &mut service,
        901,
        format!("f05 > 1.5 AND {}", disk(10)),
        200,
        false,
    );
    assert!(live_bytes().saturating_sub(before) < 39 * 8 * N);
    assert_eq!(table.column_bytes(), 42 * 8 * N);
}

/// Bytes of a sports table's read columns: `player_id`, `year`,
/// `ipouts`, `strikeouts`, `wins`.
const fn sports_read_columns(rows: usize) -> usize {
    5 * 8 * rows
}

/// The eager table's response to `era < 3.5 AND <skyband at k>` (id 900,
/// budget 200, seed-1 sports at 8 000 rows), wall time masked.
const ERA_LINE: &str = concat!(
    r#"{"id": 900, "ok": true, "served": "cold", "route": "lss", "fingerprint": "e90baeeabf445d1b", "#,
    r#""estimate": 869.6857142857143, "std_error": 28.858975587144265, "lo": 812.4372696999576, "#,
    r#""hi": 926.9341588714709, "level": 0.95, "evals": 200, "budget": 200, "#,
    r#""model_version": "836ff5fcdd0298d5", "table_version": 0, "wall_micros": 0, "#,
    r#""plan": {"kind": "prefilter_estimate", "prefilter": "(era < 3.5)", "residual": "#,
    r#""((SELECT Count(*) FROM [player_id:Int,year:Int,ipouts:Float,strikeouts:Float,"#,
    r#"walks:Float,hits:Float,wins:Float,losses:Float,era:Float;rows=8000] WHERE "#,
    r#"((((o.strikeouts < strikeouts) OR (o.wins < wins)) AND (o.strikeouts <= strikeouts)) "#,
    r#"AND (o.wins <= wins))) < 2061.0)", "population": 8000, "survivors": 1960, "#,
    r#""selectivity": 0.245}}"#,
);

#[test]
fn sports_unread_columns_are_made_only_by_a_query_that_names_them() {
    let _serial = serial();
    let spec = DatasetSpec {
        kind: "sports".into(),
        rows: N,
        level: "M".into(),
        seed: 1,
    };
    let mut service = Service::new(ServiceConfig::default());
    service.register_generated("s", &spec).unwrap();
    let table = Arc::clone(service.dataset_table("s").unwrap());
    assert_eq!(table.column_bytes(), sports_read_columns(N));
    // The benchmark's `k`, calibrated on its own copy of the table.
    let scenario = sports_scenario(N, SelectivityLevel::M, 1).unwrap();
    let QueryParam::K(k) = scenario.param else {
        panic!("sports calibrates k")
    };
    assert_eq!(scenario.table.column_bytes(), sports_read_columns(N));
    let run = |service: &mut Service, id, condition, budget, fresh| {
        served(service, "s", id, condition, budget, fresh)
    };

    // Monolithic ops at the benchmark's budgets, each resumed fresh.
    for (i, budget) in [200, 250, 300].into_iter().enumerate() {
        let id = 10 * (i + 1) as u64;
        let cold = run(&mut service, id, skyband(k + i), budget, false);
        assert_eq!((cold.served, cold.plan.is_none()), ("cold", true));
        assert_eq!(
            run(&mut service, id + 1, skyband(k + i), budget, true).served,
            "warm"
        );
    }
    // A planned op: a cheap conjunct on a read column.
    let mut xs = table.floats("strikeouts").unwrap().to_vec();
    xs.sort_by(f64::total_cmp);
    let planned = format!("strikeouts > {} AND {}", xs[N * 4 / 5], skyband(k + 3));
    let response = run(&mut service, 100, planned, 200, false);
    assert_eq!(
        response.plan.expect("it decomposes").kind,
        "prefilter_estimate"
    );
    assert_eq!(table.column_bytes(), sports_read_columns(N));

    // Save and restore: the restored dataset is generated without them too.
    let dir = std::env::temp_dir().join(format!("lts_footprint_s_{}", std::process::id()));
    lts_serve::state::save(&service, &dir).unwrap();
    let mut restored = Service::new(ServiceConfig::default());
    let summary = lts_serve::state::load(&mut restored, &dir).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(summary.map(|s| (s.datasets, s.models)), Some((1, 4)));
    assert_eq!(
        run(&mut restored, 200, skyband(k), 200, true).served,
        "warm"
    );
    let again = restored.dataset_table("s").unwrap();
    assert_eq!(again.column_bytes(), sports_read_columns(N));
    drop(restored);

    // A query naming `era` makes the four columns once, and answers as
    // the eagerly generated table did.
    let before = live_bytes();
    let era = run(
        &mut service,
        900,
        format!("era < 3.5 AND {}", skyband(k)),
        200,
        false,
    );
    assert_eq!(table.column_bytes(), 9 * 8 * N);
    assert!(live_bytes() - before >= 4 * 8 * N);
    assert_eq!(era.to_json(true), ERA_LINE);
    let before = live_bytes();
    run(
        &mut service,
        901,
        format!("era < 3.0 AND {}", skyband(k)),
        200,
        false,
    );
    assert!(live_bytes().saturating_sub(before) < 4 * 8 * N);
    assert_eq!(table.column_bytes(), 9 * 8 * N);
}

/// How far above the live bytes before it one cold monolithic prepare
/// at `N = 8 000` may peak: its scored population and ordering at
/// `u32` ids, and the design DP over the passes that can win.
const PREPARE_PEAK: usize = 320 * 1024;

#[test]
fn registration_and_a_cold_prepare_stay_lean() {
    let _serial = serial();
    let table = sports_scenario(N, SelectivityLevel::M, 3).unwrap().table;
    // Registering keeps no copy of the feature columns (`8·d·N`): every
    // query reads the table's own.
    let mut service = Service::new(ServiceConfig::default());
    let before = live_bytes();
    service
        .register_dataset("s", Arc::clone(&table), &FEATURES)
        .unwrap();
    let grown = live_bytes() - before;
    assert!(grown < 4 * 1024, "registration kept {grown} B");

    let registry = TableRegistry::new().register("s", Arc::clone(&table));
    let problem = |k: usize| {
        let expr = parse_condition(&skyband(k), &registry).unwrap();
        let predicate = Arc::new(ExprPredicate::new("q", expr));
        CountingProblem::new(Arc::clone(&table), predicate, &FEATURES).unwrap()
    };
    let lss = ServiceConfig::default().lss;
    // The first subquery builds the table's zone index, once.
    lss.prepare(&problem(5), 150, 1).unwrap();
    for (i, budget) in [150, 200, 250, 300].into_iter().enumerate() {
        let problem = problem(11 + 3 * i);
        let before = reset_peak();
        let warm = lss.prepare(&problem, budget, 7 + i as u64).unwrap();
        let peak = peak_bytes() - before;
        assert!(
            peak <= PREPARE_PEAK,
            "budget {budget}: a cold prepare peaked {peak} B above its baseline"
        );
        drop(warm);
    }
}

#[test]
fn a_warm_resume_allocates_by_its_budget_not_by_n() {
    let _serial = serial();
    let lss = ServiceConfig::default().lss;
    let per_resume = |n: usize| {
        let table = sports_scenario(n, SelectivityLevel::M, 3).unwrap().table;
        let mut sorted = table.floats("strikeouts").unwrap().to_vec();
        sorted.sort_by(f64::total_cmp);
        let cut = sorted[n / 3];
        let predicate = Arc::new(FnPredicate::new("low", move |t: &Table, i| {
            Ok(t.floats("strikeouts")?[i] < cut)
        }));
        let problem = CountingProblem::new(table, predicate, &FEATURES).unwrap();
        let warm = lss.prepare(&problem, 200, 7).unwrap();
        lss.estimate_prepared(&problem, &warm, 1).unwrap();
        let before = allocated_bytes();
        for seed in 2..12 {
            lss.estimate_prepared(&problem, &warm, seed).unwrap();
        }
        (allocated_bytes() - before) / 10
    };
    let (small, large) = (per_resume(2_000), per_resume(32_000));
    assert!(
        10 * small.abs_diff(large) <= small.min(large),
        "a warm resume allocates {small} B at N = 2 000 and {large} B at N = 32 000"
    );
}

/// A span in the trace ring is kept at its length: a cache hit whose span
/// evicts a cold request's frees the cold span's events and keeps its
/// own, each `size_of::<TraceEvent>()` an event with no spare slot.
#[test]
fn a_retained_span_keeps_no_spare_slot() {
    let _serial = serial();
    let table = sports_scenario(2_000, SelectivityLevel::M, 3)
        .unwrap()
        .table;
    // A ring of one span: each request's evicts the one before.
    let obs = Observability::enabled(1, 0);
    let mut service = Service::with_observability(ServiceConfig::default(), obs);
    service.register_dataset("s", table, &FEATURES).unwrap();
    let events = |service: &Service, id| {
        let ring = &service.observability().ring;
        ring.get(id).expect("the span is retained").events.len()
    };
    // A cold request and its hit first, so whatever a hit makes on
    // first use exists before the measured one.
    served(&mut service, "s", 1, skyband(5), 150, false);
    served(&mut service, "s", 2, skyband(5), 150, false);
    served(&mut service, "s", 3, skyband(8), 150, false);
    let cold = events(&service, 3);
    let before = live_bytes();
    let hit = served(&mut service, "s", 4, skyband(8), 150, false);
    let grown = live_bytes() as isize - before as isize;
    assert_eq!(hit.served, "cached");
    let hit = events(&service, 4);
    assert!(
        hit < cold,
        "a hit's span has {hit} events, a cold one's {cold}"
    );
    let event = std::mem::size_of::<TraceEvent>() as isize;
    assert_eq!(grown, (hit as isize - cold as isize) * event);
}
