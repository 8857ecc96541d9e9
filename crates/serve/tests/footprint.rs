//! What a distinct query retains, measured exactly: live heap bytes
//! under a counting global allocator (never RSS).
//!
//! With `N` rows, `M` prefilter survivors and `d` feature columns
//! (ARCHITECTURE.md, "What a distinct query retains"):
//!
//! * a **planned** query keeps its survivor id map (`8·M`), the
//!   survivors' feature rows (`8·d·M`) and the warm state's score
//!   ordering (`8` per ordered survivor) — `(16 + 8d)·M` plus a fixed
//!   part (parsed predicate, training and pilot labels, cuts, cache
//!   entry: `O(budget)` and a few KiB), and nothing proportional to
//!   `N × columns`;
//! * a **monolithic** query keeps the ordering over the population
//!   (`8·N`) plus the same fixed part — no feature matrix of its own;
//! * **no** query keeps its classifier: the fixed part has no room for
//!   a forest, at either budget measured;
//! * the dataset version keeps **one** zone index, whatever the number
//!   of queries over it: `16·N` bytes of clustered filter columns plus
//!   the kd boxes, built by the first subquery that can use it and
//!   dropped with the table when the dataset is registered again.
//!
//! One `#[test]` on purpose: the allocator counts the whole process, so
//! nothing else may run beside the measured sections.

use lts_core::{restrict_problem, CountingProblem, LogicalPlan, PhysicalPlan};
use lts_data::{sports_scenario, SelectivityLevel};
use lts_serve::{Request, Service, ServiceConfig, Target};
use lts_table::{parse_condition, ExprPredicate, PartitionedTable, TableRegistry};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);

/// The system allocator with a live-byte counter. `realloc` and
/// `alloc_zeroed` keep their default bodies, which go through `alloc` /
/// `dealloc` and are therefore counted.
struct CountingAllocator;

// SAFETY: every call forwards to `System` with the caller's layout and
// pointer unchanged, so `System`'s own contract carries over; the
// counter is a statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's, passed through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
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

const N: usize = 8_000;
const FEATURES: [&str; 2] = ["strikeouts", "wins"];
/// Fixed part of one distinct query: everything that does not grow with
/// `N` or `M` — parsed predicate, training and pilot ids + labels, cuts,
/// catalog / store / cache entries. Measured 6.2 KB per query at a
/// 150-label budget and 6.5 KB at 250; the slack absorbs hash-map
/// growth steps. A retained proxy does not fit: the 100-tree forest
/// over 75 labels alone is ≈ 43 KiB, and larger at 250.
const FIXED_PER_QUERY: usize = 12 * 1024;
/// The budgets the bounds are held at.
const BUDGETS: [usize; 2] = [150, 250];
/// `(16 + 8d)` at `d = 2`.
const PER_SURVIVOR: usize = 32;
/// The ordering of a monolithic warm state.
const PER_ROW_MONOLITHIC: usize = 8;
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
        let mut survivors = 0usize;
        for i in 0..40usize {
            let keep = [0.30, 0.20, 0.12][i % 3];
            let k = 10 + 3 * i + round;
            let condition = format!("strikeouts > {} AND {}", cut(keep), skyband(k));
            let response = service.run(request((100 + i) as u64, condition, budget));
            assert!(response.ok, "{:?}", response.error);
            let plan = response.plan.expect("the query decomposes");
            assert_eq!(plan.kind, "prefilter_estimate");
            survivors += plan.survivors.expect("a prefilter route reports survivors");
        }
        let grown = LIVE_BYTES.load(Ordering::Relaxed) - before;
        let bound = 40 * FIXED_PER_QUERY + PER_SURVIVOR * survivors;
        assert!(
            grown <= bound,
            "budget {budget}: 40 planned queries over {survivors} survivors retain \
             {grown} B > {bound} B"
        );
        // The bound has no room for a copy of the survivors' columns.
        assert!(bound < 8 * table.schema().len() * survivors);

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
        let bound = 20 * (FIXED_PER_QUERY + PER_ROW_MONOLITHIC * N);
        assert!(
            grown <= bound,
            "budget {budget}: 20 monolithic queries retain {grown} B > {bound} B"
        );
        // … nor this one for a feature matrix (8·d·N) or a zone index
        // beside each ordering: the table still holds the one it built.
        assert!(bound < 20 * (PER_ROW_MONOLITHIC + 8 * FEATURES.len()) * N);
        assert!(bound < 20 * (PER_ROW_MONOLITHIC * N + zones));
        assert_eq!(table.zone_bytes(), zones);
    }

    // The sharing behind the numbers: a plan's restricted problem, and
    // any restriction of it, evaluate against the parent's table and
    // label as their parent does.
    {
        let registry = TableRegistry::new().register("s", Arc::clone(&table));
        let text = format!("strikeouts > {} AND {}", cut(0.2), skyband(20));
        let expr = parse_condition(&text, &registry).unwrap();
        let predicate = Arc::new(ExprPredicate::new("q", expr.clone()));
        let problem = CountingProblem::new(Arc::clone(&table), predicate, &FEATURES);
        let plan = PhysicalPlan::build(
            Arc::new(problem.unwrap()),
            &PartitionedTable::auto(Arc::clone(&table)),
            LogicalPlan::of(&expr),
        )
        .unwrap();
        let restricted = plan.restricted().expect("rows survive");
        assert!(Arc::ptr_eq(restricted.objects(), &table));
        let last = restricted.n() - 1;
        let nested = restrict_problem(restricted, &[0, last]).unwrap();
        assert!(Arc::ptr_eq(nested.objects(), &table));
        for (local, parent) in [(0, 0), (1, last)] {
            assert_eq!(
                nested.label(local).unwrap(),
                restricted.label(parent).unwrap()
            );
        }
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
