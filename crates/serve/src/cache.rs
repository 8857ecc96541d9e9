//! The result cache: finished estimates keyed by canonical query.
//!
//! A repeated request (same dataset, same canonical predicate, same
//! planned budget, not marked `fresh`) is answered straight from here —
//! zero oracle evaluations, zero estimator work. Every entry records
//! the **model version** (digest of the warm state that produced it)
//! and the **table version** it was computed against; a bumped table
//! version invalidates on sight, and the [`StalenessPolicy`] bounds how
//! long / how often one estimate may be re-served before the service
//! recomputes it from the (still warm) model store.

use crate::service::Answer;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// When a cached result stops being servable.
#[derive(Debug, Clone, Copy, Default)]
pub struct StalenessPolicy {
    /// Maximum times one entry may be served (`None` = unlimited).
    /// Deterministic — the CI thread-sweep relies on serve counts, not
    /// wall time.
    pub max_serves: Option<u64>,
    /// Maximum wall-clock age (`None` = unlimited). Wall-clock based —
    /// off by default; useful for live deployments, not for replayable
    /// benchmarks.
    pub max_age: Option<Duration>,
}

/// A finished estimate, ready to re-serve.
#[derive(Debug, Clone)]
pub struct CachedResult {
    /// The estimate as computed. A cache hit spends zero oracle
    /// evaluations; `answer.evals` is what it *saved*.
    pub answer: Answer,
    /// Table version it was computed against.
    pub table_version: u64,
    served: u64,
    created: Instant,
}

impl CachedResult {
    /// Times this entry has been re-served.
    pub fn served(&self) -> u64 {
        self.served
    }
}

/// Key of one cacheable computation (ordered dataset, canonical,
/// budget: the order a state snapshot lists them in).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ResultKey {
    /// Dataset name.
    pub dataset: String,
    /// Canonical predicate string.
    pub canonical: String,
    /// Planned budget (0 for the exact route).
    pub budget: usize,
}

/// The staleness-aware result cache.
pub struct ResultCache {
    entries: HashMap<ResultKey, CachedResult>,
    policy: StalenessPolicy,
}

impl ResultCache {
    /// Create with a staleness policy.
    pub fn new(policy: StalenessPolicy) -> Self {
        Self {
            entries: HashMap::new(),
            policy,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Insert (or replace) the result of a finished computation.
    pub fn insert(&mut self, key: ResultKey, answer: Answer, table_version: u64) {
        self.entries.insert(
            key,
            CachedResult {
                answer,
                table_version,
                served: 0,
                created: Instant::now(),
            },
        );
    }

    /// Look up a servable entry: present, computed against the current
    /// table version, and not stale under the policy. A hit increments
    /// the serve counter; a stale or version-mismatched entry is
    /// evicted and `None` returned (the caller recomputes).
    pub fn lookup(&mut self, key: &ResultKey, table_version: u64) -> Option<CachedResult> {
        let stale = match self.entries.get(key) {
            None => return None,
            Some(e) => {
                e.table_version != table_version
                    || self.policy.max_serves.is_some_and(|m| e.served >= m)
                    || self.policy.max_age.is_some_and(|a| e.created.elapsed() > a)
            }
        };
        if stale {
            self.entries.remove(key);
            return None;
        }
        let e = self.entries.get_mut(key).expect("present");
        e.served += 1;
        Some(e.clone())
    }

    /// Iterate over every live entry (unordered) — the export path of
    /// the durable-state snapshot. Does not count as a serve.
    pub fn entries(&self) -> impl Iterator<Item = (&ResultKey, &CachedResult)> {
        self.entries.iter()
    }

    /// Drop every entry of a dataset (invalidation on version bump or
    /// explicit flush).
    pub fn invalidate_dataset(&mut self, dataset: &str) -> usize {
        let before = self.entries.len();
        self.entries.retain(|k, _| k.dataset != dataset);
        before - self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(c: &str) -> ResultKey {
        ResultKey {
            dataset: "d".into(),
            canonical: c.into(),
            budget: 100,
        }
    }

    fn insert(cache: &mut ResultCache, c: &str, version: u64) {
        let answer = Answer {
            estimate: 10.0,
            std_error: 1.0,
            lo: 8.0,
            hi: 12.0,
            level: 0.95,
            evals: 100,
            route: "lss",
            model_version: 7,
        };
        cache.insert(key(c), answer, version);
    }

    #[test]
    fn hit_then_version_bump_invalidates() {
        let mut cache = ResultCache::new(StalenessPolicy::default());
        insert(&mut cache, "q", 0);
        assert!(cache.lookup(&key("q"), 0).is_some());
        assert!(cache.lookup(&key("other"), 0).is_none());
        // Same query, new table version: evicted, must recompute.
        assert!(cache.lookup(&key("q"), 1).is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn max_serves_bounds_reuse() {
        let mut cache = ResultCache::new(StalenessPolicy {
            max_serves: Some(2),
            max_age: None,
        });
        insert(&mut cache, "q", 0);
        assert_eq!(cache.lookup(&key("q"), 0).unwrap().served(), 1);
        assert_eq!(cache.lookup(&key("q"), 0).unwrap().served(), 2);
        // Third serve exceeds the policy: entry evicted.
        assert!(cache.lookup(&key("q"), 0).is_none());
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn max_age_expires_entries() {
        let mut cache = ResultCache::new(StalenessPolicy {
            max_serves: None,
            max_age: Some(Duration::ZERO),
        });
        insert(&mut cache, "q", 0);
        std::thread::sleep(Duration::from_millis(2));
        assert!(cache.lookup(&key("q"), 0).is_none());
    }

    #[test]
    fn dataset_invalidation_is_scoped() {
        let mut cache = ResultCache::new(StalenessPolicy::default());
        insert(&mut cache, "a", 0);
        let other = ResultKey {
            dataset: "e".into(),
            canonical: "a".into(),
            budget: 100,
        };
        cache
            .entries
            .insert(other.clone(), cache.entries[&key("a")].clone());
        assert_eq!(cache.invalidate_dataset("d"), 1);
        assert!(cache.lookup(&other, 0).is_some());
    }
}
