//! A hand-rolled `std::thread` worker pool for chunk-sharded scoring.
//!
//! The build environment is offline (no `rayon`), so parallel pair scoring is
//! implemented directly on scoped threads: the input slice is split into one
//! contiguous chunk per worker, each worker maps its chunk independently, and
//! the per-chunk outputs are concatenated in order. Results are therefore
//! deterministic and identical to the sequential map regardless of the thread
//! count — parallelism changes wall-clock time, never values.
//!
//! Chunks are *balanced*: the remaining work is re-divided at every split so
//! chunk sizes differ by at most one. (The obvious `div_ceil` stride can leave
//! the last worker nearly idle — 10 items over 4 workers strides as 3/3/3/1
//! instead of 3/3/2/2 — which wastes a worker slot on every uneven input.)
//!
//! The pool drives scoring only: blocking
//! ([`er_core::blocking::IncrementalTokenIndex`]) runs inline on the ingesting
//! thread, and its candidates, each with the count of blocking tokens its
//! two records share, are what
//! [`score_pairs_cached`](WorkerPool::score_pairs_cached) scores.

use crate::Result;
use er_core::aggregate::{PairScorer, TokenCache};
use er_core::blocking::{Candidate, TokenBlocker};
use er_core::record::{Dataset, RecordId};

/// A fixed-width pool of scoped worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerPool {
    threads: usize,
}

/// Splits `len` items over `workers` contiguous chunks whose sizes differ by
/// at most one, largest first. Sizes are computed by re-dividing the remaining
/// work: chunk `w` gets `ceil(remaining / workers_left)` items.
fn balanced_chunk_sizes(len: usize, workers: usize) -> Vec<usize> {
    let workers = workers.max(1).min(len.max(1));
    let mut sizes = Vec::with_capacity(workers);
    let mut start = 0;
    for w in 0..workers {
        let size = (len - start).div_ceil(workers - w);
        sizes.push(size);
        start += size;
    }
    debug_assert_eq!(start, len);
    sizes
}

/// Maps `f` over `items` into one vector allocated up front, stopping at
/// the first error.
fn try_collect<T, U, E>(
    items: &[T],
    f: impl Fn(&T) -> std::result::Result<U, E>,
) -> std::result::Result<Vec<U>, E> {
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        out.push(f(item)?);
    }
    Ok(out)
}

impl WorkerPool {
    /// Creates a pool with the given number of workers; `0` selects the
    /// machine's available parallelism.
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            threads
        };
        Self { threads }
    }

    /// Number of worker threads the pool uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The chunk sizes this pool would split `len` items into — the balance
    /// the engine records as the `pool.chunk_pairs` histogram.
    pub fn chunk_sizes(&self, len: usize) -> Vec<usize> {
        balanced_chunk_sizes(len, self.threads)
    }

    /// Maps the fallible `f` over `items` on the pool, preserving input
    /// order and stopping at the first error.
    ///
    /// The slice is sharded into one balanced contiguous chunk per worker;
    /// with one thread (or a trivially small input) the map runs inline
    /// without spawning. Each worker collects its chunk straight into one
    /// vector, and the error of the earliest failing item is returned.
    pub fn try_map<T, U, E, F>(&self, items: &[T], f: F) -> std::result::Result<Vec<U>, E>
    where
        T: Sync,
        U: Send,
        E: Send,
        F: Fn(&T) -> std::result::Result<U, E> + Sync,
    {
        if self.threads <= 1 || items.len() < 2 {
            return try_collect(items, &f);
        }
        let chunks: Vec<_> = std::thread::scope(|scope| {
            let mut rest = items;
            let handles: Vec<_> = balanced_chunk_sizes(items.len(), self.threads)
                .into_iter()
                .map(|size| {
                    let (shard, tail) = rest.split_at(size);
                    rest = tail;
                    let f = &f;
                    scope.spawn(move || try_collect(shard, f))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("scoring worker panicked")).collect()
        });
        let mut out = Vec::with_capacity(items.len());
        for chunk in chunks {
            out.extend(chunk?);
        }
        Ok(out)
    }

    /// Scores candidate record pairs in parallel, returning one similarity per
    /// pair in input order.
    pub fn score_pairs(
        &self,
        left: &Dataset,
        right: &Dataset,
        scorer: &PairScorer,
        pairs: &[(RecordId, RecordId)],
    ) -> Result<Vec<f64>> {
        Ok(self.try_map(pairs, |&(l, r)| -> er_core::Result<f64> {
            Ok(scorer.score(left.require(l)?, right.require(r)?))
        })?)
    }

    /// Scores `blocker`'s candidates in parallel through `scorer` bound to
    /// `cache` ([`PairScorer::bind`]), one similarity per candidate in input
    /// order. Records admitted to the cache are scored on their interned
    /// token-id sets without being looked up, so repeated scoring passes
    /// skip re-tokenizing, and the blocking attribute is scored from each
    /// candidate's shared-token count.
    ///
    /// The candidates must come from `blocker`'s index fed with `cache`
    /// ([`er_core::blocking::IncrementalTokenIndex::add_records`]). Then the
    /// scores are bit-identical to [`score_pairs`](WorkerPool::score_pairs)
    /// on the same pairs for any cache state; a candidate naming a record
    /// that neither the cache nor its dataset holds is an error.
    pub fn score_pairs_cached(
        &self,
        left: &Dataset,
        right: &Dataset,
        scorer: &PairScorer,
        cache: &TokenCache,
        blocker: &TokenBlocker,
        candidates: &[Candidate],
    ) -> Result<Vec<f64>> {
        let scorer = scorer.bind(cache, Some(blocker));
        Ok(self.try_map(candidates, |&candidate| scorer.score(left, right, candidate))?)
    }
}

impl Default for WorkerPool {
    fn default() -> Self {
        Self::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::aggregate::{AttributeMeasure, AttributeWeighting, ScoringConfig};
    use er_core::record::{Record, Schema};
    use er_core::similarity::StringMeasure;
    use er_core::text::Tokenizer;

    #[test]
    fn zero_threads_resolves_to_available_parallelism() {
        let pool = WorkerPool::new(0);
        assert!(pool.threads() >= 1);
        assert_eq!(WorkerPool::new(3).threads(), 3);
    }

    #[test]
    fn chunk_sizes_are_balanced_and_cover_the_input() {
        for len in [0usize, 1, 2, 7, 10, 64, 1_003] {
            for workers in [1usize, 2, 3, 4, 7, 16, 64] {
                let sizes = balanced_chunk_sizes(len, workers);
                assert_eq!(sizes.iter().sum::<usize>(), len, "len {len} workers {workers}");
                assert!(sizes.len() <= workers);
                if len > 0 {
                    let max = *sizes.iter().max().unwrap();
                    let min = *sizes.iter().min().unwrap();
                    assert!(max - min <= 1, "len {len} workers {workers}: spread {max}-{min} > 1");
                }
            }
        }
        // The regression this fixes: a fixed div_ceil stride gives 3/3/3/1.
        assert_eq!(balanced_chunk_sizes(10, 4), vec![3, 3, 2, 2]);
    }

    #[test]
    fn map_preserves_order_for_any_thread_count() {
        let items: Vec<u64> = (0..1_003).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        let square = |&x: &u64| Ok::<u64, ()>(x * x);
        for threads in [1, 2, 3, 8, 64] {
            let pool = WorkerPool::new(threads);
            assert_eq!(pool.try_map(&items, square), Ok(expected.clone()), "threads = {threads}");
        }
        // Inputs smaller than the worker count still work.
        assert_eq!(WorkerPool::new(16).try_map(&[7u64], square), Ok(vec![49]));
        assert_eq!(WorkerPool::new(4).try_map(&[] as &[u64], square), Ok(Vec::new()));
        // The earliest failing item's error wins, whichever worker meets it.
        let fail_from = |&x: &u64| if x % 400 == 399 { Err(x) } else { Ok(x) };
        for threads in [1, 2, 3, 8] {
            assert_eq!(WorkerPool::new(threads).try_map(&items, fail_from), Err(399));
        }
    }

    fn dataset(name: &str, titles: &[(u64, &str)]) -> Dataset {
        let mut ds = Dataset::new(name, Schema::new(["title"]));
        for &(id, title) in titles {
            ds.push(Record::new(RecordId(id)).with("title", title)).unwrap();
        }
        ds
    }

    #[test]
    fn parallel_scoring_matches_sequential_scoring() {
        let left = dataset("l", &[(1, "entity resolution"), (2, "graph systems")]);
        let right =
            dataset("r", &[(10, "entity resolution"), (11, "stream systems"), (12, "databases")]);
        let config = ScoringConfig::new(
            [("title", AttributeMeasure::Text(StringMeasure::Jaccard(Tokenizer::Words)))],
            AttributeWeighting::Uniform,
        );
        let scorer = PairScorer::new(&config, &[&left, &right]).unwrap();
        let pairs: Vec<(RecordId, RecordId)> =
            left.iter().flat_map(|a| right.iter().map(move |b| (a.id(), b.id()))).collect();
        let sequential = WorkerPool::new(1).score_pairs(&left, &right, &scorer, &pairs).unwrap();
        for threads in [2, 4] {
            let parallel =
                WorkerPool::new(threads).score_pairs(&left, &right, &scorer, &pairs).unwrap();
            assert_eq!(sequential, parallel);
        }
        assert!((sequential[0] - 1.0).abs() < 1e-12);
        // Cached scoring of the blocker's counted candidates is bit-identical.
        let blocker = TokenBlocker::new("title", Tokenizer::Words);
        let mut cache = TokenCache::new();
        let candidates =
            blocker.incremental().add_records(left.records(), right.records(), &mut cache).unwrap();
        let pairs: Vec<_> = candidates.iter().map(Candidate::pair).collect();
        let expected = WorkerPool::new(1).score_pairs(&left, &right, &scorer, &pairs).unwrap();
        for threads in [1, 2, 4] {
            let cached = WorkerPool::new(threads)
                .score_pairs_cached(&left, &right, &scorer, &cache, &blocker, &candidates)
                .unwrap();
            let bits = |scores: &[f64]| scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&expected), bits(&cached));
        }
    }

    #[test]
    fn score_pairs_propagates_unknown_record_errors() {
        let left = dataset("l", &[(1, "x")]);
        let right = dataset("r", &[(10, "x")]);
        let config = ScoringConfig::new(
            [("title", AttributeMeasure::Text(StringMeasure::Jaccard(Tokenizer::Words)))],
            AttributeWeighting::Uniform,
        );
        let scorer = PairScorer::new(&config, &[&left, &right]).unwrap();
        let bogus = vec![(RecordId(1), RecordId(10)), (RecordId(99), RecordId(10))];
        assert!(WorkerPool::new(2).score_pairs(&left, &right, &scorer, &bogus).is_err());
        // The bound scorer skips the dataset lookup for cached records only:
        // an id neither the warm cache nor the dataset holds still fails.
        let mut cache = TokenCache::new();
        cache.admit_scoring(&config, left.records(), right.records());
        let blocker = TokenBlocker::new("title", Tokenizer::Words);
        let bogus: Vec<_> =
            bogus.into_iter().map(|(left, right)| Candidate { left, right, shared: 1 }).collect();
        for threads in [1, 2] {
            let pool = WorkerPool::new(threads);
            let scored = pool.score_pairs_cached(&left, &right, &scorer, &cache, &blocker, &bogus);
            assert!(scored.is_err());
        }
    }
}
