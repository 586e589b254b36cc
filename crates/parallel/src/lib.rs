//! Parallelism for the decision procedure and the server, dependency-free
//! in the spirit of the offline stand-ins under `crates/shims/` (the
//! sandbox this workspace builds in has no crates.io access, so no `rayon`).
//!
//! One persistent [`Pool`] per process is the only source of threads: the
//! TCP server's request workers are its threads, and `cqdet batch` runs
//! inside one.  [`par_map`] spreads a closure over a slice with help from
//! the pool's *idle* workers, which pull item indices from a shared atomic
//! cursor (natural load balancing when item costs are skewed, which they
//! are for per-view homomorphism searches).  Results come back in input
//! order.  The calling thread always works through the cursor itself, so a
//! fan-out never waits for a free worker: with every worker busy serving
//! requests it simply runs inline, and on an idle pool one large request
//! uses every core without spawning a thread.  Outside a pool (library
//! callers, tests) [`par_map`] is a plain serial map.
//!
//! The decision procedure (`cqdet-core`) uses this to fan out its per-view
//! stages: query freezing, the `hom_exists` retention gate, connected-
//! component decomposition, canonical keys and multiplicity-vector
//! construction; the batch engine (`cqdet-engine`) fans out across whole
//! tasks.  Anything shared read-only across workers (schemas, frozen
//! bodies, the basis) only needs `Sync`; per-structure lazy state
//! (`flat()`, canonical keys) lives in `OnceLock`s, which are safe to race
//! on.  Items run on whichever thread claims them, so an item must not
//! depend on the caller's thread-local state (such as the hom-count cache
//! override of `cqdet-structure`): a batch task installs its own.
//!
//! ```
//! // Outside a pool: serial, in order.
//! let squares = cqdet_parallel::par_map(&[1u64, 2, 3, 4], |x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//!
//! // Inside one: the same results, with idle workers helping.
//! let pool = cqdet_parallel::Pool::new(2);
//! let items: Vec<u64> = (0..100).collect();
//! let sum: u64 = pool.install(|| cqdet_parallel::par_map(&items, |x| x * 2).iter().sum());
//! assert_eq!(sum, 9900);
//! ```

pub mod deadline;
pub mod fuel;
pub mod pool;

pub use deadline::{CancelToken, Expired};
pub use fuel::{Budget, Exhausted, Gas, Interrupt};
pub use pool::Pool;

/// The hardware parallelism (`1` when it cannot be determined): the
/// default size of a [`Pool`].
///
/// Cached after the first call: `std::thread::available_parallelism` re-reads
/// cgroup limits from `/sys` every time, which costs ~10µs per call in a
/// container.
pub fn max_parallelism() -> usize {
    static CACHED: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CACHED.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Map `f` over `items`, returning results in input order, with idle
/// workers of the calling thread's [`Pool`] helping (see the [module
/// docs](self)).  Panics in `f` propagate to the caller.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    pool::map_indexed(items, |_, item| f(item))
}

/// [`par_map`] with the item index passed to the closure.
///
/// ```
/// let labelled = cqdet_parallel::par_map_indexed(&["a", "b"], |i, s| format!("{i}:{s}"));
/// assert_eq!(labelled, vec!["0:a", "1:b"]);
/// ```
pub fn par_map_indexed<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    pool::map_indexed(items, f)
}
