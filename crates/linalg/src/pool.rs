//! Deterministic reusable worker pool for data-parallel hot paths.
//!
//! Every parallel kernel in the workspace follows the same three rules
//! (DESIGN.md §9), which together make results **bit-identical for any
//! thread count**, including one:
//!
//! 1. Chunk boundaries are a function of the data size only — never of the
//!    thread count — so the work decomposition is the same no matter how
//!    many workers execute it.
//! 2. A chunk either mutates its own pre-indexed slot ([`for_each_mut`]:
//!    matmul row blocks, service shards and projects) or returns a
//!    per-chunk partial that the caller merges in chunk-index order
//!    ([`map_chunks`]). Floating-point operation order is therefore fixed
//!    by the chunking, not by the schedule.
//! 3. The serial path runs the *same* chunked algorithm inline; the pool
//!    only changes which thread executes each chunk.
//!
//! The pool itself is a small set of long-lived OS threads parked on a
//! shared job channel. Callers always drive chunks themselves and merely
//! *share* leftover chunks with idle workers. A caller waits only for
//! chunks a worker actually claimed, never for a worker to start, so a
//! busy or starved queue can never stall a caller, and workers never block
//! on another caller's work — safe under concurrent `run_chunks` calls
//! from many test threads.

use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use crowdrl_obs as obs;

/// Hard upper bound on threads executing one `run_chunks` call (the caller
/// plus pool workers). Keeps the worker set small and reusable.
pub const MAX_THREADS: usize = 8;

/// Sentinel meaning "not initialised yet" in [`THREADS`].
const UNSET: usize = usize::MAX;

/// Effective thread cap. Lazily initialised from `CROWDRL_THREADS` (unset,
/// `0`, or unparsable → available cores); runtime-settable for tests.
static THREADS: AtomicUsize = AtomicUsize::new(UNSET);

type Job = Box<dyn FnOnce() + Send + 'static>;

static QUEUE: OnceLock<crossbeam::channel::Sender<Job>> = OnceLock::new();

thread_local! {
    /// True on pool worker threads and on callers while they drive chunks.
    /// A `run_chunks` call that starts under this flag runs serially
    /// inline — nested parallelism never re-enters the pool, so workers
    /// can never deadlock waiting on their own queue.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };

    /// Label for the *kind* of pooled work the current thread is about to
    /// launch (e.g. `"matmul"`, `"em_estep"`). Purely observational: it
    /// keys the per-task trace histograms and never affects scheduling.
    static TASK_KIND: Cell<&'static str> = const { Cell::new("untagged") };
}

/// RAII guard restoring the previous task-kind label on drop.
pub struct TaskKindGuard {
    prev: &'static str,
}

/// Label subsequent `run_chunks`/`map_chunks` calls on this thread with a
/// task kind for the trace histograms (`pool.execute.<kind>` and
/// `pool.queue_wait.<kind>`). Nested guards restore the outer label. The
/// label has zero effect on execution — it only names histogram series when
/// a `crowdrl_obs` recorder is active.
pub fn task_kind(kind: &'static str) -> TaskKindGuard {
    TASK_KIND.with(|c| TaskKindGuard {
        prev: c.replace(kind),
    })
}

impl Drop for TaskKindGuard {
    fn drop(&mut self) {
        TASK_KIND.with(|c| c.set(self.prev));
    }
}

/// Trace context for one `run_chunks` call; present only while a recorder
/// is installed so the disabled path never reads a clock.
struct ObsCtx {
    execute_name: String,
    queue_name: String,
    enqueued: Instant,
}

impl ObsCtx {
    fn capture() -> Option<Self> {
        if !obs::enabled() {
            return None;
        }
        let kind = TASK_KIND.with(|c| c.get());
        Some(ObsCtx {
            execute_name: format!("pool.execute.{kind}"),
            queue_name: format!("pool.queue_wait.{kind}"),
            enqueued: Instant::now(),
        })
    }
}

fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn default_threads() -> usize {
    match std::env::var("CROWDRL_THREADS") {
        Ok(s) => match s.trim().parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => available_cores(),
        },
        Err(_) => available_cores(),
    }
}

/// The current thread cap, clamped to `1..=MAX_THREADS`.
pub fn max_threads() -> usize {
    let mut t = THREADS.load(Ordering::Relaxed);
    if t == UNSET {
        // Racy lazy init is fine: every racer computes the same default,
        // and an interleaved `set_threads` wins via compare-exchange.
        let d = default_threads();
        t = match THREADS.compare_exchange(UNSET, d, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => d,
            Err(current) => current,
        };
    }
    t.clamp(1, MAX_THREADS)
}

/// Override the thread cap at runtime (tests sweep 1, 2, 4…). `0` restores
/// the environment default. Results never depend on this value — only
/// wall-clock time does.
pub fn set_threads(n: usize) {
    let v = if n == 0 { default_threads() } else { n };
    THREADS.store(v, Ordering::Relaxed);
}

/// Run `f` with the thread cap set to `threads` (`0` = the environment
/// default, as in [`set_threads`]) and restore the previous cap when `f`
/// returns or unwinds. Every runtime sets its width through here: the
/// serve and service `ExecMode` and the experiment grid's `threads`.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREADS.store(self.0, Ordering::Relaxed);
        }
    }
    let _restore = Restore(THREADS.load(Ordering::Relaxed));
    set_threads(threads);
    f()
}

/// The shared job queue, spawning the worker threads on first use. Workers
/// are spawned up to the hard cap (not the current soft cap) so the cap can
/// be raised later without respawning; surplus workers just park on `recv`.
fn queue() -> &'static crossbeam::channel::Sender<Job> {
    QUEUE.get_or_init(|| {
        let (tx, rx) = crossbeam::channel::unbounded::<Job>();
        for i in 0..MAX_THREADS - 1 {
            let rx = rx.clone();
            std::thread::Builder::new()
                .name(format!("crowdrl-pool-{i}"))
                .spawn(move || {
                    IN_POOL.with(|f| f.set(true));
                    // The sender is leaked into a static, so `recv` only
                    // fails at process teardown.
                    while let Ok(job) = rx.recv() {
                        job();
                    }
                })
                .expect("spawn crowdrl pool worker");
        }
        tx
    })
}

/// The caller's chunk closure with its lifetime erased, so that queued
/// helper jobs can carry it. It is a raw pointer because it may dangle: a
/// job that starts after its caller returned still holds it, and never
/// dereferences it (see [`Shared::drain`]).
struct ChunkFn(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync`, so sharing or moving the pointer between
// threads only lets them call `Fn` through `&`, which `Sync` permits; when
// the pointer may be dereferenced at all is `Shared::drain`'s claim rule.
unsafe impl Send for ChunkFn {}
// SAFETY: as for `Send` above.
unsafe impl Sync for ChunkFn {}

/// State shared between the caller and its helper jobs for one
/// `run_chunks` call. Reference-counted, so a helper job that a worker
/// only picks up after the caller returned still has it to look at.
struct Shared {
    /// Next unclaimed chunk index (work-claiming counter).
    next: AtomicUsize,
    n_chunks: usize,
    f: ChunkFn,
    /// Chunks that have run to completion; guarded by `done`.
    finished: Mutex<usize>,
    done: Condvar,
    /// First panic payload raised by any chunk.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Trace context (task-kind histogram names); `None` unless recording.
    obs: Option<ObsCtx>,
}

impl Shared {
    /// Claim and execute chunks until none remain, and return how many
    /// this thread ran. Chunk panics are caught and stashed so sibling
    /// chunks still run and the caller can re-raise. A helper records its
    /// queue wait when it claims its first chunk; one that claims none
    /// records nothing.
    fn drain(&self, helper: bool) -> usize {
        let mut ran = 0;
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n_chunks {
                return ran;
            }
            if let (true, 0, Some(ctx)) = (helper, ran, &self.obs) {
                // Time from enqueue to a worker actually starting work —
                // the queue-wait component of pool latency.
                obs::histogram_seconds(&ctx.queue_name, ctx.enqueued.elapsed());
            }
            // SAFETY: chunk `i` is claimed and has not finished, and the
            // caller returns only once every chunk has finished, so the
            // closure `f` points to is still alive in the caller's frame.
            let f = unsafe { &*self.f.0 };
            let t0 = self.obs.as_ref().map(|_| Instant::now());
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(i))) {
                let mut slot = self.panic.lock().expect("pool panic slot");
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            if let (Some(ctx), Some(t0)) = (&self.obs, t0) {
                obs::histogram_seconds(&ctx.execute_name, t0.elapsed());
            }
            ran += 1;
        }
    }

    /// Count `ran` more chunks as finished, waking the caller on the last.
    /// The lock orders every write those chunks made before the caller's
    /// return.
    fn finish(&self, ran: usize) -> MutexGuard<'_, usize> {
        let mut finished = self.finished.lock().expect("pool finished count");
        *finished += ran;
        if *finished == self.n_chunks {
            self.done.notify_one();
        }
        finished
    }
}

/// Threads a call over `n_chunks` chunks runs on: the cap, at most one per
/// chunk, and 1 inside a pooled chunk (see `IN_POOL`).
fn width_for(n_chunks: usize) -> usize {
    if IN_POOL.with(|c| c.get()) {
        1
    } else {
        max_threads().min(n_chunks)
    }
}

/// The serial path: the same chunks, executed inline in index order.
/// Per-chunk execute times go under the same histogram names as pooled
/// chunks so serial and pooled traces stay comparable (queue wait is zero
/// here and is simply not sampled).
fn run_inline(n_chunks: usize, mut f: impl FnMut(usize)) {
    if n_chunks == 0 {
        return;
    }
    match ObsCtx::capture() {
        Some(ctx) => {
            for i in 0..n_chunks {
                let t0 = Instant::now();
                f(i);
                obs::histogram_seconds(&ctx.execute_name, t0.elapsed());
            }
        }
        None => {
            for i in 0..n_chunks {
                f(i);
            }
        }
    }
}

/// Execute `f(0), f(1), …, f(n_chunks - 1)`, possibly on multiple threads.
///
/// `f` must be safe to call concurrently for distinct chunk indices (each
/// chunk touching disjoint state). Every chunk runs exactly once. A panic
/// in any chunk is re-raised on the caller after all chunks completed.
///
/// With a thread cap of 1 — or when called from inside a pool chunk — all
/// chunks run inline on the caller in index order; this is the same
/// algorithm, so results are identical by construction. Otherwise the
/// caller queues helper jobs, drains chunks itself and then waits only
/// for chunks a helper claimed: a helper that has not started by then
/// finds nothing left to claim whenever a worker picks it up.
pub fn run_chunks<F: Fn(usize) + Sync>(n_chunks: usize, f: F) {
    let threads = width_for(n_chunks);
    if threads <= 1 {
        run_inline(n_chunks, f);
        return;
    }

    let f: &(dyn Fn(usize) + Sync + '_) = &f;
    // SAFETY: only the lifetime is erased (the pointer types differ in
    // nothing else); `Shared::drain` dereferences the result only while
    // this call is still waiting for the chunk it claimed.
    let f = ChunkFn(unsafe {
        std::mem::transmute::<*const (dyn Fn(usize) + Sync + '_), *const (dyn Fn(usize) + Sync)>(f)
    });
    let shared = Arc::new(Shared {
        next: AtomicUsize::new(0),
        n_chunks,
        f,
        finished: Mutex::new(0),
        done: Condvar::new(),
        panic: Mutex::new(None),
        obs: ObsCtx::capture(),
    });
    let tx = queue();
    for _ in 0..threads - 1 {
        let shared = Arc::clone(&shared);
        let job: Job = Box::new(move || {
            let ran = shared.drain(true);
            if ran > 0 {
                drop(shared.finish(ran));
            }
        });
        if tx.send(job).is_err() {
            unreachable!("pool queue disconnected: workers never drop their receiver");
        }
    }

    // The caller drives chunks too — worst case it executes all of them,
    // so a busy pool can never stall this call. Mark the thread as inside
    // the pool so nested parallel kernels run inline.
    IN_POOL.with(|c| c.set(true));
    let ran = shared.drain(false);
    IN_POOL.with(|c| c.set(false));

    // Every chunk is claimed now, so only helpers that claimed one can
    // still be running a chunk; wait for those.
    let mut finished = shared.finish(ran);
    while *finished < n_chunks {
        finished = shared.done.wait(finished).expect("pool finished count");
    }
    drop(finished);

    let payload = shared.panic.lock().expect("pool panic slot").take();
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
}

/// Number of fixed-size chunks covering `0..n` (data-size-dependent only).
pub fn chunk_count(n: usize, chunk: usize) -> usize {
    n.div_ceil(chunk.max(1))
}

/// The `i`-th fixed chunk range of `0..n`.
pub fn chunk_range(n: usize, chunk: usize, i: usize) -> Range<usize> {
    let chunk = chunk.max(1);
    (i * chunk)..((i + 1) * chunk).min(n)
}

/// Map every fixed `chunk`-sized range of `0..n` through `f`, returning the
/// per-chunk results **in chunk-index order** — the deterministic-reduction
/// primitive: merge partials left to right and the result cannot depend on
/// which thread computed which chunk.
pub fn map_chunks<R, F>(n: usize, chunk: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let mut out: Vec<Option<R>> = Vec::new();
    out.resize_with(chunk_count(n, chunk), || None);
    for_each_mut(&mut out, |i, slot| {
        *slot = Some(f(chunk_range(n, chunk, i)))
    });
    out.into_iter()
        .map(|v| v.expect("every chunk ran"))
        .collect()
}

/// Call `f(i, &mut items[i])` for every element, possibly on multiple
/// threads — the one fan-out for work that mutates pre-indexed, disjoint
/// slots. Element `i` is chunk `i` of [`run_chunks`], with the same
/// inline, nesting and panic rules.
///
/// On the pooled path each element sits behind its own `Mutex`, locked
/// once by the one chunk that owns it, so no lock is ever contended; the
/// locks are what let disjoint `&mut` access cross threads in safe code.
/// The inline path takes no lock and allocates nothing.
pub fn for_each_mut<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    if width_for(items.len()) <= 1 {
        run_inline(items.len(), |i| f(i, &mut items[i]));
        return;
    }
    let cells: Vec<Mutex<&mut T>> = items.iter_mut().map(Mutex::new).collect();
    run_chunks(cells.len(), |i| {
        let mut item = cells[i]
            .lock()
            .expect("only this chunk ever locks element i");
        f(i, &mut **item);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// Held by every test that changes the process-global thread cap.
    /// Without it another test can raise the cap between an outer call
    /// that ran inline (leaving `IN_POOL` unset) and its nested call,
    /// which then fans out to pool workers.
    static CAP: Mutex<()> = Mutex::new(());

    /// Take the cap for the rest of the test. A test that failed while
    /// holding it leaves nothing the next one depends on.
    fn hold_cap() -> MutexGuard<'static, ()> {
        CAP.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn chunk_geometry_is_data_size_only() {
        assert_eq!(chunk_count(0, 4), 0);
        assert_eq!(chunk_count(1, 4), 1);
        assert_eq!(chunk_count(8, 4), 2);
        assert_eq!(chunk_count(9, 4), 3);
        assert_eq!(chunk_range(9, 4, 0), 0..4);
        assert_eq!(chunk_range(9, 4, 2), 8..9);
        // Degenerate chunk size is clamped, not divided by zero.
        assert_eq!(chunk_count(5, 0), 5);
        assert_eq!(chunk_range(5, 0, 4), 4..5);
    }

    #[test]
    fn every_chunk_runs_exactly_once_at_every_thread_count() {
        let _cap = hold_cap();
        for threads in [1, 2, 4, 8] {
            set_threads(threads);
            let hits: Vec<AtomicU64> = (0..23).map(|_| AtomicU64::new(0)).collect();
            run_chunks(hits.len(), |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(
                    h.load(Ordering::Relaxed),
                    1,
                    "chunk {i} at {threads} threads"
                );
            }
        }
        set_threads(0);
    }

    #[test]
    fn map_chunks_returns_partials_in_chunk_order() {
        let _cap = hold_cap();
        for threads in [1, 3, 8] {
            set_threads(threads);
            let partials = map_chunks(10, 3, |r| r.clone());
            assert_eq!(partials, vec![0..3, 3..6, 6..9, 9..10]);
        }
        set_threads(0);
    }

    #[test]
    fn for_each_mut_visits_every_element_exactly_once_at_every_width() {
        let _cap = hold_cap();
        for threads in [1, 2, 4, 8] {
            set_threads(threads);
            let mut items: Vec<(usize, u32)> = (0..23).map(|i| (i, 0)).collect();
            for_each_mut(&mut items, |i, (index, hits)| {
                assert_eq!(*index, i, "element handed to the wrong index");
                *hits += 1;
            });
            for (i, (_, hits)) in items.iter().enumerate() {
                assert_eq!(*hits, 1, "element {i} at {threads} threads");
            }
        }
        set_threads(0);
    }

    #[test]
    fn nested_for_each_mut_runs_inline_on_the_outer_thread() {
        let _cap = hold_cap();
        set_threads(4);
        let mut rows: Vec<Vec<Option<std::thread::ThreadId>>> = vec![vec![None; 6]; 8];
        for_each_mut(&mut rows, |_, row| {
            let outer = std::thread::current().id();
            for_each_mut(row, |_, cell| *cell = Some(std::thread::current().id()));
            assert!(row.iter().all(|&cell| cell == Some(outer)));
        });
        set_threads(0);
    }

    #[test]
    fn for_each_mut_panic_propagates_and_the_pool_stays_usable() {
        let _cap = hold_cap();
        set_threads(4);
        let mut items = vec![0u32; 8];
        let result = catch_unwind(AssertUnwindSafe(|| {
            for_each_mut(&mut items, |i, _| {
                if i == 5 {
                    panic!("element 5 exploded");
                }
            });
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "element 5 exploded");
        for_each_mut(&mut items, |i, x| *x = i as u32);
        set_threads(0);
        assert_eq!(items, (0..8).collect::<Vec<u32>>());
    }

    #[test]
    fn nested_run_chunks_completes_inline() {
        let _cap = hold_cap();
        set_threads(4);
        let total = AtomicU64::new(0);
        run_chunks(4, |_| {
            // Nested call: must run inline without touching the pool.
            run_chunks(4, |_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 16);
        set_threads(0);
    }

    #[test]
    fn chunk_panic_propagates_to_caller() {
        let _cap = hold_cap();
        set_threads(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_chunks(8, |i| {
                if i == 5 {
                    panic!("chunk 5 exploded");
                }
            });
        }));
        set_threads(0);
        let payload = result.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "chunk 5 exploded");
        // The pool must remain usable after a panic.
        let count = AtomicU64::new(0);
        run_chunks(8, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn a_call_returns_while_every_worker_is_busy() {
        use std::sync::{mpsc, Barrier};
        use std::time::Duration;

        let _cap = hold_cap();
        set_threads(2);
        let workers = MAX_THREADS - 1;
        // Park every worker in a job that holds it until `release`.
        let release = Arc::new(Barrier::new(workers + 1));
        let (started_tx, started_rx) = mpsc::channel();
        for _ in 0..workers {
            let (release, started) = (Arc::clone(&release), started_tx.clone());
            let job: Job = Box::new(move || {
                started.send(()).expect("the test is listening");
                release.wait();
            });
            assert!(queue().send(job).is_ok(), "pool queue is connected");
        }
        for _ in 0..workers {
            started_rx.recv().expect("a worker started its held job");
        }

        // A width-2 call now queues a helper no worker can pick up.
        let (done_tx, done_rx) = mpsc::channel();
        let calling_thread = std::thread::spawn(move || {
            let ran_on: Vec<Mutex<Vec<std::thread::ThreadId>>> =
                (0..6).map(|_| Mutex::new(Vec::new())).collect();
            run_chunks(ran_on.len(), |i| {
                ran_on[i].lock().unwrap().push(std::thread::current().id());
            });
            let ran_on: Vec<_> = ran_on
                .into_iter()
                .map(|m| m.into_inner().unwrap())
                .collect();
            done_tx.send((std::thread::current().id(), ran_on)).unwrap();
        });
        let returned = done_rx.recv_timeout(Duration::from_secs(60));
        release.wait();
        calling_thread
            .join()
            .expect("the calling thread did not panic");
        let (caller, ran_on) = returned.expect("run_chunks waited for a worker that never started");

        // Every job queued before these has finished once the workers all
        // hold one of them, the late helper included.
        let drained = Arc::new(Barrier::new(workers + 1));
        for _ in 0..workers {
            let drained = Arc::clone(&drained);
            let job: Job = Box::new(move || {
                drained.wait();
            });
            assert!(queue().send(job).is_ok(), "pool queue is connected");
        }
        drained.wait();
        set_threads(0);
        for (i, threads) in ran_on.iter().enumerate() {
            assert_eq!(threads, &vec![caller], "chunk {i} ran once, on the caller");
        }
    }

    #[test]
    fn thread_cap_is_clamped() {
        let _cap = hold_cap();
        set_threads(64);
        assert_eq!(max_threads(), MAX_THREADS);
        set_threads(0);
        assert!(max_threads() >= 1);
    }
}
