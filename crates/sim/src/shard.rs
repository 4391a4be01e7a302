//! Shard-parallel execution primitives: a persistent worker pool and
//! deterministic cross-shard outboxes.
//!
//! The sharded engine partitions simulation state into `S` independent
//! shards and runs each pass of a round in parallel on std threads (the
//! offline crate set has no rayon). Two invariants make the results
//! independent of the thread count:
//!
//! 1. **Disjoint state.** [`ShardPool::run`] hands each task exclusive
//!    `&mut` access to its shard; shards share nothing mutable, so the
//!    execution schedule cannot reorder any shard's internal work.
//! 2. **Deterministic barriers.** Work crossing shard boundaries is pushed
//!    into per-shard [`Outbox`]es and merged at a barrier by
//!    [`merge_outboxes_into`]: messages are re-sequenced by
//!    `(SimTime, source shard, per-source sequence)` — a total order fixed
//!    by the *logical* computation, not by which thread finished first.
//!
//! Together: any interleaving of shard executions produces the same
//! per-shard state and the same merged message order, so downstream
//! accounting is bit-for-bit identical at any thread count (including a
//! pool of one, which runs inline on the calling thread).
//!
//! The executor itself is built not to show up in a profile:
//!
//! * [`ShardPool`] keeps **persistent parked workers** — OS threads are
//!   spawned once per `set_threads` configuration, woken by a condvar per
//!   pass, and claim task chunks off a shared atomic cursor.
//! * [`MergeBuffers`] makes the barrier **allocation-free across passes**:
//!   the caller owns the per-destination batches, and the barrier appends
//!   every outbox to them and sorts each batch in place by its unique
//!   `(time, src, seq)` key.

use pdht_types::SimTime;
use std::any::Any;
use std::mem::size_of;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A type-erased parallel pass: a raw view of the caller's `&mut [T]` plus
/// the caller's `Fn(usize, &mut T)` closure.
///
/// A `Job` is valid strictly for the duration of one [`ShardPool::run`]
/// call: `run` publishes it, participates in the claim loop itself, and
/// does not return until every worker has checked in (`active == 0`), so
/// the borrows behind these pointers outlive every dereference.
#[derive(Clone, Copy)]
struct Job {
    /// The task slice base pointer (`*mut T`).
    tasks: *mut (),
    /// Number of tasks.
    len: usize,
    /// Claim granularity of the atomic cursor.
    chunk: usize,
    /// Monomorphized trampoline restoring the erased types.
    call: unsafe fn(*const (), *mut (), usize, usize),
    /// The caller's closure (`*const F`).
    closure: *const (),
}

// SAFETY: a `Job` crosses threads only between `ShardPool::run`'s
// publication and its `active == 0` barrier, while the caller's stack
// frame — which owns the closure and exclusively borrows the task slice —
// is pinned. The closure is `Sync` (shared by reference across workers)
// and the tasks are `Send` (each claimed index is accessed by exactly one
// worker), enforced by the bounds on `ShardPool::run`.
#[allow(unsafe_code)]
unsafe impl Send for Job {}

/// Restores the erased types of a [`Job`] and runs `f(i, &mut tasks[i])`
/// for the claimed chunk `[start, end)`.
///
/// # Safety
/// `closure` must point to a live `F` and `tasks` to a live `[T]` of at
/// least `end` elements, and no other thread may touch indices in
/// `[start, end)` — guaranteed by the disjoint chunks the atomic cursor
/// hands out within one `run` call.
#[allow(unsafe_code)]
unsafe fn call_chunk<T, F>(closure: *const (), tasks: *mut (), start: usize, end: usize)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let f = &*closure.cast::<F>();
    let tasks = tasks.cast::<T>();
    for i in start..end {
        f(i, &mut *tasks.add(i));
    }
}

/// Claims chunks off the shared cursor until the job is exhausted,
/// catching panics so a poisoned pass can be reported (and the pool
/// reused) instead of aborting via a detached worker.
#[allow(unsafe_code)]
fn drive(cursor: &AtomicUsize, job: Job) -> Option<Box<dyn Any + Send>> {
    catch_unwind(AssertUnwindSafe(|| {
        loop {
            let start = cursor.fetch_add(job.chunk, Ordering::Relaxed);
            if start >= job.len {
                break;
            }
            let end = job.len.min(start + job.chunk);
            // SAFETY: the cursor hands out each chunk exactly once and the
            // publishing `run` call keeps the job's borrows alive until
            // every driver has finished (see `Job`).
            unsafe { (job.call)(job.closure, job.tasks, start, end) };
        }
    }))
    .err()
}

/// Coordination state shared between [`ShardPool::run`] and its workers.
struct PoolShared {
    state: Mutex<PoolState>,
    /// Wakes parked workers when a new job epoch is published.
    work_cv: Condvar,
    /// Wakes the publisher when the last worker checks out.
    done_cv: Condvar,
    /// The chunk-claim cursor of the current pass.
    cursor: AtomicUsize,
}

struct PoolState {
    /// Bumped once per published job; workers use it to tell a fresh job
    /// from the one they just finished.
    epoch: u64,
    job: Option<Job>,
    /// Workers still attached to the current job (each decrements exactly
    /// once per epoch, whether or not it claimed any chunk).
    active: usize,
    /// First worker panic of the pass, re-thrown by `run`.
    panic: Option<Box<dyn Any + Send>>,
    shutdown: bool,
}

fn worker_loop(shared: &PoolShared) {
    let mut last_epoch = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().expect("shard pool state poisoned");
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != last_epoch {
                    if let Some(job) = st.job {
                        last_epoch = st.epoch;
                        break job;
                    }
                }
                st = shared.work_cv.wait(st).expect("shard pool state poisoned");
            }
        };
        let panic = drive(&shared.cursor, job);
        let mut st = shared.state.lock().expect("shard pool state poisoned");
        if let Some(p) = panic {
            st.panic.get_or_insert(p);
        }
        st.active -= 1;
        if st.active == 0 {
            shared.done_cv.notify_all();
        }
    }
}

/// A work pool over per-shard tasks with **persistent parked workers**.
///
/// `threads - 1` OS threads are spawned eagerly (once per configured
/// thread count — never per pass) and parked on a condvar; each
/// [`ShardPool::run`] publishes one type-erased job, wakes them, and joins
/// the claim loop itself, so a pass costs one notify + one atomic cursor
/// per chunk instead of thread spawns. With `threads <= 1` (or a single
/// task) everything runs inline on the calling thread — the zero-overhead
/// path the default configuration uses.
///
/// Passes are strictly sequential: `run` must not be invoked concurrently
/// from two threads (the engine drives one barrier-separated pass at a
/// time).
pub struct ShardPool {
    threads: usize,
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
    spawned: u64,
}

impl ShardPool {
    /// A pool that dispatches on up to `threads` threads, the calling
    /// thread included (`0` is treated as `1`). Workers spawn immediately.
    pub fn new(threads: usize) -> ShardPool {
        let mut pool = ShardPool {
            threads: 0,
            shared: Arc::new(PoolShared {
                state: Mutex::new(PoolState {
                    epoch: 0,
                    job: None,
                    active: 0,
                    panic: None,
                    shutdown: false,
                }),
                work_cv: Condvar::new(),
                done_cv: Condvar::new(),
                cursor: AtomicUsize::new(0),
            }),
            workers: Vec::new(),
            spawned: 0,
        };
        pool.set_threads(threads);
        pool
    }

    /// The configured thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Total OS threads this pool has ever spawned — observable proof that
    /// workers persist across passes (the count moves only when
    /// [`ShardPool::set_threads`] changes the configuration).
    pub fn os_threads_spawned(&self) -> u64 {
        self.spawned
    }

    /// Reconfigures the thread count (`0` is treated as `1`). Purely an
    /// executor knob: results must not depend on it. Re-spawns workers
    /// only when the count actually changes.
    pub fn set_threads(&mut self, threads: usize) {
        let threads = threads.max(1);
        if threads == self.threads {
            return;
        }
        self.shutdown_workers();
        self.threads = threads;
        for _ in 0..threads - 1 {
            let shared = Arc::clone(&self.shared);
            self.workers.push(std::thread::spawn(move || worker_loop(&shared)));
            self.spawned += 1;
        }
    }

    fn shutdown_workers(&mut self) {
        if self.workers.is_empty() {
            return;
        }
        {
            let mut st = self.shared.state.lock().expect("shard pool state poisoned");
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for worker in self.workers.drain(..) {
            worker.join().expect("shard pool worker exits cleanly");
        }
        self.shared.state.lock().expect("shard pool state poisoned").shutdown = false;
    }

    /// Runs `f(index, task)` exactly once for every task, in parallel
    /// across the persistent workers plus the calling thread. Tasks are
    /// claimed in chunks off an atomic cursor, so any worker may execute
    /// any task — callers must not depend on assignment or completion
    /// order (determinism comes from the disjoint-state + barrier-merge
    /// discipline, see the module docs).
    ///
    /// # Panics
    /// Propagates panics from `f`: the calling thread's own panic first,
    /// else the first worker panic of the pass. The pool stays usable
    /// afterwards.
    #[allow(unsafe_code)]
    pub fn run<T, F>(&self, tasks: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        let n = tasks.len();
        if self.workers.is_empty() || n <= 1 {
            for (i, task) in tasks.iter_mut().enumerate() {
                f(i, task);
            }
            return;
        }
        let job = Job {
            tasks: tasks.as_mut_ptr().cast(),
            len: n,
            chunk: (n / (4 * self.threads)).max(1),
            call: call_chunk::<T, F>,
            closure: std::ptr::from_ref(&f).cast(),
        };
        // The cursor can be reset outside the lock: every driver of the
        // previous pass has already left its claim loop (`active` reached
        // zero before the previous `run` returned).
        self.shared.cursor.store(0, Ordering::Relaxed);
        {
            let mut st = self.shared.state.lock().expect("shard pool state poisoned");
            st.job = Some(job);
            st.epoch += 1;
            st.active = self.workers.len();
            self.shared.work_cv.notify_all();
        }
        let caller_panic = drive(&self.shared.cursor, job);
        let worker_panic = {
            let mut st = self.shared.state.lock().expect("shard pool state poisoned");
            while st.active > 0 {
                st = self.shared.done_cv.wait(st).expect("shard pool state poisoned");
            }
            st.job = None;
            st.panic.take()
        };
        if let Some(p) = caller_panic {
            resume_unwind(p);
        }
        if let Some(p) = worker_panic {
            resume_unwind(p);
        }
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        self.shutdown_workers();
    }
}

/// One message buffered for another shard: re-sequencing metadata plus the
/// payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutMsg<T> {
    /// Destination shard.
    pub dest: u32,
    /// Virtual time the message is due at its destination.
    pub time: SimTime,
    /// Source shard (fixed merge tie-break after `time`).
    pub src: u32,
    /// Per-source issue sequence (final tie-break; reflects the source
    /// shard's deterministic issue order).
    pub seq: u64,
    /// The message itself.
    pub payload: T,
}

/// A per-shard outbox: messages a shard produced for other shards during
/// one parallel pass, awaiting the barrier merge.
pub struct Outbox<T> {
    src: u32,
    entries: Vec<OutMsg<T>>,
    seq: u64,
}

impl<T> Outbox<T> {
    /// An empty outbox owned by source shard `src`.
    pub fn new(src: u32) -> Outbox<T> {
        Outbox { src, entries: Vec::new(), seq: 0 }
    }

    /// The owning source shard.
    pub fn src(&self) -> u32 {
        self.src
    }

    /// Buffers `payload` for shard `dest` at virtual time `time`, stamped
    /// with this outbox's source and next sequence number. Pushes may
    /// come in any time order: the barrier sorts each destination's batch
    /// by `(time, src, seq)`.
    pub fn push(&mut self, dest: u32, time: SimTime, payload: T) {
        self.entries.push(OutMsg { dest, time, src: self.src, seq: self.seq, payload });
        self.seq += 1;
    }

    /// Buffered messages.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Heap bytes of the message buffer at its capacity.
    pub fn heap_bytes(&self) -> usize {
        self.entries.capacity() * size_of::<OutMsg<T>>()
    }
}

/// Caller-owned buffers for [`merge_outboxes_into`]: the per-destination
/// batches. Holding one of these across rounds makes the barrier
/// allocation-free at steady state — every batch is cleared, never
/// dropped, so capacity persists.
pub struct MergeBuffers<T> {
    /// Per-destination inbound batches, each in `(time, src, seq)` order
    /// after a merge.
    batches: Vec<Vec<OutMsg<T>>>,
}

impl<T> MergeBuffers<T> {
    /// Empty buffers for `dests` destination shards.
    pub fn new(dests: usize) -> MergeBuffers<T> {
        MergeBuffers { batches: (0..dests).map(|_| Vec::new()).collect() }
    }

    /// The per-destination batches of the last merge.
    pub fn batches(&self) -> &[Vec<OutMsg<T>>] {
        &self.batches
    }

    /// Mutable access to the batches (the execute pass drains them in
    /// place, retaining capacity).
    pub fn batches_mut(&mut self) -> &mut [Vec<OutMsg<T>>] {
        &mut self.batches
    }

    /// Total messages across all destinations.
    pub fn total(&self) -> usize {
        self.batches.iter().map(Vec::len).sum()
    }

    /// Heap bytes of every buffer at its capacity.
    pub fn heap_bytes(&self) -> usize {
        let batches: usize =
            self.batches.iter().map(|b| b.capacity() * size_of::<OutMsg<T>>()).sum();
        batches + self.batches.capacity() * size_of::<Vec<OutMsg<T>>>()
    }
}

/// Barrier merge into caller-owned buffers: drains every outbox (visited
/// in the fixed iteration order) and leaves, per destination shard, its
/// inbound messages sorted by `(time, src, seq)` in `bufs`.
///
/// The sort key is a total order over all messages that depends only on
/// what each shard produced — never on thread scheduling — so the merged
/// sequence is identical at any thread count. Outboxes come back empty
/// with their sequence counters reset, ready for the next pass.
///
/// The key is unique (`seq` is per source), so an unstable in-place sort
/// gives that order and at steady state the barrier performs **zero heap
/// allocations**. Producers stamp forward-only lane clocks, so each
/// source's run toward a destination usually arrives sorted already, and
/// a batch fed by one source sorts in O(n).
///
/// # Panics
/// Panics if any message addresses a destination `>= bufs.batches().len()`.
pub fn merge_outboxes_into<'a, T, I>(outboxes: I, bufs: &mut MergeBuffers<T>)
where
    I: IntoIterator<Item = &'a mut Outbox<T>>,
    T: 'a,
{
    for batch in &mut bufs.batches {
        batch.clear();
    }
    for outbox in outboxes {
        for msg in outbox.entries.drain(..) {
            bufs.batches[msg.dest as usize].push(msg);
        }
        outbox.seq = 0;
    }
    for batch in &mut bufs.batches {
        batch.sort_unstable_by_key(|m| (m.time, m.src, m.seq));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    /// One barrier pass into fresh buffers over `dests` destinations.
    fn merge<'a, T: 'a>(
        outboxes: impl IntoIterator<Item = &'a mut Outbox<T>>,
        dests: usize,
    ) -> MergeBuffers<T> {
        let mut bufs = MergeBuffers::new(dests);
        merge_outboxes_into(outboxes, &mut bufs);
        bufs
    }

    #[test]
    fn pool_runs_every_task_exactly_once() {
        for threads in [1, 2, 4, 8] {
            let pool = ShardPool::new(threads);
            let mut tasks: Vec<u64> = vec![0; 13];
            pool.run(&mut tasks, |i, slot| {
                *slot += i as u64 + 1;
            });
            let expected: Vec<u64> = (1..=13).collect();
            assert_eq!(tasks, expected, "threads={threads}");
        }
    }

    #[test]
    fn pool_with_more_threads_than_tasks() {
        let pool = ShardPool::new(16);
        let mut tasks = vec![0u32; 3];
        pool.run(&mut tasks, |_, slot| *slot += 1);
        assert_eq!(tasks, vec![1, 1, 1]);
    }

    #[test]
    fn pool_zero_threads_is_inline() {
        let pool = ShardPool::new(0);
        assert_eq!(pool.threads(), 1);
        let mut tasks = vec![0u32; 2];
        pool.run(&mut tasks, |i, slot| *slot = i as u32);
        assert_eq!(tasks, vec![0, 1]);
    }

    #[test]
    fn pool_results_independent_of_thread_count() {
        // Each task's result depends only on its own state — the invariant
        // the sharded engine relies on.
        let compute = |threads: usize| {
            let pool = ShardPool::new(threads);
            let mut tasks: Vec<(u64, Vec<u64>)> = (0..8).map(|s| (s, Vec::new())).collect();
            pool.run(&mut tasks, |_, (seed, out)| {
                let mut x = *seed;
                for _ in 0..100 {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    out.push(x);
                }
            });
            tasks
        };
        let base = compute(1);
        for threads in [2, 4, 8] {
            assert_eq!(compute(threads), base, "threads={threads}");
        }
    }

    #[test]
    fn pool_spawns_workers_once_per_configuration() {
        let mut pool = ShardPool::new(4);
        assert_eq!(pool.os_threads_spawned(), 3, "threads - 1 workers, caller included");
        let mut tasks = vec![0u64; 16];
        for _ in 0..10 {
            pool.run(&mut tasks, |i, slot| *slot += i as u64);
        }
        assert_eq!(pool.os_threads_spawned(), 3, "passes must not spawn");
        pool.set_threads(4);
        assert_eq!(pool.os_threads_spawned(), 3, "same configuration must not respawn");
        pool.set_threads(2);
        assert_eq!(pool.os_threads_spawned(), 4, "reconfiguration spawns the new worker set");
        pool.run(&mut tasks, |i, slot| *slot += i as u64);
        assert_eq!(pool.os_threads_spawned(), 4);
    }

    #[test]
    fn pool_propagates_worker_panics_and_stays_usable() {
        let pool = ShardPool::new(4);
        let mut tasks: Vec<u32> = (0..8).collect();
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(&mut tasks, |_, slot| {
                assert!(*slot != 5, "injected task failure");
            });
        }));
        assert!(result.is_err(), "a task panic must reach the caller");
        // The pass that panicked still completed its barrier; the pool
        // keeps working.
        let mut tasks = vec![0u64; 8];
        pool.run(&mut tasks, |i, slot| *slot = i as u64);
        assert_eq!(tasks, (0..8).collect::<Vec<u64>>());
    }

    #[test]
    fn outbox_stamps_source_and_sequence() {
        let mut ob: Outbox<&str> = Outbox::new(3);
        ob.push(0, t(10), "a");
        ob.push(1, t(5), "b");
        assert_eq!(ob.len(), 2);
        let merged = merge([&mut ob], 2);
        let merged = merged.batches();
        assert_eq!(merged[0], vec![OutMsg { dest: 0, time: t(10), src: 3, seq: 0, payload: "a" }]);
        assert_eq!(merged[1], vec![OutMsg { dest: 1, time: t(5), src: 3, seq: 1, payload: "b" }]);
        assert!(ob.is_empty(), "merge drains the outbox");
    }

    #[test]
    fn merge_orders_by_time_then_source_then_sequence() {
        let mut a: Outbox<u32> = Outbox::new(0);
        let mut b: Outbox<u32> = Outbox::new(1);
        b.push(0, t(1), 11);
        b.push(0, t(5), 10); // same time as a's pushes, higher src
        a.push(0, t(5), 20);
        a.push(0, t(5), 21);
        let merged = merge([&mut a, &mut b], 1);
        let order: Vec<u32> = merged.batches()[0].iter().map(|m| m.payload).collect();
        // time 1 first; at time 5: src 0 (seq 0 then 1) before src 1.
        assert_eq!(order, vec![11, 20, 21, 10]);
    }

    #[test]
    fn merge_orders_a_source_pushing_out_of_time_order() {
        let mut a: Outbox<u32> = Outbox::new(0);
        let mut b: Outbox<u32> = Outbox::new(1);
        a.push(0, t(9), 0);
        a.push(0, t(2), 1);
        b.push(0, t(5), 2);
        a.push(0, t(5), 3);
        a.push(0, t(2), 4);
        b.push(0, t(1), 5);
        let merged = merge([&mut a, &mut b], 1);
        let keys: Vec<(u64, u32, u64)> =
            merged.batches()[0].iter().map(|m| (m.time.as_micros(), m.src, m.seq)).collect();
        assert_eq!(keys, [(1, 1, 1), (2, 0, 1), (2, 0, 3), (5, 0, 2), (5, 1, 0), (9, 0, 0)]);
    }

    #[test]
    fn merge_resets_sequences_for_the_next_pass() {
        let mut ob: Outbox<u8> = Outbox::new(0);
        ob.push(0, t(1), 1);
        let mut bufs = merge([&mut ob], 1);
        ob.push(0, t(2), 2);
        merge_outboxes_into([&mut ob], &mut bufs);
        assert_eq!(bufs.batches()[0][0].seq, 0, "sequence restarts after a merge");
    }

    #[test]
    fn merged_order_is_independent_of_outbox_visit_order() {
        let fill = |a: &mut Outbox<u32>, b: &mut Outbox<u32>| {
            a.push(0, t(3), 2);
            a.push(0, t(7), 1);
            b.push(0, t(3), 4);
            b.push(0, t(7), 3);
        };
        let (mut a1, mut b1) = (Outbox::new(0), Outbox::new(1));
        fill(&mut a1, &mut b1);
        let fwd: Vec<u32> =
            merge([&mut a1, &mut b1], 1).batches()[0].iter().map(|m| m.payload).collect();
        let (mut a2, mut b2) = (Outbox::new(0), Outbox::new(1));
        fill(&mut a2, &mut b2);
        let rev: Vec<u32> =
            merge([&mut b2, &mut a2], 1).batches()[0].iter().map(|m| m.payload).collect();
        assert_eq!(fwd, rev, "the (time, src, seq) key fixes the order");
    }

    /// Deterministic multi-destination fill, each source's times rising.
    fn fill_many(outboxes: &mut [Outbox<u64>], dests: u32, msgs: u64) {
        for (s, ob) in outboxes.iter_mut().enumerate() {
            for i in 0..msgs {
                let x = (s as u64 + 1).wrapping_mul(i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
                ob.push((x % u64::from(dests)) as u32, t(i * 3), x);
            }
        }
    }

    /// Buffers left dirty by an earlier, larger pass merge exactly what
    /// fresh ones do: nothing of the previous pass leaks into the next.
    #[test]
    fn merge_into_reused_buffers_match_fresh_buffers() {
        let mut a: Vec<Outbox<u64>> = (0..4).map(Outbox::new).collect();
        let mut b: Vec<Outbox<u64>> = (0..4).map(Outbox::new).collect();
        fill_many(&mut a, 4, 64);
        let fresh = merge(a.iter_mut(), 4);
        fill_many(&mut b, 4, 200);
        let mut reused = merge(b.iter_mut(), 4);
        fill_many(&mut b, 4, 64);
        merge_outboxes_into(b.iter_mut(), &mut reused);
        assert_eq!(reused.batches(), fresh.batches());
        assert_eq!(reused.total(), 4 * 64);
    }

    #[test]
    fn merge_into_reuses_buffers_at_steady_state() {
        let mut outboxes: Vec<Outbox<u64>> = (0..4).map(Outbox::new).collect();
        let mut bufs = MergeBuffers::new(4);
        // Warm-up pass grows every buffer to its working size.
        fill_many(&mut outboxes, 4, 128);
        merge_outboxes_into(outboxes.iter_mut(), &mut bufs);
        let fingerprint: Vec<(*const OutMsg<u64>, usize)> =
            bufs.batches().iter().map(|b| (b.as_ptr(), b.capacity())).collect();
        // Steady-state passes must reuse the exact allocations.
        for _ in 0..3 {
            fill_many(&mut outboxes, 4, 128);
            merge_outboxes_into(outboxes.iter_mut(), &mut bufs);
            let now: Vec<(*const OutMsg<u64>, usize)> =
                bufs.batches().iter().map(|b| (b.as_ptr(), b.capacity())).collect();
            assert_eq!(now, fingerprint, "batch buffers must not reallocate");
            for batch in bufs.batches() {
                assert!(batch.windows(2).all(|w| {
                    (w[0].time, w[0].src, w[0].seq) < (w[1].time, w[1].src, w[1].seq)
                }));
            }
        }
    }
}
