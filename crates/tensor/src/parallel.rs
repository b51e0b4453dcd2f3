//! Scoped-thread fork-join dispatcher for the tensor kernels and the
//! training hot path.
//!
//! ## The threading rule
//!
//! There is no persistent thread pool, and in this crate, the ones above
//! it and the two below it that fork (`selnet-data`'s `fasttext_like`,
//! `selnet-index`'s cover-tree build) exactly one place that spawns:
//! [`fork_join`]. Every helper here, the labelling scan in
//! `selnet-workload`, the generator's transforms and the tree build's
//! workers hand it a list of disjoint parts, and it obeys three rules:
//!
//! 1. **The caller works.** Part 0 runs on the calling thread; only parts
//!    `1..` get a `std::thread::scope` thread, so a 2-way split costs one
//!    spawn and the caller never sits idle waiting for threads it started.
//! 2. **Nested runs inline.** A worker (and the caller, while it runs its
//!    own part) is *inside a parallel region*; a `fork_join` reached from
//!    there runs all its parts on that thread, in order, and
//!    [`fork_threads`] answers 1 there so helpers do not even split. A
//!    training step's per-network tapes therefore never stack matmul
//!    forks on top of their own split, and the machine never runs more
//!    threads than the outermost fork asked for.
//! 3. **One gate.** Where the work is countable — a matmul — a fork is
//!    only taken when every engaged worker gets at least
//!    [`FORK_MIN_WORK`] elementary operations (`gated_threads`); the
//!    constant is derived from the measured cost of one fork-join (see
//!    its docs). [`par_map_indexed`] runs opaque closures and takes its
//!    minimum items per worker from the caller, who knows what one item
//!    costs.
//!
//! Work that is too small per step to pay for a fork each step — a
//! SelNet training step is tens of µs — takes one fork for many steps: a
//! [`crew`] is a single `fork_join` whose threads stay for a whole phase
//! and meet at a step barrier ([`Crew::round`]) that spins briefly, then
//! parks. It is still the one spawn site, and the whole crew is a
//! parallel region (rule 2).
//!
//! Work is split into **contiguous, disjoint** chunks whose boundaries
//! depend only on the input size and the worker count — never on
//! scheduling — or, in [`par_map_indexed`], handed out one index at a
//! time with each result stored at its index; no kernel combines values
//! across chunks, so every helper is deterministic and the
//! row-partitioned kernels are bit-identical to their serial counterparts
//! for *any* thread count, including the inline (nested) execution:
//! bit-identity is structural, not something the gate or the schedule
//! could disturb. A crew's parts are the caller's to define; the trainer
//! gives each of its values one part that computes it.
//!
//! ## The threading knob
//!
//! There is one worker count, and every fork reads it through
//! [`fork_threads`], which resolves it, in order, from:
//!
//! 1. inside a parallel region: 1 (rule 2);
//! 2. a pin on the calling thread, set with [`set_threads`];
//! 3. the `SELNET_THREADS` environment variable (read once);
//! 4. [`std::thread::available_parallelism`].
//!
//! No call takes a worker count of its own: every artifact is
//! bit-identical at any count, so a count moves time, never an answer.

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Elementary operations (multiply-adds of a matmul) each engaged worker
/// must receive before a fork is taken.
///
/// Derivation, from `BENCH_substrate.json` on the 2-vCPU recording host:
/// one empty two-way [`fork_join`] — a scope, one spawn, one join — is
/// `parallel.fork_join_us` ≈ 16 µs back to back and
/// `parallel.fork_join_idle_us` ≈ 40 µs when the second vCPU has to be
/// woken first; other sessions on the same host read 75 and 200 µs for
/// the same two loops, so 200 µs is the price to plan for. The tiled
/// kernel retires ≈ 40 multiply-adds per nanosecond (`gemm` block,
/// 256³ in 0.40 ms), so `2^24` operations are ≈ 0.4 ms of work that a
/// further worker takes off the caller: twice the worst fork observed,
/// twenty times the usual one. The gate this replaces, `2^21`
/// multiply-adds *in total* (≈ 50 µs), sat below the fork itself: a
/// 64-row serving wave, when plan replay still forked, replayed in
/// 0.095 ms at two threads against 0.045 ms at one. A training step's
/// products stay far below the gate: a step runs the networks once per
/// query object, and a paper joint step is ≈ 13 object rows, whose
/// widest product (13 × 316 into 512) is ≈ `2^21` multiply-adds — the
/// whole step ≈ 2.3 ms on one thread, 0.6 ms forward and 1.7 ms backward
/// and Adam. Training's parallelism is therefore a [`crew`] over the
/// networks, one fork for a whole phase, never a fork per product.
pub const FORK_MIN_WORK: usize = 1 << 24;

fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("SELNET_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    })
}

thread_local! {
    /// Whether this thread is running a part of some [`fork_join`].
    static IN_REGION: Cell<bool> = const { Cell::new(false) };
    /// This thread's pinned worker count (0 = none), see [`set_threads`].
    static PINNED: Cell<usize> = const { Cell::new(0) };
}

/// Pins the worker count of the forks the calling thread takes to `n`
/// (`0` removes the pin, restoring the `SELNET_THREADS` /
/// `available_parallelism` resolution). Other threads do not see it.
pub fn set_threads(n: usize) {
    PINNED.set(n);
}

/// Marks the current thread as inside a parallel region until dropped
/// (restoring what it found, so unwinding out of a part leaves the flag
/// as it was).
struct Region(bool);

impl Region {
    fn enter() -> Self {
        Region(IN_REGION.replace(true))
    }
}

impl Drop for Region {
    fn drop(&mut self) {
        IN_REGION.set(self.0);
    }
}

/// Workers a fork taken from the calling thread may engage, in the order
/// of the module docs: 1 inside a parallel region, else this thread's
/// [`set_threads`] pin, else `SELNET_THREADS`, else the machine's cores.
pub fn fork_threads() -> usize {
    match (IN_REGION.get(), PINNED.get()) {
        (true, _) => 1,
        (false, 0) => default_threads(),
        (false, pinned) => pinned,
    }
}

/// Workers worth engaging for `work` elementary operations: at most
/// [`fork_threads`], each with at least [`FORK_MIN_WORK`] of them (rule 3
/// of the module docs).
pub(crate) fn gated_threads(work: usize) -> usize {
    fork_threads().min(work / FORK_MIN_WORK).max(1)
}

/// The one fork-join: runs `work(part)` for every part, the first on the
/// calling thread and each further part on a scoped thread of its own,
/// and returns when all are done. From inside a parallel region every
/// part runs on the calling thread, in order. A panic in any part
/// propagates to the caller.
pub fn fork_join<T, W>(parts: Vec<T>, work: W)
where
    T: Send,
    W: Fn(T) + Sync,
{
    let mut parts = parts.into_iter();
    let Some(first) = parts.next() else {
        return;
    };
    if parts.len() == 0 || IN_REGION.get() {
        work(first);
        parts.for_each(&work);
        return;
    }
    std::thread::scope(|scope| {
        for part in parts {
            let work = &work;
            scope.spawn(move || {
                let _region = Region::enter();
                work(part)
            });
        }
        let _region = Region::enter();
        work(first);
    });
}

/// Splits `total` items into at most `threads` contiguous ranges of at
/// least `min_per_chunk` items (the final range takes the remainder).
///
/// The boundaries depend only on `(total, threads, min_per_chunk)` —
/// never on scheduling — which is what makes every consumer here
/// deterministic: the same inputs and the same thread count always
/// produce the same partition.
fn chunk_ranges(total: usize, threads: usize, min_per_chunk: usize) -> Vec<(usize, usize)> {
    if total == 0 {
        return Vec::new();
    }
    let max_chunks = total.div_ceil(min_per_chunk.max(1));
    let chunks = threads.clamp(1, max_chunks);
    let per = total.div_ceil(chunks);
    (0..chunks)
        .map(|c| (c * per, ((c + 1) * per).min(total)))
        .filter(|(s, e)| s < e)
        .collect()
}

/// Cuts `data` into one `&mut` slice per range, `unit` elements to a
/// range item; the ranges are contiguous from 0 (as `chunk_ranges`
/// returns them).
fn split_ranges<'a, T>(
    mut data: &'a mut [T],
    unit: usize,
    ranges: &[(usize, usize)],
) -> Vec<(usize, &'a mut [T])> {
    let mut parts = Vec::with_capacity(ranges.len());
    for &(start, end) in ranges {
        let (head, tail) = data.split_at_mut((end - start) * unit);
        data = tail;
        parts.push((start, head));
    }
    parts
}

/// Runs `f(first_row, rows)` over disjoint row-aligned chunks of a
/// row-major buffer, on up to `threads` workers (the caller being one;
/// one chunk inside a parallel region). Its callers size `threads` with
/// a gate of their own. With one chunk the call runs inline on the
/// caller's thread.
pub fn par_row_chunks_mut<F>(
    data: &mut [f32],
    row_width: usize,
    threads: usize,
    min_rows: usize,
    f: F,
) where
    F: Fn(usize, &mut [f32]) + Sync,
{
    let width = row_width.max(1);
    let threads = if IN_REGION.get() { 1 } else { threads };
    let ranges = chunk_ranges(data.len() / width, threads, min_rows);
    if ranges.len() <= 1 {
        if !data.is_empty() {
            f(0, data);
        }
        return;
    }
    fork_join(split_ranges(data, width, &ranges), |(first_row, rows)| {
        f(first_row, rows)
    });
}

/// Maps `f` over `0..count` on up to [`fork_threads`] workers, at most
/// one per `min_per_worker` items, returning the results in index order.
/// Each worker takes the next index from a shared counter, so items of
/// uneven cost (a partitioning's clusters) spread over the workers as they
/// free up; `f(i)` lands at `i` whoever ran it, so scheduling never
/// affects the output.
pub fn par_map_indexed<R, F>(count: usize, min_per_worker: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = fork_threads().min(count.div_ceil(min_per_worker.max(1)));
    if workers <= 1 {
        return (0..count).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut done: Vec<Vec<(usize, R)>> = (0..workers).map(|_| Vec::new()).collect();
    fork_join(done.iter_mut().collect(), |done| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= count {
            return;
        }
        done.push((i, f(i)));
    });
    let mut out: Vec<Option<R>> = Vec::with_capacity(count);
    out.resize_with(count, || None);
    for (i, r) in done.into_iter().flatten() {
        out[i] = Some(r);
    }
    out.into_iter()
        .map(|r| r.expect("every index mapped"))
        .collect()
}

/// How long a waiting crew member spins before it parks: longer than the
/// caller's serial stretch between two rounds of a joint training step
/// (a few µs on the benchmark's fixtures), so a step's rounds meet
/// without a system call, and short enough that a crew sharing its cores
/// with other busy threads gives them the cores back.
const CREW_SPIN: Duration = Duration::from_micros(50);

/// Where the members of a crew wait for each other: spinning for at most
/// [`CREW_SPIN`], then parked on a condition variable. Every change a
/// waiter's condition reads is made with `SeqCst`, then [`Meeting::wake`]
/// is called; a parking waiter counts itself among the sleepers before its
/// last look at the condition, so either it sees the change or the waker
/// sees it and notifies it under the lock.
#[derive(Default)]
struct Meeting {
    lock: Mutex<()>,
    bell: Condvar,
    sleepers: AtomicUsize,
}

impl Meeting {
    fn wait_until(&self, ready: impl Fn() -> bool) {
        let start = Instant::now();
        let mut spins = 0u32;
        while !ready() {
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(64) && start.elapsed() >= CREW_SPIN {
                let mut guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
                self.sleepers.fetch_add(1, Ordering::SeqCst);
                while !ready() {
                    guard = self
                        .bell
                        .wait(guard)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                self.sleepers.fetch_sub(1, Ordering::SeqCst);
                return;
            }
            std::hint::spin_loop();
        }
    }

    fn wake(&self) {
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
            self.bell.notify_all();
        }
    }
}

/// The state the threads of one crew share.
struct Roster<M> {
    /// Rounds released so far.
    round: AtomicUsize,
    /// The current round's message.
    message: Mutex<Option<M>>,
    /// Per part, the last round it was claimed in: whoever moves it from
    /// the round before runs the part.
    claimed: Vec<AtomicUsize>,
    /// Parts finished in the current round.
    done: AtomicUsize,
    /// A part panicked in some round.
    failed: AtomicBool,
    /// The lead has returned (or is unwinding): no round follows.
    stop: AtomicBool,
    meeting: Meeting,
}

impl<M> Roster<M> {
    /// Runs `part` in `round` unless someone claimed it first.
    fn try_run(&self, part: usize, round: usize, message: M, work: &(dyn Fn(usize, M) + Sync)) {
        let claim = self.claimed[part].compare_exchange(
            round - 1,
            round,
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
        if claim.is_ok() {
            let _finish = Finish(self);
            work(part, message);
        }
    }
}

/// Ends a crew when dropped, on return or unwinding: the workers waiting
/// for a round see `stop` and leave.
struct Dismiss<'a, M>(&'a Roster<M>);

impl<M> Drop for Dismiss<'_, M> {
    fn drop(&mut self) {
        self.0.stop.store(true, Ordering::SeqCst);
        self.0.meeting.wake();
    }
}

/// Counts a part as done when dropped — also when it panics, which it
/// flags, so the lead never waits for a part that will not finish.
struct Finish<'a, M>(&'a Roster<M>);

impl<M> Drop for Finish<'_, M> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.failed.store(true, Ordering::SeqCst);
        }
        self.0.done.fetch_add(1, Ordering::SeqCst);
        self.0.meeting.wake();
    }
}

/// The lead's handle on a [`crew`]: each [`Crew::round`] runs every part
/// once.
pub struct Crew<'c, M> {
    work: &'c (dyn Fn(usize, M) + Sync),
    parts: usize,
    /// The parts the lead runs each round, `0..own`.
    own: usize,
    /// Threads the parts run on, the lead's included.
    threads: usize,
    /// `None` when every part runs inline on the lead.
    roster: Option<&'c Roster<M>>,
}

impl<M: Copy + Send> Crew<'_, M> {
    /// Runs `work(part, message)` for every part and returns when all of
    /// them have: the crew's step barrier. After its own parts the lead
    /// runs any part that its thread has not yet started — one that is
    /// parked, or not scheduled — so a round never waits for a thread to
    /// wake, only for work in progress. A panic in any part propagates to
    /// the caller.
    pub fn round(&mut self, message: M) {
        let Some(roster) = self.roster else {
            (0..self.parts).for_each(|part| (self.work)(part, message));
            return;
        };
        *roster
            .message
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(message);
        roster.done.store(0, Ordering::SeqCst);
        let round = roster.round.fetch_add(1, Ordering::SeqCst) + 1;
        roster.meeting.wake();
        // the lead's own parts first, then, from the last, any part its
        // thread has not started
        let own = self.own;
        for part in (0..own).chain((own..self.parts).rev()) {
            roster.try_run(part, round, message, self.work);
        }
        roster
            .meeting
            .wait_until(|| roster.done.load(Ordering::SeqCst) == self.parts);
        assert!(
            !roster.failed.load(Ordering::SeqCst),
            "a crew part panicked"
        );
    }

    /// Threads the crew's parts run on, the caller's included: 1 when
    /// they run inline.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

/// A worker's side of a crew: each round, run those of its parts the lead
/// has not taken, until dismissed.
fn serve_rounds<M: Copy>(
    roster: &Roster<M>,
    parts: Range<usize>,
    work: &(dyn Fn(usize, M) + Sync),
) {
    let mut seen = 0;
    loop {
        roster.meeting.wait_until(|| {
            roster.stop.load(Ordering::SeqCst) || roster.round.load(Ordering::SeqCst) != seen
        });
        if roster.stop.load(Ordering::SeqCst) {
            return;
        }
        seen = roster.round.load(Ordering::SeqCst);
        let message = roster
            .message
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .expect("a released round has its message");
        for part in parts.clone() {
            roster.try_run(part, seen, message, work);
        }
    }
}

/// A phase-scoped crew: `parts` parts that run rounds in lockstep, with
/// the calling thread — the *lead* — between rounds. `lead` gets the
/// [`Crew`] and calls [`Crew::round`] as often as it likes; each round
/// runs `work(part, message)` once for every part and returns when all
/// are done, and in between the lead works alone.
///
/// The parts run on up to [`fork_threads`] threads (a one-part crew stays
/// on the calling thread), spawned once, by one
/// [`fork_join`], for the whole of `lead`: a contiguous run of parts to a
/// thread, the runs' lengths at most one apart, the first and shortest
/// run on the calling thread. Between rounds the
/// other threads wait at the step barrier, spinning briefly, then parked;
/// a part its thread has not started by the time the lead is done with
/// its own, the lead runs itself. So a part must not care which thread
/// runs it: its state goes with it (behind a lock), not with a thread.
/// With one thread (a `set_threads(1)` pin, or a crew started inside a
/// parallel region) every round runs its parts inline, in order. The
/// whole crew is a parallel region: a fork inside a part, or in `lead`,
/// runs inline.
pub fn crew<M, W, L, R>(parts: usize, work: W, lead: L) -> R
where
    M: Copy + Send,
    W: Fn(usize, M) + Sync,
    L: FnOnce(&mut Crew<'_, M>) -> R + Send,
    R: Send,
{
    let threads = fork_threads().clamp(1, parts.max(1));
    if threads == 1 {
        let _region = Region::enter();
        return lead(&mut Crew {
            work: &work,
            parts,
            own: parts,
            threads: 1,
            roster: None,
        });
    }
    let roster = Roster {
        round: AtomicUsize::new(0),
        message: Mutex::new(None),
        claimed: (0..parts).map(|_| AtomicUsize::new(0)).collect(),
        done: AtomicUsize::new(0),
        failed: AtomicBool::new(false),
        stop: AtomicBool::new(false),
        meeting: Meeting::default(),
    };
    // contiguous runs whose lengths differ by at most one, the shorter
    // ones first: the lead, which also works between rounds, gets the
    // fewest parts
    let (base, longer) = (parts / threads, parts % threads);
    let ranges: Vec<(usize, usize)> = (0..threads)
        .scan(0, |start, t| {
            let run = (*start, *start + base + usize::from(t >= threads - longer));
            *start = run.1;
            Some(run)
        })
        .collect();
    let result = Mutex::new(None);
    enum Seat<L> {
        Lead(L),
        Worker(Range<usize>),
    }
    let mut seats = vec![Seat::Lead(lead)];
    seats.extend(ranges[1..].iter().map(|&(s, e)| Seat::Worker(s..e)));
    let (roster, work) = (&roster, &work);
    fork_join(seats, |seat| match seat {
        Seat::Lead(lead) => {
            let _dismiss = Dismiss(roster);
            let out = lead(&mut Crew {
                work,
                parts,
                own: ranges[0].1,
                threads,
                roster: Some(roster),
            });
            *result.lock().unwrap_or_else(PoisonError::into_inner) = Some(out);
        }
        Seat::Worker(parts) => serve_rounds(roster, parts, work),
    });
    result
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .expect("the lead returned")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pin holds on the thread that set it only, and `0` clears it.
    #[test]
    fn set_threads_pins_the_calling_thread_only() {
        let unpinned = default_threads();
        let pin = unpinned + 2;
        set_threads(pin);
        assert_eq!(fork_threads(), pin);
        let elsewhere = std::thread::spawn(fork_threads).join().unwrap();
        assert_eq!(elsewhere, unpinned);
        assert_eq!(fork_threads(), pin);
        set_threads(0);
        assert_eq!(fork_threads(), unpinned);
    }

    #[test]
    fn chunk_ranges_cover_everything_once() {
        for total in [0usize, 1, 7, 64, 1000] {
            for threads in [1usize, 2, 3, 8] {
                for min in [1usize, 10, 400] {
                    let ranges = chunk_ranges(total, threads, min);
                    let mut expect = 0usize;
                    for &(s, e) in &ranges {
                        assert_eq!(s, expect);
                        assert!(e > s);
                        expect = e;
                    }
                    assert_eq!(expect, total);
                    assert!(ranges.len() <= threads.max(1));
                }
            }
        }
    }

    #[test]
    fn par_row_chunks_mut_visits_each_row_once() {
        let rows = 37;
        let width = 5;
        let mut data = vec![0.0f32; rows * width];
        par_row_chunks_mut(&mut data, width, 4, 1, |first_row, chunk| {
            for (off, row) in chunk.chunks_exact_mut(width).enumerate() {
                for v in row.iter_mut() {
                    *v += (first_row + off) as f32;
                }
            }
        });
        for (i, row) in data.chunks_exact(width).enumerate() {
            assert!(row.iter().all(|&v| v == i as f32), "row {i}: {row:?}");
        }
    }

    #[test]
    fn par_map_indexed_is_ordered() {
        for threads in [1usize, 2, 5] {
            set_threads(threads);
            let out = par_map_indexed(23, 1, |i| i * i);
            assert_eq!(out, (0..23).map(|i| i * i).collect::<Vec<_>>());
        }
        set_threads(0);
    }

    /// A worker that is done takes the next item, whatever the other
    /// worker holds: item 0 waits for items 1 and 2, which a split into
    /// contiguous ranges would have queued behind it on the same worker.
    #[test]
    fn par_map_indexed_hands_out_items_as_workers_free_up() {
        use std::sync::atomic::AtomicBool;
        use std::time::{Duration, Instant};
        let done = [AtomicBool::new(false), AtomicBool::new(false)];
        set_threads(2);
        let out = par_map_indexed(3, 1, |i| {
            if i == 0 {
                let start = Instant::now();
                while !done.iter().all(|d| d.load(Ordering::Acquire)) {
                    assert!(
                        start.elapsed() < Duration::from_secs(10),
                        "items 1 and 2 never ran"
                    );
                    std::thread::yield_now();
                }
            } else {
                done[i - 1].store(true, Ordering::Release);
            }
            i
        });
        set_threads(0);
        assert_eq!(out, [0, 1, 2]);
    }

    /// Rule 1: part 0 runs on the calling thread, every other part on a
    /// thread of its own. Rule 2: inside a part — the caller's included —
    /// `fork_threads` answers 1 and every helper, and `fork_join` itself,
    /// stays on the thread it was called from.
    #[test]
    fn the_caller_works_and_nested_forks_run_inline() {
        use std::sync::Mutex;
        use std::thread::{current, ThreadId};
        let caller = current().id();
        set_threads(4);
        assert_eq!(fork_threads(), 4);
        let seen: Mutex<Vec<(usize, ThreadId)>> = Mutex::new(Vec::new());
        fork_join(vec![0usize, 1, 2], |i| {
            let me = current().id();
            assert_eq!(fork_threads(), 1);
            let nested = Mutex::new(Vec::new());
            fork_join(vec![(); 3], |()| {
                nested.lock().unwrap().push(current().id())
            });
            crew(
                4,
                |_, ()| nested.lock().unwrap().push(current().id()),
                |c| c.round(()),
            );
            nested
                .lock()
                .unwrap()
                .extend(par_map_indexed(6, 1, |_| current().id()));
            let mut rows = [0.0f32; 8];
            par_row_chunks_mut(&mut rows, 1, 4, 1, |_, _| {
                nested.lock().unwrap().push(current().id())
            });
            let nested = nested.into_inner().unwrap();
            assert_eq!(nested.len(), 3 + 4 + 6 + 1, "one chunk when nested");
            assert!(nested.iter().all(|&t| t == me), "part {i} spawned");
            seen.lock().unwrap().push((i, me));
        });
        let mut seen = seen.into_inner().unwrap();
        seen.sort_by_key(|&(i, _)| i);
        assert_eq!(seen.len(), 3);
        assert_eq!(seen[0], (0, caller));
        assert!(seen[1].1 != caller && seen[2].1 != caller && seen[1].1 != seen[2].1);
        // the region ends with the fork
        assert_eq!(fork_threads(), 4);
        set_threads(0);
    }

    /// An unwinding part leaves the caller outside the region again.
    #[test]
    fn a_panicking_part_propagates_and_ends_the_region() {
        set_threads(3);
        let outcome = std::panic::catch_unwind(|| {
            fork_join(vec![0, 1], |i| assert!(i != 0, "part 0 fails"));
        });
        assert!(outcome.is_err());
        assert_eq!(fork_threads(), 3);
        set_threads(0);
    }

    /// Float results do not depend on how many workers computed them.
    #[test]
    fn chunked_rows_are_bit_equal_to_serial() {
        let fill = |threads: usize| {
            let mut data = vec![0.0f32; 41 * 3];
            par_row_chunks_mut(&mut data, 3, threads, 1, |first_row, chunk| {
                for (off, row) in chunk.chunks_exact_mut(3).enumerate() {
                    let r = (first_row + off) as f32;
                    row.copy_from_slice(&[r.sin(), (r * 0.37).exp(), 1.0 / (r + 0.5)]);
                }
            });
            data.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        let serial = fill(1);
        for threads in [2, 5] {
            assert_eq!(fill(threads), serial, "{threads} threads");
        }
    }

    #[test]
    fn the_gate_gives_every_engaged_worker_its_minimum() {
        set_threads(8);
        assert_eq!(gated_threads(0), 1);
        assert_eq!(gated_threads(2 * FORK_MIN_WORK - 1), 1);
        assert_eq!(gated_threads(2 * FORK_MIN_WORK), 2);
        set_threads(2);
        assert_eq!(gated_threads(100 * FORK_MIN_WORK), 2);
        set_threads(0);
    }

    /// Every round runs each part once, and no part starts round `r + 1`
    /// before every part has finished round `r`: part 1 sleeps through
    /// its rounds, yet part 0 never sees a count from another round.
    #[test]
    fn crew_parts_run_rounds_in_lockstep() {
        use std::thread::sleep;
        set_threads(2);
        let ran = [AtomicUsize::new(0), AtomicUsize::new(0)];
        let threads = crew(
            2,
            |part, round: usize| {
                if part == 1 {
                    sleep(Duration::from_millis(2));
                }
                let other = ran[1 - part].load(Ordering::SeqCst);
                assert!(
                    other == round || other == round + 1,
                    "part {part} in round {round} saw the other part at {other}"
                );
                ran[part].fetch_add(1, Ordering::SeqCst);
            },
            |c| {
                for round in 0..20 {
                    c.round(round);
                    assert_eq!(ran[0].load(Ordering::SeqCst), round + 1);
                    assert_eq!(ran[1].load(Ordering::SeqCst), round + 1);
                }
                c.threads()
            },
        );
        set_threads(0);
        assert_eq!(threads, 2);
    }

    /// A part that panics ends the crew: the lead's round panics, the
    /// other thread leaves its barrier, and nothing hangs — whether the
    /// panic is on a worker or on the lead.
    #[test]
    fn a_panicking_crew_part_propagates_without_hanging_the_other() {
        set_threads(2);
        for failing in [0usize, 1] {
            let rounds = AtomicUsize::new(0);
            let outcome = std::panic::catch_unwind(|| {
                crew(
                    2,
                    |part, round: usize| {
                        assert!(!(part == failing && round == 3), "part {part} fails");
                    },
                    |c| {
                        for round in 0..10 {
                            c.round(round);
                            rounds.fetch_add(1, Ordering::SeqCst);
                        }
                    },
                )
            });
            assert!(outcome.is_err(), "part {failing}'s panic was lost");
            assert_eq!(rounds.load(Ordering::SeqCst), 3);
            assert_eq!(fork_threads(), 2, "the region outlived the crew");
        }
        set_threads(0);
    }

    /// Inside a part, on the lead or a worker, and in the lead between
    /// rounds, `fork_threads` is 1 and a fork runs on the thread that
    /// took it.
    #[test]
    fn a_fork_inside_a_crew_part_runs_inline() {
        use std::thread::current;
        set_threads(2);
        let inline = |_: usize| {
            let me = current().id();
            let seen = Mutex::new(Vec::new());
            fork_join(vec![(); 3], |()| seen.lock().unwrap().push(current().id()));
            fork_threads() == 1 && seen.into_inner().unwrap().iter().all(|&t| t == me)
        };
        let parts = [AtomicBool::new(false), AtomicBool::new(false)];
        let lead_inline = crew(
            2,
            |part, ()| parts[part].store(inline(part), Ordering::SeqCst),
            |c| {
                c.round(());
                inline(0)
            },
        );
        set_threads(0);
        assert!(lead_inline);
        assert!(parts.iter().all(|p| p.load(Ordering::SeqCst)));
    }

    /// With one thread every round runs its parts on the caller, in part
    /// order.
    #[test]
    fn a_one_thread_crew_runs_every_part_inline_in_order() {
        use std::thread::current;
        let caller = current().id();
        set_threads(1);
        let log = Mutex::new(Vec::new());
        let threads = crew(
            3,
            |part, round: u8| {
                assert_eq!(current().id(), caller);
                log.lock().unwrap().push((round, part));
            },
            |c| {
                c.round(0);
                c.round(1);
                c.threads()
            },
        );
        set_threads(0);
        assert_eq!(threads, 1);
        let log = log.into_inner().unwrap();
        assert_eq!(log, [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]);
    }
}
