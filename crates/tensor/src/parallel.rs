//! Scoped-thread fork-join dispatcher for the tensor kernels and the
//! training hot path.
//!
//! ## The threading rule
//!
//! There is no persistent thread pool, and in this crate and the ones
//! above it exactly one place that spawns: [`fork_join`]. Every helper here, the chunked plan replay
//! ([`crate::InferencePlan::run_chunked`]) and the labelling scan in
//! `selnet-workload` hand it a list of disjoint parts, and it obeys three
//! rules:
//!
//! 1. **The caller works.** Part 0 runs on the calling thread; only parts
//!    `1..` get a `std::thread::scope` thread, so a 2-way split costs one
//!    spawn and the caller never sits idle waiting for threads it started.
//! 2. **Nested runs inline.** A worker (and the caller, while it runs its
//!    own part) is *inside a parallel region*; a `fork_join` reached from
//!    there runs all its parts on that thread, in order, and
//!    [`fork_threads`] answers 1 there so helpers do not even split. The
//!    per-partition pretraining tapes therefore never stack matmul forks
//!    on top of their own fan-out, and the machine never runs more
//!    threads than the outermost fork asked for.
//! 3. **One gate.** Where the work is countable — a matmul, a plan
//!    replay, a row copy — a fork is only taken when every engaged worker
//!    gets at least [`FORK_MIN_WORK`] elementary operations
//!    ([`gated_threads`]); the constant is derived from the measured cost
//!    of one fork-join (see its docs). [`par_map_indexed`] and
//!    [`par_map_states`] run opaque closures and take their minimum items
//!    per worker from the caller, who knows what one item costs.
//!
//! Work is always split into **contiguous, disjoint** chunks whose
//! boundaries depend only on the input size and the worker count — never
//! on scheduling — and no kernel combines values across chunks, so every
//! helper is deterministic and the row-partitioned kernels are
//! bit-identical to their serial counterparts for *any* thread count,
//! including the inline (nested) execution: bit-identity is structural,
//! not something the gate or the schedule could disturb.
//!
//! ## The threading knob
//!
//! The worker count is resolved, in order, from:
//!
//! 1. an explicit per-call request (`Matrix::matmul_threaded(_, n)` with
//!    `n > 0`);
//! 2. a process-wide override set with [`set_threads`];
//! 3. the `SELNET_THREADS` environment variable (read once);
//! 4. [`std::thread::available_parallelism`].
//!
//! (`selnet-index` resolves steps 3–4 the same way for the cover-tree
//! build, without depending on this crate.)

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

static CONFIGURED: AtomicUsize = AtomicUsize::new(0);

/// Elementary operations (one multiply-add of a matmul or a plan replay,
/// one copied element) each engaged worker must receive before a fork is
/// taken.
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
/// multiply-adds *in total* (≈ 50 µs), sat below the fork itself: on the
/// paper fixture a joint training step ran 25–29 ms at two threads
/// against 19–23 ms at one, and a 64-row serving wave replayed in 0.095 ms
/// at two threads against 0.045 ms at one (`BENCH_serve.json`, `scaling`,
/// before this gate). Now the 256-row training products (≤ `2^23.3`
/// multiply-adds) and every test-sized wave stay on the calling thread,
/// and default threads never train slower than `SELNET_THREADS=1`.
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

/// Sets the process-wide worker count (`0` restores the automatic
/// `SELNET_THREADS` / `available_parallelism` resolution).
pub fn set_threads(n: usize) {
    CONFIGURED.store(n, Ordering::Relaxed);
}

/// Resolves a requested worker count: `requested > 0` wins, otherwise the
/// process-wide configuration (see the module docs for the full order).
pub fn effective_threads(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        let configured = CONFIGURED.load(Ordering::Relaxed);
        if configured > 0 {
            configured
        } else {
            default_threads()
        }
    }
}

/// The process-wide worker count currently in effect.
pub fn configured_threads() -> usize {
    effective_threads(0)
}

thread_local! {
    /// Whether this thread is running a part of some [`fork_join`].
    static IN_REGION: Cell<bool> = const { Cell::new(false) };
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

/// Workers a fork taken from the calling thread may engage:
/// [`effective_threads`]`(requested)`, or 1 inside a parallel region
/// (rule 2 of the module docs). Callers that size their own split —
/// the matmul gate, [`crate::InferencePlan::replay_threads`], the
/// labelling scans — resolve their thread count through this.
pub fn fork_threads(requested: usize) -> usize {
    if IN_REGION.get() {
        1
    } else {
        effective_threads(requested)
    }
}

/// Workers worth engaging for `work` elementary operations: at most
/// [`fork_threads`]`(requested)`, each with at least [`FORK_MIN_WORK`] of
/// them (rule 3 of the module docs).
pub fn gated_threads(requested: usize, work: usize) -> usize {
    fork_threads(requested).min(work / FORK_MIN_WORK).max(1)
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
/// never on scheduling — which is what makes every consumer here (and
/// the chunked plan replay in [`crate::InferencePlan::run_chunked`])
/// deterministic: the same
/// inputs and the same thread count always produce the same partition.
pub fn chunk_ranges(total: usize, threads: usize, min_per_chunk: usize) -> Vec<(usize, usize)> {
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
/// range item; the ranges are contiguous from 0 (as [`chunk_ranges`]
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

/// [`chunk_ranges`] for a fork from the calling thread: one range inside
/// a parallel region.
fn fork_ranges(total: usize, threads: usize, min_per_chunk: usize) -> Vec<(usize, usize)> {
    let threads = if IN_REGION.get() { 1 } else { threads };
    chunk_ranges(total, threads, min_per_chunk)
}

/// Runs `f(first_row, rows)` over disjoint row-aligned chunks of a
/// row-major buffer, on up to `threads` workers (the caller being one).
/// With one chunk the call runs inline on the caller's thread.
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
    let ranges = fork_ranges(data.len() / width, threads, min_rows);
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

/// Maps `f` over `0..count` on up to `threads` workers, returning the
/// results in index order (scheduling never affects the output).
pub fn par_map_indexed<R, F>(count: usize, threads: usize, min_per_chunk: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let ranges = fork_ranges(count, threads, min_per_chunk);
    if ranges.len() <= 1 {
        return (0..count).map(f).collect();
    }
    let mut out: Vec<Option<R>> = Vec::with_capacity(count);
    out.resize_with(count, || None);
    fork_join(split_ranges(&mut out, 1, &ranges), |(start, slots)| {
        for (off, slot) in slots.iter_mut().enumerate() {
            *slot = Some(f(start + off));
        }
    });
    out.into_iter()
        .map(|r| r.expect("all chunks filled"))
        .collect()
}

/// Fills an existing `width`-column row-major buffer row by row with
/// `fill(row_index, row)`, parallelized over row chunks of at least
/// [`FORK_MIN_WORK`] elements — a training batch (a few hundred rows) is
/// a plain loop on the caller. This is the allocation-free sibling of
/// [`par_build_rows`] — the training loops call it on tape-owned leaf
/// buffers (see `Graph::leaf_with`) so batch assembly recycles storage
/// instead of building a fresh `Vec` per batch.
pub fn par_fill_rows<F>(data: &mut [f32], width: usize, threads: usize, fill: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    if width == 0 || data.is_empty() {
        return;
    }
    let min_rows = FORK_MIN_WORK.div_ceil(width);
    par_row_chunks_mut(data, width, threads, min_rows, |first_row, chunk| {
        for (off, row) in chunk.chunks_exact_mut(width).enumerate() {
            fill(first_row + off, row);
        }
    });
}

/// Builds a `count x width` row-major buffer by filling each row with
/// `fill(row_index, row)`, parallelized over row chunks.
pub fn par_build_rows<F>(count: usize, width: usize, threads: usize, fill: F) -> Vec<f32>
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    let mut data = vec![0.0f32; count * width];
    par_fill_rows(&mut data, width, threads, fill);
    data
}

/// Runs `f(i, &mut states[i])` for every state on up to `threads` workers
/// and returns the results in index order. States are split into
/// contiguous, disjoint chunks whose boundaries depend only on the input
/// size and thread count, so scheduling never affects the output — the
/// per-partition training tapes ride this to stay deterministic while each
/// job mutates (resets and rebuilds) its own persistent `Graph`.
pub fn par_map_states<S, R, F>(states: &mut [S], threads: usize, f: F) -> Vec<R>
where
    S: Send,
    R: Send,
    F: Fn(usize, &mut S) -> R + Sync,
{
    let count = states.len();
    let ranges = fork_ranges(count, threads, 1);
    if ranges.len() <= 1 {
        return states
            .iter_mut()
            .enumerate()
            .map(|(i, s)| f(i, s))
            .collect();
    }
    let mut out: Vec<Option<R>> = Vec::with_capacity(count);
    out.resize_with(count, || None);
    let parts: Vec<_> = split_ranges(states, 1, &ranges)
        .into_iter()
        .zip(split_ranges(&mut out, 1, &ranges))
        .collect();
    fork_join(parts, |((start, states), (_, slots))| {
        for (off, (slot, state)) in slots.iter_mut().zip(states).enumerate() {
            *slot = Some(f(start + off, state));
        }
    });
    out.into_iter()
        .map(|r| r.expect("all chunks filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_threads_prefers_explicit_request() {
        assert_eq!(effective_threads(3), 3);
        assert!(effective_threads(0) >= 1);
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
            let out = par_map_indexed(23, threads, 1, |i| i * i);
            assert_eq!(out, (0..23).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_build_rows_matches_serial() {
        let serial = par_build_rows(11, 3, 1, |i, row| {
            for (j, v) in row.iter_mut().enumerate() {
                *v = (i * 3 + j) as f32;
            }
        });
        let parallel = par_build_rows(11, 3, 4, |i, row| {
            for (j, v) in row.iter_mut().enumerate() {
                *v = (i * 3 + j) as f32;
            }
        });
        assert_eq!(serial, parallel);
        assert_eq!(serial.len(), 33);
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
        assert_eq!(fork_threads(4), 4);
        let seen: Mutex<Vec<(usize, ThreadId)>> = Mutex::new(Vec::new());
        fork_join(vec![0usize, 1, 2], |i| {
            let me = current().id();
            assert_eq!(fork_threads(4), 1);
            let nested = Mutex::new(Vec::new());
            fork_join(vec![(); 3], |()| {
                nested.lock().unwrap().push(current().id())
            });
            let mut states = [0u8; 4];
            nested
                .lock()
                .unwrap()
                .extend(par_map_states(&mut states, 4, |_, _| current().id()));
            nested
                .lock()
                .unwrap()
                .extend(par_map_indexed(6, 4, 1, |_| current().id()));
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
        assert_eq!(fork_threads(4), 4);
        // a helper reached from inside `par_map_states` spawns nothing
        let mut tapes = [(); 3];
        let inner = par_map_states(&mut tapes, 3, |_, _| {
            let me = current().id();
            par_map_indexed(8, 4, 1, |_| current().id())
                .into_iter()
                .all(|t| t == me)
        });
        assert_eq!(inner, [true; 3]);
    }

    /// An unwinding part leaves the caller outside the region again.
    #[test]
    fn a_panicking_part_propagates_and_ends_the_region() {
        let outcome = std::panic::catch_unwind(|| {
            fork_join(vec![0, 1], |i| assert!(i != 0, "part 0 fails"));
        });
        assert!(outcome.is_err());
        assert_eq!(fork_threads(3), 3);
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
        assert_eq!(gated_threads(8, 0), 1);
        assert_eq!(gated_threads(8, 2 * FORK_MIN_WORK - 1), 1);
        assert_eq!(gated_threads(8, 2 * FORK_MIN_WORK), 2);
        assert_eq!(gated_threads(2, 100 * FORK_MIN_WORK), 2);
    }

    #[test]
    fn zero_width_rows_are_harmless() {
        assert!(par_build_rows(4, 0, 2, |_, _| unreachable!()).is_empty());
    }

    #[test]
    fn par_map_states_mutates_each_state_once_in_order() {
        for threads in [1usize, 2, 5] {
            let mut states: Vec<u64> = (0..13).map(|i| i as u64).collect();
            let out = par_map_states(&mut states, threads, |i, s| {
                *s += 100;
                (i as u64) * 2
            });
            assert_eq!(out, (0..13).map(|i| i * 2).collect::<Vec<u64>>());
            assert_eq!(states, (100..113).collect::<Vec<u64>>());
        }
    }
}
