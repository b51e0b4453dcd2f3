//! Load drivers and the reply checker.
//!
//! Three ways of offering the same request stream over loopback TCP:
//!
//! * [`solo`] — closed loop, one connection, one request in flight: the
//!   optimizer that asks and waits;
//! * [`sat`] — closed loop, a few connections each keeping the
//!   workload's window of requests in flight: the most the stack will
//!   take;
//! * [`paced`] — open loop on one connection at a fixed rate: a burst is
//!   due at every millisecond boundary, a writer thread sends it and a
//!   reader thread timestamps the FIFO replies; latency counts from each
//!   request's **due** time, so a stall is charged to every request it
//!   delayed.
//!
//! Every reply is checked ([`Oracle::check`]); nothing is sampled away.

use crate::gen::{Req, Source, Stream, Thresholds, GRID};
use crate::layers::{paced_connect, Client, Fail};
use std::net::SocketAddr;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Tenant names by request tenant index.
pub const TENANTS: [&str; 2] = ["alpha", "beta"];
/// What happened to the requests of one phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub sent: u64,
    /// Answered and passed every check.
    pub ok: u64,
    /// Typed refusals.
    pub refused: u64,
    /// Transport or framing errors.
    pub transport: u64,
    /// Wrong length, non-finite or out-of-range estimates.
    pub malformed: u64,
    /// Replies that differ from the oracle's bits.
    pub mismatched: u64,
    /// Replies that decrease along an ascending grid (Lemma 1).
    pub non_monotone: u64,
    /// Replies compared bit for bit with the oracle.
    pub bit_checked: u64,
    /// Estimates in `ok` replies.
    pub rows: u64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.transport + self.malformed + self.mismatched + self.non_monotone
    }

    /// Everything that counts against `fail_share`.
    pub fn bad(&self) -> u64 {
        self.refused + self.failed()
    }

    pub fn add(&mut self, o: &Tally) {
        self.sent += o.sent;
        self.ok += o.ok;
        self.refused += o.refused;
        self.transport += o.transport;
        self.malformed += o.malformed;
        self.mismatched += o.mismatched;
        self.non_monotone += o.non_monotone;
        self.bit_checked += o.bit_checked;
        self.rows += o.rows;
    }
}

/// Pre-computed direct evaluations of the served model, and the bounds a
/// reply must respect.
pub struct Oracle {
    /// `estimate_many(x, ladder)` of the first pool objects.
    pub rungs: Vec<Vec<f64>>,
    /// `estimate_many(x, canonical window)` of the first hot objects.
    pub canonical: Vec<Vec<f64>>,
    /// No estimate may exceed this (twice the fixture's record count: the
    /// update stream inserts and deletes around the initial size).
    pub upper: f64,
    /// Whether tenant `i` serves the fixture's loaded model for the whole
    /// run; replies of a tenant that is being retrained are checked for
    /// shape and monotonicity only.
    pub frozen: [bool; 2],
}

impl Oracle {
    /// Checks one reply and books it.
    pub fn check(&self, src: &Source, req: &Req, reply: Result<Vec<f64>, Fail>, tally: &mut Tally) {
        let want = match req.ts {
            Thresholds::Rung(_) => 1,
            Thresholds::Ladder => src.ladder(req.obj).len(),
            Thresholds::Window { .. } | Thresholds::Canonical => GRID,
        };
        let obj = req.obj as usize;
        let expected: Option<&[f64]> = if !self.frozen[req.tenant as usize] {
            None
        } else {
            match req.ts {
                Thresholds::Rung(j) => self
                    .rungs
                    .get(obj)
                    .map(|r| std::slice::from_ref(&r[j as usize])),
                Thresholds::Ladder => self.rungs.get(obj).map(Vec::as_slice),
                Thresholds::Canonical => self.canonical.get(obj).map(Vec::as_slice),
                Thresholds::Window { .. } => None,
            }
        };
        book(reply, want, self.upper, expected, tally);
    }
}

/// Books one reply to a request whose thresholds ascend: a refusal or a
/// transport error as such; otherwise the estimates must be `want` finite
/// values in `[0, upper]`, non-decreasing (Lemma 1), and equal to
/// `expected` bit for bit where there is an expectation. Returns the
/// estimates if every check passed.
pub fn book(
    reply: Result<Vec<f64>, Fail>,
    want: usize,
    upper: f64,
    expected: Option<&[f64]>,
    tally: &mut Tally,
) -> Option<Vec<f64>> {
    let values = match reply {
        Ok(v) => v,
        Err(Fail::Refused) => {
            tally.refused += 1;
            return None;
        }
        Err(Fail::Transport) => {
            tally.transport += 1;
            return None;
        }
    };
    if values.len() != want
        || values
            .iter()
            .any(|v| !v.is_finite() || *v < 0.0 || *v > upper)
    {
        tally.malformed += 1;
        return None;
    }
    if values.windows(2).any(|w| w[1] < w[0]) {
        tally.non_monotone += 1;
        return None;
    }
    if let Some(expected) = expected {
        tally.bit_checked += 1;
        if expected.len() != values.len()
            || expected
                .iter()
                .zip(&values)
                .any(|(a, b)| a.to_bits() != b.to_bits())
        {
            tally.mismatched += 1;
            return None;
        }
    }
    tally.ok += 1;
    tally.rows += values.len() as u64;
    Some(values)
}

/// Shared read-only context of a phase.
#[derive(Clone, Copy)]
pub struct Ctx<'a> {
    pub addr: SocketAddr,
    pub src: &'a Source,
    pub oracle: &'a Oracle,
    /// All timestamps are nanoseconds since this instant.
    pub epoch: Instant,
    /// Requests each `sat` connection keeps in flight.
    pub window: usize,
}

impl Ctx<'_> {
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Closed loop, window 1. Returns the tally and every round trip in ns.
pub fn solo(ctx: Ctx, stream: &mut Stream, until: Instant) -> (Tally, Vec<u64>) {
    let mut tally = Tally::default();
    let mut lat = Vec::new();
    let mut ts = Vec::new();
    let mut client = match Client::connect(ctx.addr, 1) {
        Ok(c) => c,
        Err(_) => {
            tally.sent = 1;
            tally.transport = 1;
            return (tally, lat);
        }
    };
    while Instant::now() < until {
        let req = stream.next().expect("streams are endless");
        ctx.src.thresholds(&req, &mut ts);
        let t = Instant::now();
        let reply = client.ask(Some(TENANTS[req.tenant as usize]), ctx.src.x(req.obj), &ts);
        lat.push(t.elapsed().as_nanos() as u64);
        tally.sent += 1;
        let broken = reply == Err(Fail::Transport);
        ctx.oracle.check(ctx.src, &req, reply, &mut tally);
        if broken {
            break; // the connection is dead; do not spin on it
        }
    }
    (tally, lat)
}

/// What one saturating lane saw.
pub struct Lane {
    pub tally: Tally,
    /// `(completion time ns, estimates)` of every checked-ok reply.
    pub completions: Vec<(u64, u64)>,
}

/// Closed loop on one connection with the window kept full, until
/// `until`. One request in `trace_every` (0 = none) goes out
/// `QueryTraced` with `trace_base + n` as its trace ID.
pub fn sat_lane(
    ctx: Ctx,
    stream: &mut Stream,
    until: Instant,
    trace_every: u64,
    trace_base: u64,
) -> Lane {
    let mut lane = Lane {
        tally: Tally::default(),
        completions: Vec::new(),
    };
    let mut client = match Client::connect(ctx.addr, ctx.window) {
        Ok(c) => c,
        Err(_) => {
            lane.tally.sent = 1;
            lane.tally.transport = 1;
            return lane;
        }
    };
    let mut inflight = std::collections::VecDeque::with_capacity(ctx.window);
    let mut ts = Vec::new();
    let mut running = true;
    while running || !inflight.is_empty() {
        while running && client.pending() < ctx.window {
            let req = stream.next().expect("streams are endless");
            ctx.src.thresholds(&req, &mut ts);
            lane.tally.sent += 1;
            let trace = if trace_every > 0 && lane.tally.sent.is_multiple_of(trace_every) {
                trace_base + lane.tally.sent
            } else {
                0
            };
            let model = Some(TENANTS[req.tenant as usize]);
            if client.send(trace, model, ctx.src.x(req.obj), &ts).is_err() {
                lane.tally.transport += 1;
                running = false;
                break;
            }
            inflight.push_back(req);
        }
        let Some(req) = inflight.pop_front() else {
            break;
        };
        let reply = client.recv();
        let at = ctx.now_ns();
        if reply == Err(Fail::Transport) {
            // FIFO pairing is lost: everything still in flight failed too
            lane.tally.transport += 1 + inflight.len() as u64;
            break;
        }
        let before = lane.tally.rows;
        ctx.oracle.check(ctx.src, &req, reply, &mut lane.tally);
        if lane.tally.rows > before {
            lane.completions.push((at, lane.tally.rows - before));
        }
        running = running && Instant::now() < until;
    }
    lane
}

/// Runs one [`sat_lane`] per stream on its own thread.
pub fn sat(ctx: Ctx, streams: &mut [Stream], until: Instant, trace_every: u64) -> Lane {
    let lanes: Vec<Lane> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter_mut()
            .enumerate()
            .map(|(i, stream)| {
                let base = (i as u64 + 1) << 40;
                scope.spawn(move || sat_lane(ctx, stream, until, trace_every, base))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator lane panicked"))
            .collect()
    });
    let mut all = Lane {
        tally: Tally::default(),
        completions: Vec::new(),
    };
    for lane in lanes {
        all.tally.add(&lane.tally);
        all.completions.extend(lane.completions);
    }
    all.completions.sort_unstable();
    all
}

/// What the open loop saw.
#[derive(Default)]
pub struct Paced {
    pub tally: Tally,
    /// Reply time minus due time, ns, of every request that was answered
    /// (checked-ok or not).
    pub latency_ns: Vec<u64>,
    /// Write time minus due time, ns: how late the generator itself ran.
    pub late_ns: Vec<u64>,
    /// Requests late against `slo_ns`, failed or refused.
    pub slo_missed: u64,
}

impl Paced {
    /// Folds another round in.
    pub fn add(&mut self, o: Paced) {
        self.tally.add(&o.tally);
        self.latency_ns.extend(o.latency_ns);
        self.late_ns.extend(o.late_ns);
        self.slo_missed += o.slo_missed;
    }
}

/// Open loop at `rate` requests per second for `length`.
pub fn paced(ctx: Ctx, stream: &mut Stream, rate: f64, length: Duration, slo_ns: u64) -> Paced {
    let mut out = Paced::default();
    let (mut writer, mut reader) = match paced_connect(ctx.addr) {
        Ok(pair) => pair,
        Err(_) => {
            out.tally.sent = 1;
            out.tally.transport = 1;
            out.slo_missed = 1;
            return out;
        }
    };
    reader.set_timeout(Duration::from_secs(10));
    let (tx, rx) = mpsc::channel::<(Req, u64)>();
    let start = Instant::now();
    let start_ns = ctx.now_ns();
    let per_tick = rate / 1e3;
    let src = ctx.src;
    let (sent, late_ns, write_failed) = std::thread::scope(|scope| {
        let write = scope.spawn(move || {
            let mut late = Vec::new();
            let mut ts = Vec::new();
            let mut sent = 0u64;
            let mut tick = 0u64;
            loop {
                if start.elapsed() >= length {
                    return (sent, late, false);
                }
                // the arrival schedule: at every millisecond boundary, as
                // many requests as keep the running total at `rate`
                let due_ns = tick * 1_000_000;
                let due_count = ((tick + 1) as f64 * per_tick) as u64;
                while sent < due_count {
                    let req = stream.next().expect("streams are endless");
                    src.thresholds(&req, &mut ts);
                    let model = Some(TENANTS[req.tenant as usize]);
                    if writer.queue(model, src.x(req.obj), &ts).is_err() {
                        return (sent, late, true);
                    }
                    late.push((start.elapsed().as_nanos() as u64).saturating_sub(due_ns));
                    sent += 1;
                    if tx.send((req, due_ns)).is_err() {
                        return (sent, late, true);
                    }
                }
                if writer.flush().is_err() {
                    return (sent, late, true);
                }
                // a writer that fell behind sends the missed bursts back
                // to back, each still timed from its own boundary
                tick += 1;
                if let Some(wait) = Duration::from_millis(tick).checked_sub(start.elapsed()) {
                    std::thread::sleep(wait);
                }
            }
        });
        // replies come back in request order; the channel yields the
        // request each one answers
        let mut dead = false;
        for (req, due_ns) in rx {
            if dead {
                out.tally.transport += 1;
                out.slo_missed += 1;
                continue;
            }
            let reply = reader.read();
            let latency = ctx.now_ns().saturating_sub(start_ns + due_ns);
            dead = reply == Err(Fail::Transport);
            let ok_before = out.tally.ok;
            ctx.oracle.check(src, &req, reply, &mut out.tally);
            if !dead {
                out.latency_ns.push(latency);
            }
            if out.tally.ok == ok_before || latency > slo_ns {
                out.slo_missed += 1;
            }
        }
        write.join().expect("paced writer panicked")
    });
    out.tally.sent = sent;
    out.late_ns = late_ns;
    if write_failed {
        out.tally.transport += 1;
        out.slo_missed += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::tests::toy_source;

    fn oracle(src: &Source) -> Oracle {
        Oracle {
            rungs: (0..4u32)
                .map(|o| src.ladder(o).iter().map(|&t| f64::from(t) * 10.0).collect())
                .collect(),
            canonical: vec![(0..GRID).map(|i| i as f64).collect()],
            upper: 1_000.0,
            frozen: [true, false],
        }
    }

    #[test]
    fn checker_books_each_kind_of_failure_once() {
        let src = toy_source();
        let o = oracle(&src);
        let mut t = Tally::default();
        let rung = Req {
            tenant: 0,
            obj: 1,
            ts: Thresholds::Rung(3),
        };
        let good = o.rungs[1][3];
        o.check(&src, &rung, Ok(vec![good]), &mut t);
        assert_eq!((t.ok, t.bit_checked, t.rows), (1, 1, 1));
        o.check(&src, &rung, Ok(vec![good + 1e-9]), &mut t);
        assert_eq!(t.mismatched, 1);
        o.check(&src, &rung, Ok(vec![good, good]), &mut t);
        o.check(&src, &rung, Ok(vec![f64::NAN]), &mut t);
        o.check(&src, &rung, Ok(vec![-1.0]), &mut t);
        o.check(&src, &rung, Ok(vec![1e9]), &mut t);
        assert_eq!(t.malformed, 4);
        o.check(&src, &rung, Err(Fail::Refused), &mut t);
        o.check(&src, &rung, Err(Fail::Transport), &mut t);
        assert_eq!((t.refused, t.transport), (1, 1));
        // a tenant under retrain is not bit-checked, but Lemma 1 holds
        let ladder = Req {
            tenant: 1,
            obj: 1,
            ts: Thresholds::Ladder,
        };
        let mut up: Vec<f64> = (0..src.ladder(1).len()).map(|i| i as f64).collect();
        o.check(&src, &ladder, Ok(up.clone()), &mut t);
        assert_eq!((t.ok, t.bit_checked), (2, 2));
        up.swap(4, 5);
        o.check(&src, &ladder, Ok(up), &mut t);
        assert_eq!(t.non_monotone, 1);
        // objects beyond the oracle are shape-checked only
        let far = Req {
            tenant: 0,
            obj: 900,
            ts: Thresholds::Rung(0),
        };
        o.check(&src, &far, Ok(vec![5.0]), &mut t);
        assert_eq!((t.ok, t.bit_checked), (3, 2));
        assert_eq!(t.bad(), t.refused + t.failed());
        assert_eq!(t.failed(), 1 + 4 + 1 + 1);
    }
}
