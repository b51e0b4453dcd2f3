//! The traced run's outside-in layer ledger: time one public call into
//! each layer, on the workload's own requests, and keep the spans.

use crate::drive::TENANTS;
use crate::gen::{Req, Source, Stream, GRID};
use crate::layers::{self, Client, Fixture, Gemm, Stack};
use crate::spans::{self_time_by_name, SpanStore};
use crate::stats::median;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Requests `client.send_ns` buffers per timed burst: the shipped
/// client's default window, so no send has to wait for a reply.
const SEND_BURST: usize = 32;

/// Rows (estimates) a wave carries, the engine's default batch.
pub const WAVE_ROWS: usize = 64;

/// Metric values by name.
#[derive(Default)]
pub struct Values(BTreeMap<String, f64>);

impl Values {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.0.iter().map(|(k, v)| (k.as_str(), *v))
    }
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

fn time<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t = Instant::now();
    let out = std::hint::black_box(f());
    (out, ns(t.elapsed()))
}

/// Median nanoseconds of `reps` runs of `f`, after one untimed run.
fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..reps).map(|_| time(&mut f).1 as f64).collect();
    median(&samples)
}

/// What the ledger measures: a fixture, the stack serving it and the
/// request pool.
#[derive(Clone, Copy)]
pub struct Rig<'a> {
    pub fx: &'a Fixture,
    pub stack: &'a Stack,
    pub src: &'a Source,
}

/// One wave's requests with their thresholds expanded.
struct Wave {
    reqs: Vec<Req>,
    ts: Vec<Vec<f32>>,
}

impl Wave {
    fn cut(src: &Source, stream: &mut Stream) -> Wave {
        let mut wave = Wave {
            reqs: Vec::new(),
            ts: Vec::new(),
        };
        let mut rows = 0;
        loop {
            let req = stream.next().expect("streams are endless");
            let mut ts = Vec::new();
            src.thresholds(&req, &mut ts);
            let len = ts.len();
            rows += len;
            wave.reqs.push(req);
            wave.ts.push(ts);
            // stop when another request of this size would not fit
            if rows + len > WAVE_ROWS {
                return wave;
            }
        }
    }

    fn rows(&self) -> usize {
        self.ts.iter().map(Vec::len).sum()
    }
}

/// Walks waves down the stack until `budget` is spent (at least three,
/// at most 400): `wave` → `client.encode` → `protocol.decode` →
/// `registry.resolve` → `engine.roundtrip` → `core.batch` →
/// `index.indicator`, then the reply's `protocol.encode_resp` →
/// `client.decode`. Each call runs on its own; a deeper layer's span is
/// re-based under the call that contains it in the product.
pub fn walk(
    rig: Rig,
    mut stream: Stream,
    epoch: Instant,
    budget: Duration,
    store: &mut SpanStore,
    out: &mut Values,
) {
    let Rig { fx, stack, src } = rig;
    let started = Instant::now();
    let mut d: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut own: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let (mut active, mut flags_total) = (0usize, 0usize);
    let (mut req_bytes, mut resp_bytes, mut requests, mut rows_total) =
        (0usize, 0usize, 0usize, 0usize);
    let mut waves = 0u64;
    let mut flags = Vec::new();
    while waves < 3 || (started.elapsed() < budget && waves < 400) {
        waves += 1;
        let wave = Wave::cut(src, &mut stream);
        let n = wave.reqs.len();
        let rows = wave.rows();
        let model_of = |r: &Req| TENANTS[r.tenant as usize];
        let first = store.spans().len();
        let t0 = ns(epoch.elapsed());
        let mut at = t0;
        let root = store.push(0, waves, "wave", t0, t0);
        let mut step =
            |store: &mut SpanStore, parent: u64, name: &'static str, start: u64, dur: u64| {
                d.entry(name).or_default().push(dur as f64);
                store.push(parent, waves, name, start, start + dur)
            };

        let mut wire = Vec::new();
        let ((), dur) = time(|| {
            for (r, ts) in wave.reqs.iter().zip(&wave.ts) {
                layers::encode_request(Some(model_of(r)), src.x(r.obj), ts, &mut wire);
            }
        });
        step(store, root, "client.encode", at, dur);
        at += dur;
        req_bytes += wire.len();

        let (decoded, dur) = time(|| layers::decode_requests(&wire));
        assert_eq!(decoded, rows);
        step(store, root, "protocol.decode", at, dur);
        at += dur;

        let ((), dur) = time(|| {
            for r in &wave.reqs {
                assert!(stack.resolve(model_of(r)));
            }
        });
        step(store, root, "registry.resolve", at, dur);
        at += dur;

        let reqs: Vec<(&str, &[f32], &[f32])> = wave
            .reqs
            .iter()
            .zip(&wave.ts)
            .map(|(r, ts)| (model_of(r), src.x(r.obj), ts.as_slice()))
            .collect();
        let (replies, dur) = time(|| stack.roundtrip(&reqs));
        let engine = step(store, root, "engine.roundtrip", at, dur);

        let xs: Vec<&[f32]> = reqs
            .iter()
            .flat_map(|(_, x, ts)| std::iter::repeat_n(*x, ts.len()))
            .collect();
        let ts: Vec<f32> = wave.ts.iter().flatten().copied().collect();
        let (_, inner) = time(|| layers::estimate_batch(fx.model(), &xs, &ts));
        let core = step(store, engine, "core.batch", at, inner);
        let ((hit, total), inner) =
            time(|| layers::indicator_rows(fx.model(), &xs, &ts, &mut flags));
        step(store, core, "index.indicator", at, inner);
        active += hit;
        flags_total += total;
        at += dur;

        let mut wire = Vec::new();
        let ((), dur) = time(|| {
            for values in &replies {
                layers::encode_response(values, &mut wire);
            }
        });
        step(store, root, "protocol.encode_resp", at, dur);
        at += dur;
        resp_bytes += wire.len();
        let (decoded, dur) = time(|| layers::decode_responses(&wire));
        assert_eq!(decoded, rows);
        step(store, root, "client.decode", at, dur);
        at += dur;

        store.close(root, at);
        for (name, t) in self_time_by_name(&store.spans()[first..]) {
            own.entry(name).or_default().push(t as f64);
        }
        requests += n;
        rows_total += rows;
    }
    let per_req = requests as f64 / waves as f64;
    let per_wave_rows = rows_total as f64 / waves as f64;
    let med = |name: &str| median(d.get(name).map_or(&[][..], Vec::as_slice));
    let own_us = |name: &str| median(own.get(name).map_or(&[][..], Vec::as_slice)) / 1e3;
    out.set("walk.waves", waves as f64);
    out.set("protocol.encode_req_ns", med("client.encode") / per_req);
    out.set("protocol.decode_req_ns", med("protocol.decode") / per_req);
    out.set(
        "protocol.encode_resp_ns",
        med("protocol.encode_resp") / per_req,
    );
    out.set("protocol.decode_resp_ns", med("client.decode") / per_req);
    out.set("protocol.req_bytes", req_bytes as f64 / requests as f64);
    out.set("protocol.resp_bytes", resp_bytes as f64 / requests as f64);
    out.set("registry.resolve_ns", med("registry.resolve") / per_req);
    let batch = med("core.batch") / 1e3 / per_wave_rows;
    let indicator = med("index.indicator") / per_wave_rows;
    out.set("core.batch_us_per_row", batch);
    out.set("index.indicator_ns", indicator);
    out.set(
        "index.active_share",
        active as f64 / flags_total.max(1) as f64,
    );
    out.set("core.replay_us_per_row", batch - indicator / 1e3);
    let inproc = med("engine.roundtrip") / 1e3;
    out.set("engine.inproc_us_per_req", inproc / per_req);
    out.set("engine.overhead_us_per_row", inproc / per_wave_rows - batch);
    out.set(
        "walk.client_encode_self_us",
        own_us("client.encode") + own_us("client.decode"),
    );
    out.set(
        "walk.protocol_decode_self_us",
        own_us("protocol.decode") + own_us("protocol.encode_resp"),
    );
    out.set("walk.registry_resolve_self_us", own_us("registry.resolve"));
    out.set("walk.engine_self_us", own_us("engine.roundtrip"));
    out.set("walk.core_self_us", own_us("core.batch"));
    out.set("walk.index_self_us", own_us("index.indicator"));
}

/// Single calls that no wave contains: one estimate, one curve, one
/// distance, the first-layer GEMM, the client's buffered send, the
/// engine's two single-request paths, and a publish with the first reply
/// after it.
pub fn micro(rig: Rig, mut stream: Stream, out: &mut Values) {
    let Rig { fx, stack, src } = rig;
    let model = fx.model();
    let mut ts = Vec::new();
    let mut next = |ts: &mut Vec<f32>| {
        let req = stream.next().expect("streams are endless");
        src.thresholds(&req, ts);
        req
    };

    let samples: Vec<f64> = (0..30)
        .map(|_| {
            let req = next(&mut ts);
            time(|| layers::estimate(model, src.x(req.obj), ts[0])).1 as f64
        })
        .collect();
    out.set("core.estimate_us", median(&samples) / 1e3);

    let (lo, hi) = src.canonical();
    let grid: Vec<f32> = (0..GRID)
        .map(|i| lo + (hi - lo) * i as f32 / (GRID - 1) as f32)
        .collect();
    let samples: Vec<f64> = (0..15)
        .map(|_| {
            let req = next(&mut ts);
            time(|| layers::estimate_many(model, src.x(req.obj), &grid)).1 as f64
        })
        .collect();
    out.set("core.many_us_per_t", median(&samples) / 1e3 / GRID as f64);

    let pairs = 4_096.min(src.pool() - 1);
    let per_pass = median_ns(7, || {
        let mut acc = 0.0f32;
        for i in 0..pairs {
            acc += layers::sqdist(src.x(i as u32), src.x(i as u32 + 1));
        }
        std::hint::black_box(acc);
    });
    out.set("metric.sqdist_ns", per_pass / pairs as f64);

    let shape = fx.spec.gemm_shape();
    let mut gemm = Gemm::new(shape);
    let gemm_ns = median_ns(60, || gemm.run());
    out.set("tensor.gemm_ms", gemm_ns / 1e6);
    // computed, not counted: 2·m·k·n floating-point operations per call
    let flops = 2.0 * (shape.0 * shape.1 * shape.2) as f64;
    out.set("tensor.gemm_gflops", flops / gemm_ns);

    let tenant = TENANTS[0];
    if let Ok(mut client) = Client::connect(stack.addr(), SEND_BURST) {
        let samples: Vec<f64> = (0..20)
            .map(|_| {
                let reqs: Vec<(Req, Vec<f32>)> = (0..SEND_BURST)
                    .map(|_| {
                        let req = next(&mut ts);
                        (req, ts.clone())
                    })
                    .collect();
                let ((), dur) = time(|| {
                    for (req, ts) in &reqs {
                        client.send(0, Some(tenant), src.x(req.obj), ts).ok();
                    }
                });
                while client.pending() > 0 && client.recv().is_ok() {}
                dur as f64 / reqs.len() as f64
            })
            .collect();
        out.set("client.send_ns", median(&samples));
    }

    let samples: Vec<f64> = (0..40)
        .map(|_| {
            let req = next(&mut ts);
            time(|| stack.inline(tenant, src.x(req.obj), &ts)).1 as f64
        })
        .collect();
    out.set("engine.inline_us", median(&samples) / 1e3);
    let samples: Vec<f64> = (0..40)
        .map(|_| {
            let req = next(&mut ts);
            time(|| stack.roundtrip(&[(tenant, src.x(req.obj), &ts)])).1 as f64
        })
        .collect();
    out.set("engine.single_us", median(&samples) / 1e3);

    if let Ok(mut client) = Client::connect(stack.addr(), 1) {
        let (mut publish, mut visible) = (Vec::new(), Vec::new());
        for _ in 0..3 {
            let req = next(&mut ts);
            let (_, dur) = time(|| stack.republish(tenant));
            publish.push(dur as f64);
            // the first reply of a generation pays its plan compile
            let (_, dur) = time(|| client.ask(Some(tenant), src.x(req.obj), &ts));
            visible.push(dur as f64);
        }
        out.set("registry.publish_us", median(&publish) / 1e3);
        out.set("registry.swap_visible_ms", median(&visible) / 1e6);
    }
}
