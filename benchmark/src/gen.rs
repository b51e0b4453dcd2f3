//! Request generators: everything the serving stack is asked comes from
//! here, and everything here is a pure function of `--seed`.
//!
//! The generators see the fixture only as plain data (a [`Source`]): a
//! pool of query objects, a set of ascending threshold ladders and
//! `tmax`. A [`Stream`] turns that into an endless sequence of small
//! [`Req`] descriptors; [`Source::thresholds`] expands a descriptor into
//! the thresholds that go on the wire. Keeping the descriptor tiny lets
//! the open-loop writer hand it to the reader thread so the reader can
//! check the reply without re-deriving the request.

/// xoshiro256++ seeded through SplitMix64. The benchmark owns its RNG so
/// that a change to the repository's vendored `rand` cannot change the
/// traffic.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    pub fn new(seed: u64) -> Rng {
        let mut st = seed;
        Rng {
            s: [
                splitmix(&mut st),
                splitmix(&mut st),
                splitmix(&mut st),
                splitmix(&mut st),
            ],
        }
    }

    /// A generator for one named purpose: streams of different purposes
    /// (or lanes) never share a sequence.
    pub fn derive(seed: u64, purpose: &str, lane: u64) -> Rng {
        let mut h = seed ^ 0x5e1_4e7;
        for b in purpose.bytes() {
            h = splitmix(&mut h) ^ u64::from(b);
        }
        h ^= lane.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        Rng::new(splitmix(&mut h))
    }

    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Standard normal (Box–Muller).
    pub fn randn(&mut self) -> f32 {
        let u1 = self.unit().max(f64::MIN_POSITIVE);
        let u2 = self.unit();
        ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
    }
}

/// Thresholds per curve request: the paper's `w = 40`.
pub const GRID: usize = 40;
/// One request in this many re-asks its object's canonical grid (the
/// only curve requests whose `(x, ts)` can repeat exactly, and the only
/// ones with a pre-computed oracle).
pub const CANONICAL_EVERY: usize = 128;
/// One `small_update` request in this many carries the object's whole
/// ascending ladder, so Lemma 1 is checked on served replies while
/// generations turn over.
pub const LADDER_EVERY: usize = 16;
/// Zipf exponent of the curve workload's hot set.
pub const ZIPF_S: f64 = 1.1;

/// The request shapes of the four workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// One fresh object, one ladder threshold, one tenant.
    Point,
    /// One hot object (Zipf), a fresh ascending 40-threshold window.
    Curve,
    /// `Point` split over two tenants, one request in 16 a whole ladder.
    Update,
}

/// Which thresholds a request carries.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Thresholds {
    /// Rung `j` of the object's ladder.
    Rung(u16),
    /// The object's whole ladder, ascending.
    Ladder,
    /// `GRID` evenly spaced thresholds on `[lo, hi]`, ascending.
    Window { lo: f32, hi: f32 },
    /// The canonical window of the curve oracle.
    Canonical,
}

/// One request, small enough to copy around.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Req {
    /// Tenant index (0 = the first registered tenant).
    pub tenant: u8,
    /// Pool object.
    pub obj: u32,
    pub ts: Thresholds,
}

/// What the generators know about a fixture.
pub struct Source {
    pub dim: usize,
    /// Pool objects, row-major `pool × dim`.
    pub rows: Vec<f32>,
    /// Ladder index of every pool object.
    pub ladder_of: Vec<u32>,
    /// Ascending threshold ladders (the fixture's training thresholds).
    pub ladders: Vec<Vec<f32>>,
    pub tmax: f32,
    /// Size of the curve workload's hot set (a prefix of the pool).
    pub hot: usize,
    zipf_cdf: Vec<f64>,
}

impl Source {
    /// Builds the pool: every object is a template row plus Gaussian
    /// noise (so no two requests share an `x` unless a generator means
    /// them to), paired with one of the ladders. The pool belongs to the
    /// fixture — `pool_seed` is a constant of the benchmark — because what
    /// a request costs depends on its object: `--seed` decides which
    /// objects are asked, in what order and at which thresholds, not which
    /// objects exist.
    pub fn new(
        pool_seed: u64,
        dim: usize,
        templates: &[f32],
        ladders: Vec<Vec<f32>>,
        tmax: f32,
        pool: usize,
        hot: usize,
    ) -> Source {
        assert!(dim > 0 && templates.len() >= dim && !ladders.is_empty());
        let n = templates.len() / dim;
        let mut rng = Rng::derive(pool_seed, "pool", 0);
        let mut rows = Vec::with_capacity(pool * dim);
        let mut ladder_of = Vec::with_capacity(pool);
        for _ in 0..pool {
            let t = rng.below(n);
            rows.extend(
                templates[t * dim..(t + 1) * dim]
                    .iter()
                    .map(|&v| v + 0.05 * rng.randn()),
            );
            ladder_of.push(rng.below(ladders.len()) as u32);
        }
        let hot = hot.min(pool).max(1);
        let mut acc = 0.0;
        let mut zipf_cdf: Vec<f64> = (0..hot)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(ZIPF_S);
                acc
            })
            .collect();
        for c in &mut zipf_cdf {
            *c /= acc;
        }
        Source {
            dim,
            rows,
            ladder_of,
            ladders,
            tmax,
            hot,
            zipf_cdf,
        }
    }

    pub fn pool(&self) -> usize {
        self.ladder_of.len()
    }

    pub fn x(&self, obj: u32) -> &[f32] {
        let o = obj as usize;
        &self.rows[o * self.dim..(o + 1) * self.dim]
    }

    pub fn ladder(&self, obj: u32) -> &[f32] {
        &self.ladders[self.ladder_of[obj as usize] as usize]
    }

    /// The curve oracle's window.
    pub fn canonical(&self) -> (f32, f32) {
        (0.35 * self.tmax, 0.75 * self.tmax)
    }

    /// Expands a request's thresholds into `out` (cleared first).
    pub fn thresholds(&self, req: &Req, out: &mut Vec<f32>) {
        out.clear();
        match req.ts {
            Thresholds::Rung(j) => out.push(self.ladder(req.obj)[j as usize]),
            Thresholds::Ladder => out.extend_from_slice(self.ladder(req.obj)),
            Thresholds::Window { lo, hi } => window(lo, hi, out),
            Thresholds::Canonical => {
                let (lo, hi) = self.canonical();
                window(lo, hi, out)
            }
        }
    }

    fn zipf(&self, rng: &mut Rng) -> u32 {
        let u = rng.unit();
        self.zipf_cdf.partition_point(|&c| c < u).min(self.hot - 1) as u32
    }
}

fn window(lo: f32, hi: f32, out: &mut Vec<f32>) {
    let step = (hi - lo) / (GRID - 1) as f32;
    out.extend((0..GRID).map(|i| lo + step * i as f32));
}

/// One generator lane's endless request sequence. Lane `l` of `lanes`
/// walks the pool at stride `lanes` from a start the seed picks, so
/// together the lanes cycle through the whole pool before any object
/// comes round again: the reuse distance of an `x` is the pool size, far
/// beyond the reply cache.
pub struct Stream<'a> {
    src: &'a Source,
    shape: Shape,
    rng: Rng,
    cursor: usize,
    lanes: usize,
    count: usize,
}

impl<'a> Stream<'a> {
    pub fn new(
        src: &'a Source,
        shape: Shape,
        seed: u64,
        phase: &str,
        lane: usize,
        lanes: usize,
    ) -> Self {
        let lanes = lanes.max(1);
        // every lane of a phase starts from the same seed-picked object
        let start = Rng::derive(seed, phase, u64::MAX).below(src.pool()) / lanes * lanes;
        Stream {
            src,
            shape,
            rng: Rng::derive(seed, phase, lane as u64),
            cursor: start + lane,
            lanes,
            count: 0,
        }
    }

    fn fresh(&mut self) -> u32 {
        let obj = self.cursor % self.src.pool();
        self.cursor += self.lanes;
        obj as u32
    }

    fn rung(&mut self, obj: u32) -> Thresholds {
        Thresholds::Rung(self.rng.below(self.src.ladder(obj).len()) as u16)
    }
}

impl Iterator for Stream<'_> {
    type Item = Req;

    fn next(&mut self) -> Option<Req> {
        self.count += 1;
        Some(match self.shape {
            Shape::Point => {
                let obj = self.fresh();
                Req {
                    tenant: 0,
                    obj,
                    ts: self.rung(obj),
                }
            }
            Shape::Update => {
                let obj = self.fresh();
                let tenant = (self.rng.next_u64() & 1) as u8;
                let ts = if self.count.is_multiple_of(LADDER_EVERY) {
                    Thresholds::Ladder
                } else {
                    self.rung(obj)
                };
                Req { tenant, obj, ts }
            }
            Shape::Curve => {
                let obj = self.src.zipf(&mut self.rng);
                // range refinement: every repeat of a hot object asks a
                // window of its own, so the exact-(x, ts) reply cache
                // cannot answer it although x repeats all the time
                let lo = (0.2 + 0.4 * self.rng.unit()) as f32 * self.src.tmax;
                let hi = lo + (0.1 + 0.3 * self.rng.unit()) as f32 * self.src.tmax;
                let ts = if self.count.is_multiple_of(CANONICAL_EVERY) {
                    Thresholds::Canonical
                } else {
                    Thresholds::Window { lo, hi }
                };
                Req { tenant: 0, obj, ts }
            }
        })
    }
}

#[cfg(test)]
pub mod tests {
    use super::*;
    use std::collections::VecDeque;

    pub fn toy_source() -> Source {
        let dim = 6;
        let mut rng = Rng::new(99);
        let templates: Vec<f32> = (0..200 * dim).map(|_| rng.randn()).collect();
        let ladders: Vec<Vec<f32>> = (0..30)
            .map(|i| {
                (1..=20)
                    .map(|j| 0.1 * j as f32 + 0.001 * i as f32)
                    .collect()
            })
            .collect();
        Source::new(1, dim, &templates, ladders, 3.0, 4096, 512)
    }

    /// The wire bytes of the first `n` requests of a stream.
    fn wire(seed: u64, shape: Shape, n: usize) -> Vec<u8> {
        let src = toy_source();
        let mut out = Vec::new();
        let mut ts = Vec::new();
        for req in Stream::new(&src, shape, seed, "sat", 0, 2).take(n) {
            src.thresholds(&req, &mut ts);
            out.push(req.tenant);
            out.extend(src.x(req.obj).iter().flat_map(|v| v.to_le_bytes()));
            out.extend(ts.iter().flat_map(|v| v.to_le_bytes()));
        }
        out
    }

    #[test]
    fn streams_repeat_for_equal_seed_and_differ_across_seeds() {
        for shape in [Shape::Point, Shape::Curve, Shape::Update] {
            assert_eq!(wire(7, shape, 500), wire(7, shape, 500), "{shape:?}");
            assert_ne!(wire(7, shape, 500), wire(8, shape, 500), "{shape:?}");
        }
    }

    #[test]
    fn lanes_and_phases_do_not_share_a_sequence() {
        let src = toy_source();
        let a: Vec<Req> = Stream::new(&src, Shape::Curve, 3, "sat", 0, 2)
            .take(50)
            .collect();
        let b: Vec<Req> = Stream::new(&src, Shape::Curve, 3, "sat", 1, 2)
            .take(50)
            .collect();
        let c: Vec<Req> = Stream::new(&src, Shape::Curve, 3, "solo", 0, 2)
            .take(50)
            .collect();
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    /// Exact `(x, ts)` repeats within the reach of a 512-entry LRU stay
    /// under 1 % on the curve workload, while the objects themselves
    /// repeat constantly.
    #[test]
    fn curve_stream_repeats_objects_not_requests() {
        let src = toy_source();
        let reach = 512;
        let n = 20_000;
        let mut recent: VecDeque<(u32, Vec<u32>)> = VecDeque::new();
        let mut exact = 0usize;
        let mut distinct = std::collections::BTreeSet::new();
        let mut ts = Vec::new();
        for req in Stream::new(&src, Shape::Curve, 11, "sat", 0, 1).take(n) {
            src.thresholds(&req, &mut ts);
            assert_eq!(ts.len(), GRID);
            assert!(ts.windows(2).all(|w| w[0] < w[1]), "grid ascends");
            assert!(*ts.last().unwrap() <= src.tmax);
            let key = (req.obj, ts.iter().map(|t| t.to_bits()).collect::<Vec<_>>());
            if recent.contains(&key) {
                exact += 1;
            }
            recent.push_back(key);
            if recent.len() > reach {
                recent.pop_front();
            }
            distinct.insert(req.obj);
        }
        assert!((exact as f64) < 0.01 * n as f64, "{exact} exact repeats");
        assert!((distinct.len() as f64) < 0.05 * n as f64);
    }

    #[test]
    fn point_stream_never_reuses_an_object_within_the_pool() {
        let src = toy_source();
        let mut a = Stream::new(&src, Shape::Point, 5, "sat", 0, 2);
        let mut b = Stream::new(&src, Shape::Point, 5, "sat", 1, 2);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..src.pool() / 2 {
            assert!(seen.insert(a.next().unwrap().obj));
            assert!(seen.insert(b.next().unwrap().obj));
        }
        assert_eq!(seen.len(), src.pool());
    }

    #[test]
    fn zipf_prefers_the_head() {
        let src = toy_source();
        let mut rng = Rng::new(4);
        let n = 50_000;
        let head = (0..n).filter(|_| src.zipf(&mut rng) < 8).count();
        assert!(head as f64 > 0.3 * n as f64, "head share {head}/{n}");
    }
}
