//! Step-counted drift schedules for §5.4 update streams (`repro fig5`'s
//! drift table, `fig5_drift.csv`).
//!
//! A [`DriftSchedule`] is a *pure function of the operation index*: given
//! op `i` it yields the [`DriftStep`] the simulator applies for that
//! operation. There is no wall clock and no RNG inside a schedule — all
//! randomness lives in the seeded [`crate::UpdateSimulator`] — so the
//! same schedule and seed replay bit-for-bit at any scale.
//!
//! Four families cover the drift taxonomy:
//!
//! * **Gradual** — the insertion distribution slides along a fixed
//!   direction at a constant per-op rate (slow covariate drift).
//! * **Abrupt** — the shift is zero until `at_op`, then jumps to a fixed
//!   offset (schema-change / hot-key flip).
//! * **Cyclical** — the shift oscillates sinusoidally along a direction
//!   (diurnal load patterns).
//! * **Adversarial** — inserts land on a thin distance *shell* around a
//!   probe center, with the shell radius wandering over time. Mass
//!   concentrated at exact distance `r` from a query makes the true
//!   selectivity surface jump sharply at threshold `t = r` — the inverse
//!   construction of "Computing Data Distribution from Query
//!   Selectivities" (arXiv:2401.06047) — which is the worst case for a
//!   monotone regressor's knee placement.

/// Where one synthesized insertion should be placed.
#[derive(Clone, Debug, PartialEq)]
pub enum Placement {
    /// Sample a template record uniformly from the dataset and add this
    /// per-dimension offset (on top of the simulator's Gaussian noise).
    /// A zero vector reproduces the legacy un-drifted stream exactly.
    Shifted(Vec<f32>),
    /// Place the record on a thin shell: `center + radius * u` for a
    /// uniformly random unit direction `u` (plus a sliver of noise so the
    /// shell has nonzero thickness).
    Shell {
        /// Shell center — typically a query the stream is scored on.
        center: Vec<f32>,
        /// Shell radius; the true selectivity surface of queries near
        /// `center` develops a knee at this threshold.
        radius: f32,
    },
}

/// What the simulator should do for one operation: the insert/delete mix,
/// the noise scale, and where insertions land.
#[derive(Clone, Debug, PartialEq)]
pub struct DriftStep {
    /// Probability this operation is an insertion.
    pub insert_prob: f64,
    /// Gaussian noise scale for synthesized records.
    pub noise: f32,
    /// Placement rule for insertions.
    pub placement: Placement,
}

/// The shape of a drift trajectory over operation indices.
#[derive(Clone, Debug, PartialEq)]
pub enum DriftFamily {
    /// Shift grows linearly: `direction * rate * op`.
    Gradual {
        /// Unit direction of the drift in data space.
        direction: Vec<f32>,
        /// Shift magnitude added per operation.
        rate: f32,
    },
    /// Shift is zero before `at_op` and `direction * jump` from then on.
    Abrupt {
        /// Unit direction of the drift in data space.
        direction: Vec<f32>,
        /// Shift magnitude after the jump.
        jump: f32,
        /// Operation index at which the jump happens.
        at_op: usize,
    },
    /// Shift oscillates: `direction * amplitude * sin(2π op / period)`.
    Cyclical {
        /// Unit direction of the drift in data space.
        direction: Vec<f32>,
        /// Peak shift magnitude.
        amplitude: f32,
        /// Operations per full oscillation.
        period_ops: usize,
    },
    /// Inserts land on a distance shell around `center`; the radius sweeps
    /// a triangle wave between `r_min` and `r_max` over `period_ops`.
    Adversarial {
        /// Probe center the shell surrounds.
        center: Vec<f32>,
        /// Smallest shell radius.
        r_min: f32,
        /// Largest shell radius.
        r_max: f32,
        /// Operations for one full `r_min → r_max → r_min` sweep.
        period_ops: usize,
    },
}

/// A complete step-counted drift scenario: op-mix knobs plus a
/// [`DriftFamily`] trajectory. Evaluate with [`DriftSchedule::at`].
#[derive(Clone, Debug, PartialEq)]
pub struct DriftSchedule {
    /// Probability each operation is an insertion. Defaults to 0.7 —
    /// insert-biased, since the insertion flow is what drags the
    /// distribution toward the schedule's target.
    pub insert_prob: f64,
    /// Gaussian noise scale for synthesized records.
    pub noise: f32,
    /// The drift trajectory.
    pub family: DriftFamily,
}

impl DriftSchedule {
    /// Wraps a family with the default op-mix knobs (insert-biased 0.7,
    /// noise 0.05 as in the paper's update setting).
    pub fn new(family: DriftFamily) -> Self {
        DriftSchedule {
            insert_prob: 0.7,
            noise: 0.05,
            family,
        }
    }

    /// Gradual drift along `unit_direction(dim, seed)` at `rate` per op.
    pub fn gradual(dim: usize, seed: u64, rate: f32) -> Self {
        DriftSchedule::new(DriftFamily::Gradual {
            direction: unit_direction(dim, seed),
            rate,
        })
    }

    /// Abrupt jump of magnitude `jump` at operation `at_op`.
    pub fn abrupt(dim: usize, seed: u64, jump: f32, at_op: usize) -> Self {
        DriftSchedule::new(DriftFamily::Abrupt {
            direction: unit_direction(dim, seed),
            jump,
            at_op,
        })
    }

    /// Sinusoidal drift of peak magnitude `amplitude`, one full cycle
    /// every `period_ops` operations.
    pub fn cyclical(dim: usize, seed: u64, amplitude: f32, period_ops: usize) -> Self {
        DriftSchedule::new(DriftFamily::Cyclical {
            direction: unit_direction(dim, seed),
            amplitude,
            period_ops,
        })
    }

    /// Adversarial shell drift around `center`, radius sweeping
    /// `[r_min, r_max]` every `period_ops` operations.
    pub fn adversarial(center: Vec<f32>, r_min: f32, r_max: f32, period_ops: usize) -> Self {
        DriftSchedule::new(DriftFamily::Adversarial {
            center,
            r_min,
            r_max,
            period_ops,
        })
    }

    /// Short family label for reports (`gradual` / `abrupt` / `cyclical` /
    /// `adversarial`).
    pub fn label(&self) -> &'static str {
        match self.family {
            DriftFamily::Gradual { .. } => "gradual",
            DriftFamily::Abrupt { .. } => "abrupt",
            DriftFamily::Cyclical { .. } => "cyclical",
            DriftFamily::Adversarial { .. } => "adversarial",
        }
    }

    /// The [`DriftStep`] for operation `op`. Pure: same `(self, op)` →
    /// same step, always.
    pub fn at(&self, op: usize) -> DriftStep {
        let placement = match &self.family {
            DriftFamily::Gradual { direction, rate } => {
                let m = rate * op as f32;
                Placement::Shifted(direction.iter().map(|&d| d * m).collect())
            }
            DriftFamily::Abrupt {
                direction,
                jump,
                at_op,
            } => {
                let m = if op >= *at_op { *jump } else { 0.0 };
                Placement::Shifted(direction.iter().map(|&d| d * m).collect())
            }
            DriftFamily::Cyclical {
                direction,
                amplitude,
                period_ops,
            } => {
                let phase =
                    2.0 * std::f32::consts::PI * (op % period_ops) as f32 / *period_ops as f32;
                let m = amplitude * phase.sin();
                Placement::Shifted(direction.iter().map(|&d| d * m).collect())
            }
            DriftFamily::Adversarial {
                center,
                r_min,
                r_max,
                period_ops,
            } => {
                // triangle wave: r_min → r_max over the first half-period,
                // back down over the second
                let phase = (op % period_ops) as f32 / *period_ops as f32;
                let tri = 1.0 - (2.0 * phase - 1.0).abs();
                Placement::Shell {
                    center: center.clone(),
                    radius: r_min + (r_max - r_min) * tri,
                }
            }
        };
        DriftStep {
            insert_prob: self.insert_prob,
            noise: self.noise,
            placement,
        }
    }
}

/// A deterministic unit vector in `dim` dimensions derived from `seed` by
/// SplitMix64 + Box–Muller — drift directions are reproducible without
/// consuming any simulator RNG.
pub fn unit_direction(dim: usize, seed: u64) -> Vec<f32> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut v: Vec<f32> = (0..dim)
        .map(|_| {
            let u1 = ((next() >> 11) as f64 / (1u64 << 53) as f64).max(f64::MIN_POSITIVE);
            let u2 = (next() >> 11) as f64 / (1u64 << 53) as f64;
            ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
        })
        .collect();
    let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-12);
    for x in &mut v {
        *x /= norm;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_pure_in_op_index() {
        let s = DriftSchedule::cyclical(6, 3, 0.4, 16);
        for op in [0, 1, 7, 15, 16, 100] {
            assert_eq!(s.at(op), s.at(op), "op {op} not pure");
        }
    }

    #[test]
    fn gradual_shift_grows_linearly() {
        let s = DriftSchedule::gradual(4, 1, 0.01);
        let norm = |p: &Placement| match p {
            Placement::Shifted(v) => v.iter().map(|x| x * x).sum::<f32>().sqrt(),
            _ => panic!("expected shifted placement"),
        };
        let a = norm(&s.at(10).placement);
        let b = norm(&s.at(20).placement);
        assert!((a - 0.1).abs() < 1e-5, "rate*op mismatch: {a}");
        assert!((b - 2.0 * a).abs() < 1e-5, "not linear: {a} vs {b}");
    }

    #[test]
    fn abrupt_shift_is_step_function() {
        let s = DriftSchedule::abrupt(4, 2, 0.5, 8);
        assert_eq!(s.at(0).placement, Placement::Shifted(vec![0.0; 4]));
        assert_eq!(s.at(7).placement, Placement::Shifted(vec![0.0; 4]));
        let after = match s.at(8).placement {
            Placement::Shifted(v) => v.iter().map(|x| x * x).sum::<f32>().sqrt(),
            _ => panic!("expected shifted placement"),
        };
        assert!((after - 0.5).abs() < 1e-5, "jump magnitude {after}");
        assert_eq!(s.at(8), s.at(9999), "post-jump shift must be constant");
    }

    #[test]
    fn adversarial_radius_sweeps_triangle() {
        let s = DriftSchedule::adversarial(vec![0.0; 3], 0.2, 1.0, 10);
        let radius = |op| match s.at(op).placement {
            Placement::Shell { radius, .. } => radius,
            _ => panic!("expected shell placement"),
        };
        assert!((radius(0) - 0.2).abs() < 1e-6);
        assert!((radius(5) - 1.0).abs() < 1e-6, "mid-period peak");
        assert!((radius(10) - 0.2).abs() < 1e-6, "period wraps");
        assert!(radius(2) < radius(4), "rising edge");
        assert!(radius(6) > radius(8), "falling edge");
    }

    #[test]
    fn unit_direction_is_normalized_and_seeded() {
        let a = unit_direction(16, 7);
        let b = unit_direction(16, 7);
        let c = unit_direction(16, 8);
        assert_eq!(a, b, "same seed must give same direction");
        assert_ne!(a, c, "different seeds should differ");
        let norm = a.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-4, "norm {norm}");
    }
}
