//! Property tests pinning the **one evaluation path** against the
//! untouched tape oracles: for randomly drawn data seeds, partition
//! counts, methods and τ variants, `estimate_into` over random ragged
//! query sets (empty grids, single thresholds, 40-point grids, repeated
//! query objects) produces exactly the bits of `tape_predict_many` /
//! `tape_predict_batch` and of per-query `estimate_many`, at every thread
//! count — before a retrain, after a §5.4 `check_and_update` retrain
//! (plan cache invalidated by the parameter-version bump), and after a
//! snapshot round-trip.

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use selnet_core::{
    fit, fit_partitioned, PartitionConfig, PartitionedSelNet, SelNetConfig, TauNormalization,
    UpdatePolicy,
};
use selnet_data::generators::{fasttext_like, GeneratorConfig};
use selnet_data::Dataset;
use selnet_eval::SelectivityEstimator;
use selnet_index::PartitionMethod;
use selnet_metric::DistanceKind;
use selnet_tensor::pwl_interp_row;
use selnet_workload::{generate_workload, Workload, WorkloadConfig};

/// The network variants every `repro` experiment's `SelNetConfig` is drawn
/// from: τ shared or query-dependent, normalized by `Norml2` or softmax.
fn net_config(seed: u64, query_dependent: usize, softmax: usize) -> SelNetConfig {
    SelNetConfig {
        epochs: 1,
        ae_pretrain_epochs: 1,
        seed,
        query_dependent_tau: query_dependent == 1,
        tau_normalization: if softmax == 1 {
            TauNormalization::Softmax
        } else {
            TauNormalization::Norml2
        },
        ..SelNetConfig::tiny()
    }
}

fn fixture(seed: u64) -> (Dataset, Workload) {
    let ds = fasttext_like(&GeneratorConfig::new(150, 4, 2, seed));
    let mut wcfg = WorkloadConfig::new(10, DistanceKind::Euclidean, seed ^ 3);
    wcfg.thresholds_per_query = 5;
    let w = generate_workload(&ds, &wcfg);
    (ds, w)
}

/// A ragged wave over the workload's query objects: each query draws an
/// empty grid, one threshold, its labelled ladder or a 40-point grid that
/// starts below zero and ends past `tmax`; objects repeat.
fn ragged_wave(w: &Workload, seed: u64) -> Vec<(Vec<f32>, Vec<f32>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let pool: Vec<_> = w.test.iter().chain(&w.valid).collect();
    (0..24)
        .map(|_| {
            let q = pool[rng.gen_range(0..pool.len())];
            let ts = match rng.gen_range(0..4) {
                0 => Vec::new(),
                1 => vec![rng.gen_range(0.0..w.tmax)],
                2 => q.thresholds.clone(),
                _ => (0..40).map(|i| w.tmax * (i as f32 / 32.0 - 0.1)).collect(),
            };
            (q.x.clone(), ts)
        })
        .collect()
}

fn wave_at<M: SelectivityEstimator>(
    model: &M,
    queries: &[(&[f32], &[f32])],
    threads: usize,
) -> Vec<f64> {
    let mut out = vec![f64::NAN; 3]; // stale contents must be cleared
    model.estimate_into(queries, threads, &mut out);
    out
}

fn assert_one_path(model: &PartitionedSelNet, w: &Workload, seed: u64, label: &str) {
    let wave = ragged_wave(w, seed);
    let queries: Vec<(&[f32], &[f32])> = wave
        .iter()
        .map(|(x, ts)| (x.as_slice(), ts.as_slice()))
        .collect();
    let exact = wave_at(model, &queries, 1);

    // the tape oracles: one query at many thresholds, and the flattened
    // (x, t) rows in one batch
    let tape: Vec<f64> = queries
        .iter()
        .flat_map(|&(x, ts)| model.tape_predict_many(x, ts))
        .collect();
    assert_eq!(exact, tape, "{label}: wave vs tape_predict_many");
    let (xs, ts): (Vec<&[f32]>, Vec<f32>) = queries
        .iter()
        .flat_map(|&(x, ts)| ts.iter().map(move |&t| (x, t)))
        .unzip();
    assert_eq!(
        exact,
        model.tape_predict_batch(&xs, &ts),
        "{label}: wave vs tape_predict_batch"
    );

    // the conveniences are the same path
    let per_query: Vec<f64> = queries
        .iter()
        .flat_map(|&(x, ts)| model.estimate_many(x, ts))
        .collect();
    assert_eq!(exact, per_query, "{label}: wave vs estimate_many");
    assert_eq!(
        exact,
        model.estimate_batch(&xs, &ts),
        "{label}: wave vs estimate_batch"
    );
    assert_eq!(wave_at(model, &[], 4), Vec::<f64>::new());

    // threads never change a bit
    for threads in [2usize, 4, 8] {
        assert_eq!(
            exact,
            wave_at(model, &queries, threads),
            "{label}: at {threads} threads"
        );
    }

    // local estimates: the indicator-masked sum of the per-part values
    // equals the global estimate bit for bit
    for &(x, ts) in &queries {
        let Some(&t) = ts.last() else { continue };
        let locals = model.local_estimates(x, t);
        assert_eq!(locals.len(), model.k(), "{label}: local_estimates arity");
        let expected: f64 = locals
            .iter()
            .zip(model.partitioning().indicator(x, t))
            .map(|(&l, on)| if on { l } else { 0.0 })
            .sum();
        assert_eq!(
            model.estimate(x, t).to_bits(),
            expected.to_bits(),
            "{label}: local/global sum"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Partitioned model: the one hook matches the tape bit for bit —
    /// including after a retrain (version-keyed recompile) and after a
    /// snapshot round-trip (fresh plan cell).
    #[test]
    fn partitioned_plan_paths_are_bit_identical(
        seed in 0u64..1000,
        k in 1usize..4,
        method_tag in 0usize..3,
        query_dependent in 0usize..2,
        softmax in 0usize..2,
    ) {
        let method = match method_tag {
            0 => PartitionMethod::CoverTree { ratio: 0.1 },
            1 => PartitionMethod::Random,
            _ => PartitionMethod::KMeans,
        };
        let (ds, w) = fixture(seed);
        let cfg = net_config(seed, query_dependent, softmax);
        let pcfg = PartitionConfig { k, method, pretrain_epochs: 1, beta: 0.1 };
        let (mut model, _) = fit_partitioned(&ds, &w, &cfg, &pcfg);

        assert_one_path(&model, &w, seed, "fresh");

        // §5.4 retrain mutates the store; the version bump must invalidate
        // the cached plans so post-retrain predictions still match the tape
        let policy = UpdatePolicy { mae_tolerance: -1.0, patience: 1, max_epochs: 1 };
        let decision = model.check_and_update(&ds, w.kind, &w.train, &w.valid, &policy);
        prop_assert!(decision.retrained(), "negative tolerance must retrain");
        assert_one_path(&model, &w, seed ^ 1, "after retrain");

        // snapshot round-trip: the loaded model compiles its own plan and
        // must agree with the original bit for bit
        let mut buf = Vec::new();
        model.save(&mut buf).expect("save");
        let loaded = PartitionedSelNet::load(&mut buf.as_slice()).expect("load");
        assert_one_path(&loaded, &w, seed ^ 2, "after snapshot round-trip");
        for q in &w.test {
            prop_assert_eq!(
                loaded.predict_many(&q.x, &q.thresholds),
                model.predict_many(&q.x, &q.thresholds)
            );
        }
    }

    /// Single model (`fit`, `K = 1`): the hook, `predict_many` and
    /// `control_points_for` ride one plan and match the tape bit for bit,
    /// for every τ variant — the estimate being the model's one curve
    /// interpolated, with no indicator in the way.
    #[test]
    fn single_model_plan_paths_are_bit_identical(
        seed in 0u64..1000,
        query_dependent in 0usize..2,
        softmax in 0usize..2,
    ) {
        let (ds, w) = fixture(seed ^ 0x51);
        let (model, _) = fit(&ds, &w, &net_config(seed, query_dependent, softmax));
        prop_assert_eq!(model.k(), 1);
        assert_one_path(&model, &w, seed, "single");
        for (x, ts) in ragged_wave(&w, seed) {
            let curves = model.control_points_for(&x);
            prop_assert_eq!(curves.len(), 1);
            let (tau, p) = &curves[0];
            let interpolated: Vec<f64> =
                ts.iter().map(|&t| pwl_interp_row(tau, p, t) as f64).collect();
            prop_assert_eq!(interpolated, model.tape_predict_many(&x, &ts));
        }
    }
}
