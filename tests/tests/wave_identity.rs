//! Wave identity of every trained model: a held-out split asked as one
//! `estimate_into` wave answers, bit for bit, what its queries asked one
//! by one through `estimate_many` answer — the promise of
//! `SelectivityEstimator::estimate_into` that the one-pass waves of the
//! neural baselines and RMI (one forward over a wave's stacked `(x, t)`
//! rows) must keep.
//!
//! Every model `harness::train_model` builds is checked on fasttext-l2 and
//! fasttext-cos at a small scale, and again at d 300, where a wave of
//! 2 000 rows is large enough for the forward's first product to split
//! its rows across workers (`FORK_MIN_WORK`). Release only, like the pins:
//! the d 300 models train in seconds on optimized code.

use selnet_bench::harness::{build_setting, neural_config, train_model, ModelKind, Scale, Setting};
use selnet_eval::SelectivityEstimator;
use selnet_tensor::parallel::FORK_MIN_WORK;
use selnet_workload::LabeledQuery;

/// Every model kind `train_model` builds.
fn every_kind() -> Vec<ModelKind> {
    let mut kinds = ModelKind::comparison_set();
    kinds.extend([ModelKind::SelNetCt, ModelKind::SelNetAdCt]);
    kinds
}

/// Asserts `split` asked as one wave equals its queries asked one by one.
fn assert_wave_is_per_query(model: &dyn SelectivityEstimator, split: &[LabeledQuery]) {
    let wave: Vec<_> = split.iter().map(LabeledQuery::query).collect();
    let mut got = Vec::new();
    model.estimate_into(&wave, &mut got);
    let want = split
        .iter()
        .flat_map(|q| model.estimate_many(&q.x, &q.thresholds));
    let bits = |e: f64| e.to_bits();
    assert!(
        got.iter().copied().map(bits).eq(want.map(bits)),
        "{}: the wave differs from its queries asked one by one",
        model.name()
    );
}

/// Trains every model that applies to `setting` at `scale` and checks its
/// wave over the held-out split; returns the names checked and the
/// split's row count.
fn check_every_model(setting: Setting, scale: &Scale) -> (Vec<String>, usize) {
    let (ds, w) = build_setting(setting, scale);
    let names = every_kind()
        .into_iter()
        .filter_map(|kind| train_model(kind, &ds, &w, scale))
        .map(|m| {
            assert_wave_is_per_query(m.as_ref(), &w.test);
            m.name().to_string()
        })
        .collect();
    let rows = w.test.iter().map(|q| q.thresholds.len()).sum();
    (names, rows)
}

fn small_scale() -> Scale {
    Scale {
        n: 600,
        dim: 6,
        clusters: 3,
        queries: 40,
        w: 6,
        epochs: 2,
        ..Scale::quick()
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn every_model_answers_a_wave_as_its_queries_on_l2() {
    let (names, _) = check_every_model(Setting::FasttextL2, &small_scale());
    assert_eq!(
        names.len(),
        every_kind().len() - 1,
        "all but LSH: {names:?}"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn every_model_answers_a_wave_as_its_queries_on_cosine() {
    let (names, _) = check_every_model(Setting::FasttextCos, &small_scale());
    assert_eq!(names.len(), every_kind().len(), "every model: {names:?}");
}

/// d 300: 100 held-out queries of 20 thresholds, one wave of 2 000 rows.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn a_forking_d300_wave_answers_as_its_queries() {
    let scale = Scale {
        n: 2_000,
        dim: 300,
        clusters: 4,
        queries: 1_000,
        w: 20,
        epochs: 1,
        ..Scale::quick()
    };
    let (names, rows) = check_every_model(Setting::FasttextCos, &scale);
    assert_eq!(names.len(), every_kind().len(), "every model: {names:?}");
    // the first product of the DNN's forward, `[x; emb(t)]` times its
    // first layer, has work enough for at least two workers
    let ncfg = neural_config(&scale);
    let first_product = rows * (scale.dim + ncfg.t_embed) * ncfg.hidden[0];
    assert!(
        first_product >= 2 * FORK_MIN_WORK,
        "{rows} rows give {first_product} multiply-adds, below two workers' gate"
    );
}
