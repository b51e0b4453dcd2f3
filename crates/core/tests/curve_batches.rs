//! Training batches are curves — the differential test. The same labelled
//! objects are fed to a model's training objective three ways: as they are
//! (one network row per object, `gather_rows` out to one row per
//! threshold); with every `(x, t)` pair written out as an object of its
//! own, which is the pair batch training used to assemble (one network row
//! per pair); and one pair at a time, each on a tape of its own, where
//! nothing is gathered, indexed or weighted — the oracle, since a batch's
//! objective is by definition the mean of its pairs'. Loss and every
//! parameter gradient must agree to rounding — for the single model
//! (`fit`, `K = 1`) and a three-part one, τ query-dependent and shared
//! (the one-row τ that is broadcast, never gathered), on full, ragged and
//! empty threshold ladders.

use selnet_core::{fit, fit_partitioned, PartitionConfig, PartitionedSelNet, SelNetConfig};
use selnet_data::generators::{fasttext_like, GeneratorConfig};
use selnet_data::Dataset;
use selnet_index::PartitionMethod;
use selnet_metric::DistanceKind;
use selnet_tensor::{Graph, ParamId, Var};
use selnet_workload::{
    generate_workload, label_partitions, LabeledQuery, Workload, WorkloadConfig,
};

/// Eight training objects of five thresholds each: with `tiny()`'s ten
/// control points the shape on which a gathered one-row τ first failed
/// (`matmul shape mismatch: 40x8 * 1x10`).
fn fixture() -> (Dataset, Workload) {
    let ds = fasttext_like(&GeneratorConfig::new(150, 4, 2, 5));
    let mut wcfg = WorkloadConfig::new(10, DistanceKind::Euclidean, 6);
    wcfg.thresholds_per_query = 5;
    let w = generate_workload(&ds, &wcfg);
    assert_eq!(w.train.len(), 8);
    (ds, w)
}

fn net_config(query_dependent_tau: bool) -> SelNetConfig {
    SelNetConfig {
        epochs: 1,
        ae_pretrain_epochs: 1,
        query_dependent_tau,
        ..SelNetConfig::tiny()
    }
}

/// Object `i` keeps its first `keep(i)` thresholds.
fn cut(objects: &[LabeledQuery], keep: impl Fn(usize) -> usize) -> Vec<LabeledQuery> {
    objects
        .iter()
        .enumerate()
        .map(|(i, q)| LabeledQuery {
            x: q.x.clone(),
            thresholds: q.thresholds[..keep(i)].to_vec(),
            selectivities: q.selectivities[..keep(i)].to_vec(),
        })
        .collect()
}

/// The three ladders every case runs on: all five thresholds; one to five
/// of them; and the same with objects 2 and 7 left with none.
fn ladders(objects: &[LabeledQuery]) -> Vec<(&'static str, Vec<LabeledQuery>)> {
    vec![
        ("full", objects.to_vec()),
        ("ragged", cut(objects, |i| 1 + (i * 3) % 5)),
        (
            "ragged with empty objects",
            cut(objects, |i| if i == 2 || i == 7 { 0 } else { 1 + i % 5 }),
        ),
    ]
}

/// Every `(x, t, y)` of `objects` as an object of its own, in order.
fn pair_rows(objects: &[LabeledQuery]) -> Vec<LabeledQuery> {
    objects
        .iter()
        .flat_map(|q| {
            q.thresholds
                .iter()
                .zip(&q.selectivities)
                .map(|(&t, &y)| LabeledQuery {
                    x: q.x.clone(),
                    thresholds: vec![t],
                    selectivities: vec![y],
                })
        })
        .collect()
}

type LossAndGrads = (f64, Vec<(ParamId, Vec<f64>)>);

/// Loss value and parameter gradients of a recorded objective.
fn loss_and_grads(record: impl FnOnce(&mut Graph) -> Var) -> LossAndGrads {
    let mut g = Graph::new();
    let loss = record(&mut g);
    g.backward(loss);
    let grads = g
        .param_grads()
        .into_iter()
        .map(|(id, m)| (id, m.data().iter().map(|&v| v as f64).collect()))
        .collect();
    (g.value(loss).get(0, 0) as f64, grads)
}

/// The oracle: `record(j)` is pair `j`'s objective on its own tape; a
/// batch's loss and gradients are their means.
fn mean_over_pairs(pairs: usize, record: impl Fn(usize, &mut Graph) -> Var) -> LossAndGrads {
    let (mut loss, mut grads) = loss_and_grads(|g| record(0, g));
    for j in 1..pairs {
        let (l, gs) = loss_and_grads(|g| record(j, g));
        loss += l;
        for ((id, acc), (id_j, g)) in grads.iter_mut().zip(&gs) {
            assert_eq!(id, id_j);
            acc.iter_mut().zip(g).for_each(|(a, b)| *a += b);
        }
    }
    let n = pairs as f64;
    grads
        .iter_mut()
        .for_each(|(_, g)| g.iter_mut().for_each(|v| *v /= n));
    (loss / n, grads)
}

fn assert_agree(label: &str, got: &LossAndGrads, want: &LossAndGrads) {
    let ((loss, grads), (want_loss, want_grads)) = (got, want);
    assert!(loss.is_finite() && *loss > 0.0, "{label}: loss {loss}");
    assert!(
        (loss - want_loss).abs() <= 1e-5 * want_loss.abs(),
        "{label}: loss {loss}, pair by pair {want_loss}"
    );
    assert_eq!(grads.len(), want_grads.len(), "{label}");
    let mut nonzero = 0;
    for ((id, g), (want_id, want_g)) in grads.iter().zip(want_grads) {
        assert_eq!(id, want_id, "{label}");
        assert_eq!(g.len(), want_g.len(), "{label}");
        let scale = want_g.iter().fold(1e-3f64, |m, v| m.max(v.abs()));
        for (a, b) in g.iter().zip(want_g) {
            assert!(
                (a - b).abs() <= 1e-4 * scale,
                "{label}: parameter {} gradient {a}, pair by pair {b}",
                id.index()
            );
        }
        nonzero += usize::from(scale > 1e-3);
    }
    assert!(nonzero > grads.len() / 2, "{label}: gradients vanished");
}

/// The three-way comparison on every ladder, for one trained model.
fn assert_curves_equal_pair_rows(
    model: &PartitionedSelNet,
    ds: &Dataset,
    w: &Workload,
    what: &str,
) {
    for (name, objects) in ladders(&w.train) {
        let rows = pair_rows(&objects);
        let labels = |split: &[LabeledQuery]| {
            label_partitions(ds, model.partitioning(), split, w.kind).labels
        };
        let (object_labels, row_labels) = (labels(&objects), labels(&rows));
        let label = format!("{what}, {name}");
        let oracle = mean_over_pairs(rows.len(), |j, g| {
            model.training_loss(
                g,
                std::slice::from_ref(&rows[j]),
                std::slice::from_ref(&row_labels[j]),
            )
        });
        let curves = loss_and_grads(|g| model.training_loss(g, &objects, &object_labels));
        assert_agree(&format!("{label}, as curves"), &curves, &oracle);
        let pair_batch = loss_and_grads(|g| model.training_loss(g, &rows, &row_labels));
        assert_agree(&format!("{label}, as pair rows"), &pair_batch, &oracle);
    }
}

#[test]
fn single_model_curve_batch_equals_its_pair_rows() {
    let (ds, w) = fixture();
    for query_dependent_tau in [true, false] {
        let (model, _) = fit(&ds, &w, &net_config(query_dependent_tau));
        assert_eq!(model.k(), 1);
        let what = format!("single, query-dependent τ {query_dependent_tau}");
        assert_curves_equal_pair_rows(&model, &ds, &w, &what);
    }
}

#[test]
fn partitioned_curve_batch_equals_its_pair_rows() {
    let (ds, w) = fixture();
    let pcfg = PartitionConfig {
        k: 3,
        method: PartitionMethod::CoverTree { ratio: 0.1 },
        pretrain_epochs: 1,
        beta: 0.1,
    };
    for query_dependent_tau in [true, false] {
        let (model, _) = fit_partitioned(&ds, &w, &net_config(query_dependent_tau), &pcfg);
        let what = format!("partitioned, query-dependent τ {query_dependent_tau}");
        assert_curves_equal_pair_rows(&model, &ds, &w, &what);
    }
}

#[test]
#[should_panic(expected = "no labelled threshold")]
fn a_batch_without_a_threshold_is_refused() {
    let (ds, w) = fixture();
    let (model, _) = fit(&ds, &w, &net_config(true));
    let objects = cut(&w.train, |_| 0);
    let labels = label_partitions(&ds, model.partitioning(), &objects, w.kind).labels;
    model.training_loss(&mut Graph::new(), &objects, &labels);
}
