//! Entity-matching blocking with cardinality estimates — the query
//! optimization scenario from the paper's introduction (§1): hands-off
//! entity matching systems extract blocking rules (conjunctions of
//! similarity predicates), and picking a good execution order requires
//! estimating how many candidates each predicate passes.
//!
//! We simulate two record attributes embedded into vector spaces (e.g.
//! name and address embeddings). A blocking rule is
//! `d_name(x, o) <= t1 AND d_addr(x, o) <= t2`; the cheapest plan
//! evaluates the *most selective* predicate first. A trained SelNet per
//! attribute provides the estimates; we compare the plan it picks against
//! the optimal plan computed from exact counts.
//!
//! ```text
//! cargo run --release -p selnet-examples --bin entity_blocking
//! ```

use selnet_core::{fit_named, PartitionedSelNet, SelNetConfig};
use selnet_data::generators::{face_like, fasttext_like, GeneratorConfig};
use selnet_data::Dataset;
use selnet_eval::SelectivityEstimator;
use selnet_metric::DistanceKind;
use selnet_workload::{generate_workload, WorkloadConfig};

struct Attribute {
    name: &'static str,
    data: Dataset,
    model: PartitionedSelNet,
}

fn train_attribute(name: &'static str, data: Dataset, seed: u64) -> Attribute {
    let wcfg = WorkloadConfig {
        num_queries: 150,
        thresholds_per_query: 12,
        ..WorkloadConfig::new(150, DistanceKind::Cosine, seed)
    };
    let workload = generate_workload(&data, &wcfg);
    let cfg = SelNetConfig {
        epochs: 15,
        seed,
        ..SelNetConfig::default()
    };
    let (model, _) = fit_named(&data, &workload, &cfg, "SelNet-ct");
    Attribute { name, data, model }
}

fn exact_count(ds: &Dataset, x: &[f32], t: f32) -> usize {
    ds.iter()
        .filter(|r| DistanceKind::Cosine.eval(x, r) <= t)
        .count()
}

fn main() {
    let n = 8000;
    // two attributes with different embedding structure
    let names = fasttext_like(&GeneratorConfig::new(n, 12, 10, 11));
    let addrs = face_like(&GeneratorConfig::new(n, 10, 6, 13));

    println!("training per-attribute estimators...");
    let attrs = std::thread::scope(|scope| {
        let h1 = scope.spawn(|| train_attribute("name", names.clone(), 1));
        let h2 = scope.spawn(|| train_attribute("address", addrs.clone(), 2));
        [h1.join().expect("train"), h2.join().expect("train")]
    });

    // a stream of blocking rules: (record index, per-attribute threshold)
    let rules = [
        (3usize, 0.05f32, 0.02f32),
        (50, 0.15, 0.01),
        (200, 0.01, 0.2),
        (777, 0.08, 0.08),
    ];
    let mut agree = 0usize;
    println!(
        "\n{:<6} {:>12} {:>12} {:>12} {:>12}  {:<18} optimal?",
        "record", "est(name)", "est(addr)", "exact(name)", "exact(addr)", "plan"
    );
    for &(rec, t_name, t_addr) in &rules {
        let thresholds = [t_name, t_addr];
        let ests: Vec<f64> = attrs
            .iter()
            .zip(thresholds)
            .map(|(a, t)| a.model.estimate(a.data.row(rec), t))
            .collect();
        let exacts: Vec<usize> = attrs
            .iter()
            .zip(thresholds)
            .map(|(a, t)| exact_count(&a.data, a.data.row(rec), t))
            .collect();
        // plan: evaluate the predicate with the smaller estimated
        // cardinality first (fewer candidates flow to the second predicate)
        let plan_first = if ests[0] <= ests[1] { 0 } else { 1 };
        let optimal_first = if exacts[0] <= exacts[1] { 0 } else { 1 };
        let ok = plan_first == optimal_first;
        agree += usize::from(ok);
        println!(
            "{rec:<6} {:>12.1} {:>12.1} {:>12} {:>12}  {:<18} {}",
            ests[0],
            ests[1],
            exacts[0],
            exacts[1],
            format!(
                "{} then {}",
                attrs[plan_first].name,
                attrs[1 - plan_first].name
            ),
            if ok { "yes" } else { "NO" }
        );
    }
    println!(
        "\nplanner matched the optimal predicate order on {agree}/{} rules",
        rules.len()
    );
}
