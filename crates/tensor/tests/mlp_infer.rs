//! Property test of the tapeless MLP forward: [`Mlp::infer`] equals
//! [`Mlp::forward`] on the tape bit for bit, for random widths (width 1
//! included), both activations in either position, and batch sizes that
//! grow and shrink between calls sharing one set of buffers.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selnet_tensor::{Activation, Graph, Matrix, Mlp, ParamStore};

fn activation(pick: usize) -> Activation {
    if pick == 0 {
        Activation::Linear
    } else {
        Activation::Relu
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn mlp_infer_matches_the_tape(
        seed in 0u64..10_000,
        widths in prop::collection::vec(1usize..10, 2..5),
        hidden in 0usize..2,
        output in 0usize..2,
        batches in prop::collection::vec(1usize..71, 1..6),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let net = Mlp::new(
            &mut store,
            "net",
            &widths,
            activation(hidden),
            activation(output),
            &mut rng,
        );
        // non-zero biases, and inputs of both signs, so bias and ReLU bite
        let ids: Vec<_> = store.ids().collect();
        for id in ids {
            for v in store.value_mut(id).data_mut() {
                *v = rng.gen_range(-1.0f32..1.0);
            }
        }
        let mut bufs = Vec::new();
        for rows in batches {
            let x = Matrix::from_fn(rows, widths[0], |_, _| rng.gen_range(-2.0f32..2.0));
            let mut g = Graph::new();
            let xv = g.leaf_ref(&x);
            let y = net.forward(&mut g, &store, xv);
            let got = net.infer(&store, &x, &mut bufs);
            prop_assert_eq!(got.shape(), g.value(y).shape());
            let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(got), bits(g.value(y)));
        }
    }
}
