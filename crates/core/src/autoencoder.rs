//! The autoencoder that supplies the latent query representation `z_x`
//! (§5.2). Pretrained on the database objects, then fine-tuned jointly
//! with the estimator through the `λ · J_AE` term of Eq. (4).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selnet_data::Dataset;
use selnet_tensor::{Activation, Adam, Graph, Matrix, Mlp, ParamStore, Var};

/// Encoder/decoder MLP pair.
#[derive(Clone, Debug)]
pub struct Autoencoder {
    encoder: Mlp,
    decoder: Mlp,
    input_dim: usize,
    latent_dim: usize,
}

impl Autoencoder {
    /// Registers a new autoencoder in `store`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        input_dim: usize,
        hidden: &[usize],
        latent_dim: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let mut enc_widths = vec![input_dim];
        enc_widths.extend_from_slice(hidden);
        enc_widths.push(latent_dim);
        let mut dec_widths = vec![latent_dim];
        dec_widths.extend(hidden.iter().rev());
        dec_widths.push(input_dim);
        let encoder = Mlp::new(
            store,
            &format!("{name}.enc"),
            &enc_widths,
            Activation::Relu,
            Activation::Linear,
            rng,
        );
        let decoder = Mlp::new(
            store,
            &format!("{name}.dec"),
            &dec_widths,
            Activation::Relu,
            Activation::Linear,
            rng,
        );
        Autoencoder {
            encoder,
            decoder,
            input_dim,
            latent_dim,
        }
    }

    /// Latent dimensionality.
    pub fn latent_dim(&self) -> usize {
        self.latent_dim
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Records the encoder forward pass.
    pub fn encode(&self, g: &mut Graph, store: &ParamStore, x: Var) -> Var {
        self.encoder.forward(g, store, x)
    }

    /// The encoder forward without a tape ([`Mlp::infer`]): the bits of
    /// [`Autoencoder::encode`]'s value, in the last of `bufs`.
    pub(crate) fn infer<'b>(
        &self,
        store: &ParamStore,
        x: &Matrix,
        bufs: &'b mut Vec<Matrix>,
    ) -> &'b Matrix {
        self.encoder.infer(store, x, bufs)
    }

    /// Records the decoder forward pass.
    pub fn decode(&self, g: &mut Graph, store: &ParamStore, z: Var) -> Var {
        self.decoder.forward(g, store, z)
    }

    /// Records the reconstruction loss `J_AE = mean((x̂ - x)^2)`.
    pub fn reconstruction_loss(&self, g: &mut Graph, store: &ParamStore, x: Var) -> Var {
        let z = self.encode(g, store, x);
        let recon = self.decode(g, store, z);
        let diff = g.sub(recon, x);
        let sq = g.square(diff);
        g.mean(sq)
    }

    /// Pretrains on (a sample of) the database, as the paper does before
    /// estimator training. Returns the final reconstruction loss.
    ///
    /// One arena tape is reused across all batches and epochs; the batch
    /// rows are gathered (in parallel for big batches) straight into the
    /// tape's recycled leaf buffer.
    #[allow(clippy::too_many_arguments)]
    pub fn pretrain(
        &self,
        store: &mut ParamStore,
        ds: &Dataset,
        epochs: usize,
        batch_size: usize,
        max_sample: usize,
        lr: f32,
        seed: u64,
    ) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = ds.len().min(max_sample.max(1));
        let mut indices: Vec<usize> = (0..ds.len()).collect();
        for i in 0..n {
            let j = rng.gen_range(i..indices.len());
            indices.swap(i, j);
        }
        indices.truncate(n);
        let mut opt = Adam::new(lr);
        let mut last = f64::MAX;
        let mut g = Graph::new();
        for _ in 0..epochs {
            // shuffle each epoch
            for i in (1..indices.len()).rev() {
                let j = rng.gen_range(0..=i);
                indices.swap(i, j);
            }
            for chunk in indices.chunks(batch_size.max(1)) {
                g.reset();
                let d = ds.dim();
                let x = g.leaf_with(chunk.len(), d, |data| {
                    for (bi, &i) in chunk.iter().enumerate() {
                        data[bi * d..(bi + 1) * d].copy_from_slice(ds.row(i));
                    }
                });
                let loss = self.reconstruction_loss(&mut g, store, x);
                g.backward_params(loss);
                last = g.value(loss).get(0, 0) as f64;
                let grads = g.param_grad_refs();
                opt.step_refs(store, &grads);
            }
        }
        last
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selnet_data::generators::{face_like, GeneratorConfig};
    use selnet_tensor::Matrix;

    #[test]
    fn shapes_are_consistent() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let ae = Autoencoder::new(&mut store, "ae", 10, &[16, 8], 4, &mut rng);
        assert_eq!(ae.latent_dim(), 4);
        let mut g = Graph::new();
        let x = g.leaf(Matrix::zeros(7, 10));
        let z = ae.encode(&mut g, &store, x);
        assert_eq!(g.value(z).shape(), (7, 4));
        let recon = ae.decode(&mut g, &store, z);
        assert_eq!(g.value(recon).shape(), (7, 10));
    }

    #[test]
    fn pretraining_reduces_reconstruction_loss() {
        let ds = face_like(&GeneratorConfig::new(256, 8, 3, 5));
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let ae = Autoencoder::new(&mut store, "ae", 8, &[16], 4, &mut rng);

        // loss before
        let mut g = Graph::new();
        let mut buf = Vec::new();
        for i in 0..64 {
            buf.extend_from_slice(ds.row(i));
        }
        let x = g.leaf(Matrix::from_vec(64, 8, buf.clone()));
        let before_loss = ae.reconstruction_loss(&mut g, &store, x);
        let before = g.value(before_loss).get(0, 0) as f64;

        ae.pretrain(&mut store, &ds, 25, 64, 256, 3e-3, 2);

        let mut g = Graph::new();
        let x = g.leaf(Matrix::from_vec(64, 8, buf));
        let after_loss = ae.reconstruction_loss(&mut g, &store, x);
        let after = g.value(after_loss).get(0, 0) as f64;
        assert!(after < before * 0.7, "before {before}, after {after}");
    }
}
