//! Checkpointing of trained models.
//!
//! One self-contained little-endian binary format, no serialization
//! dependency: `SELNETP1`, a **versioned whole-model snapshot** of a
//! [`PartitionedSelNet`] — hyper-parameters, partition configuration, the
//! partitioning itself (assignments + ball regions), the shared
//! autoencoder and every per-partition network (one parameter stream),
//! and the §5.4 update-policy state (`reference_val_mae`). This is the
//! format the `selnet-serve` subsystem ships between trainer and server.
//! A model from [`crate::fit`] is the `K = 1` case and saves the same way
//! (its partitioning is one assignment column and no regions).
//!
//! The header's architecture is not checked on its own: the networks it
//! describes are registered on the parameter stream as read, which must
//! carry each of their matrices, by name and shape, in registration order.
//!
//! Loaders return typed [`io::Error`]s — truncated streams surface as
//! [`io::ErrorKind::UnexpectedEof`], bad magic/version/structure as
//! [`io::ErrorKind::InvalidData`] — and never panic on corrupt input.

use crate::config::{LossKind, PartitionConfig, SelNetConfig, TauNormalization};
use crate::partitioned::{register_networks, PartitionedSelNet};
use selnet_index::Partitioning;
use selnet_tensor::bytes::{
    check_len, invalid, read_f32, read_f64, read_len, read_u32, read_u64, read_u64s, read_utf8,
    write_f32, write_f64, write_u32, write_u64, write_u64s,
};
use selnet_tensor::ParamStore;
use std::io::{self, Read, Write};

const PARTITIONED_MAGIC: &[u8; 8] = b"SELNETP1";
/// Current `SELNETP1` snapshot version. Bump when the layout changes; the
/// loader reads exactly what [`PartitionedSelNet::save`] writes — this
/// version, with its reserved 64-bit word zero — and refuses any other
/// version (the v1 layout without the word included) with a typed error.
pub const SNAPSHOT_VERSION: u32 = 2;

/// Caps on this format's length fields, read by the rule of
/// [`selnet_tensor::bytes`].
const MAX_NAME_LEN: usize = 1 << 16;
const MAX_HIDDEN_LAYERS: usize = 1 << 10;
const MAX_LOCALS: usize = 1 << 16;

fn write_usize(w: &mut impl Write, v: usize) -> io::Result<()> {
    write_u64(w, v as u64)
}

fn read_usize(r: &mut impl Read) -> io::Result<usize> {
    read_u64(r).map(|v| v as usize)
}

fn write_vec_usize(w: &mut impl Write, v: &[usize]) -> io::Result<()> {
    write_usize(w, v.len())?;
    write_u64s(w, v.iter().map(|&x| x as u64))
}

fn read_vec_usize(r: &mut impl Read) -> io::Result<Vec<usize>> {
    let n = read_len(r, MAX_HIDDEN_LAYERS, "layer count")?;
    Ok(read_u64s(r, n)?.into_iter().map(|v| v as usize).collect())
}

fn write_string(w: &mut impl Write, s: &str) -> io::Result<()> {
    write_usize(w, s.len())?;
    w.write_all(s.as_bytes())
}

fn write_config(w: &mut impl Write, c: &SelNetConfig) -> io::Result<()> {
    write_usize(w, c.control_points)?;
    write_usize(w, c.latent_dim)?;
    write_usize(w, c.embed_dim)?;
    write_vec_usize(w, &c.tau_hidden)?;
    write_vec_usize(w, &c.p_hidden)?;
    write_vec_usize(w, &c.ae_hidden)?;
    write_f32(w, c.learning_rate)?;
    write_usize(w, c.epochs)?;
    write_usize(w, c.batch_size)?;
    write_f32(w, c.lambda_ae)?;
    write_f32(w, c.huber_delta)?;
    write_f32(w, c.log_eps)?;
    write_usize(w, usize::from(c.query_dependent_tau))?;
    write_usize(
        w,
        match c.tau_normalization {
            TauNormalization::Norml2 => 0,
            TauNormalization::Softmax => 1,
        },
    )?;
    write_usize(
        w,
        match c.loss {
            LossKind::Huber => 0,
            LossKind::L2 => 1,
            LossKind::L1 => 2,
        },
    )?;
    write_usize(w, c.ae_pretrain_epochs)?;
    write_usize(w, c.ae_pretrain_sample)?;
    write_u64(w, c.seed)
}

fn read_config(r: &mut impl Read) -> io::Result<SelNetConfig> {
    let control_points = read_usize(r)?;
    let latent_dim = read_usize(r)?;
    let embed_dim = read_usize(r)?;
    let tau_hidden = read_vec_usize(r)?;
    let p_hidden = read_vec_usize(r)?;
    let ae_hidden = read_vec_usize(r)?;
    let learning_rate = read_f32(r)?;
    let epochs = read_usize(r)?;
    let batch_size = read_usize(r)?;
    let lambda_ae = read_f32(r)?;
    let huber_delta = read_f32(r)?;
    let log_eps = read_f32(r)?;
    let query_dependent_tau = read_usize(r)? != 0;
    let tau_normalization = match read_usize(r)? {
        0 => TauNormalization::Norml2,
        1 => TauNormalization::Softmax,
        v => return Err(invalid(format!("bad tau norm {v}"))),
    };
    let loss = match read_usize(r)? {
        0 => LossKind::Huber,
        1 => LossKind::L2,
        2 => LossKind::L1,
        v => return Err(invalid(format!("bad loss {v}"))),
    };
    let ae_pretrain_epochs = read_usize(r)?;
    let ae_pretrain_sample = read_usize(r)?;
    let seed = read_u64(r)?;
    // Architecture sizes a model trains with: 16384 is ~16x the paper's
    // widest layer. (A loaded model's weights must carry them too.)
    const MAX_WIDTH: usize = 1 << 14;
    for (what, v) in [
        ("control_points", control_points),
        ("latent_dim", latent_dim),
        ("embed_dim", embed_dim),
    ] {
        check_len(v as u64, MAX_WIDTH, what)?;
    }
    for widths in [&tau_hidden, &p_hidden, &ae_hidden] {
        if widths.iter().any(|&w| w > MAX_WIDTH) {
            return Err(invalid("implausible hidden layer width"));
        }
    }
    Ok(SelNetConfig {
        control_points,
        latent_dim,
        embed_dim,
        tau_hidden,
        p_hidden,
        ae_hidden,
        learning_rate,
        epochs,
        batch_size,
        lambda_ae,
        huber_delta,
        log_eps,
        query_dependent_tau,
        tau_normalization,
        loss,
        ae_pretrain_epochs,
        ae_pretrain_sample,
        seed,
    })
}

fn write_pconfig(w: &mut impl Write, p: &PartitionConfig) -> io::Result<()> {
    write_usize(w, p.k)?;
    match p.method {
        selnet_index::PartitionMethod::CoverTree { ratio } => {
            write_usize(w, 0)?;
            write_f64(w, ratio)?;
        }
        selnet_index::PartitionMethod::Random => write_usize(w, 1)?,
        selnet_index::PartitionMethod::KMeans => write_usize(w, 2)?,
    }
    write_usize(w, p.pretrain_epochs)?;
    write_f32(w, p.beta)
}

fn read_pconfig(r: &mut impl Read) -> io::Result<PartitionConfig> {
    let k = read_usize(r)?;
    let method = match read_usize(r)? {
        0 => selnet_index::PartitionMethod::CoverTree {
            ratio: read_f64(r)?,
        },
        1 => selnet_index::PartitionMethod::Random,
        2 => selnet_index::PartitionMethod::KMeans,
        v => return Err(invalid(format!("bad partition method {v}"))),
    };
    let pretrain_epochs = read_usize(r)?;
    let beta = read_f32(r)?;
    Ok(PartitionConfig {
        k,
        method,
        pretrain_epochs,
        beta,
    })
}

impl PartitionedSelNet {
    /// Serializes the whole partitioned model as a versioned `SELNETP1`
    /// snapshot: hyper-parameters, partition configuration, the
    /// partitioning (assignments + ball regions), one parameter stream
    /// covering the shared autoencoder and all `K` local networks, and the
    /// update-policy state.
    pub fn save(&self, w: &mut impl Write) -> io::Result<()> {
        // flight-recorder hook (inert unless the global recorder is
        // armed): a = local-model count, b = input dimension
        let _span = selnet_obs::trace::global()
            .span("snapshot_save", 0)
            .detail(self.locals.len() as u64, self.dim as u64);
        w.write_all(PARTITIONED_MAGIC)?;
        write_u32(w, SNAPSHOT_VERSION)?;
        write_config(w, &self.cfg)?;
        write_pconfig(w, &self.pcfg)?;
        write_usize(w, self.dim)?;
        write_f32(w, self.tmax)?;
        write_f64(w, self.reference_val_mae)?;
        write_string(w, &self.name)?;
        // v2: reserved
        write_u64(w, 0)?;
        write_usize(w, self.locals.len())?;
        self.partitioning.save(w)?;
        self.store.save(w)
    }

    /// Deserializes a snapshot written by [`PartitionedSelNet::save`].
    ///
    /// `load(save(m))` reproduces `m`'s predictions bit for bit: the
    /// networks are registered, in the one order [`crate::fit_partitioned`]
    /// uses, on the weight store just read, which hands each registration
    /// its checkpointed matrix; nothing is drawn and nothing is copied. A
    /// parameter whose name or shape is not the one the header's
    /// architecture registers next, a missing one or a leftover one is
    /// [`io::ErrorKind::InvalidData`], not a panic or an abort, and no
    /// registration allocates a weight.
    pub fn load(r: &mut impl Read) -> io::Result<PartitionedSelNet> {
        // a = local-model count, b = input dimension (0/0 on parse failure)
        let mut span = selnet_obs::trace::global().span("snapshot_load", 0);
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != PARTITIONED_MAGIC {
            return Err(invalid("bad snapshot magic (expected SELNETP1)"));
        }
        let version = read_u32(r)?;
        if version != SNAPSHOT_VERSION {
            return Err(invalid(format!(
                "unsupported snapshot version {version} (this build reads {SNAPSHOT_VERSION})"
            )));
        }
        let cfg = read_config(r)?;
        let pcfg = read_pconfig(r)?;
        let dim = read_len(r, 1 << 20, "input dimension")?;
        let tmax = read_f32(r)?;
        let reference_val_mae = read_f64(r)?;
        let name_len = read_len(r, MAX_NAME_LEN, "name length")?;
        let name = read_utf8(r, name_len, "model name")?;
        let reserved = read_u64(r)?;
        if reserved != 0 {
            return Err(invalid(format!(
                "bad reserved word {reserved:#x} (save writes 0)"
            )));
        }
        let k = read_len(r, MAX_LOCALS, "local model count")?;
        let partitioning = Partitioning::load(r)?;
        if partitioning.k() != k {
            return Err(invalid(format!(
                "snapshot has {k} local models but a {}-part partitioning",
                partitioning.k()
            )));
        }
        let mut store = ParamStore::load(r)?;
        let (ae, locals, _) = register_networks(&mut store, dim, &cfg, k);
        store.finish_load()?;
        span.set_detail(k as u64, dim as u64);
        Ok(PartitionedSelNet {
            cfg,
            pcfg,
            dim,
            tmax,
            store,
            ae,
            locals,
            partitioning,
            name,
            reference_val_mae,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioned::fit_partitioned;
    use crate::train::fit;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use selnet_data::generators::{fasttext_like, GeneratorConfig};
    use selnet_eval::SelectivityEstimator;
    use selnet_index::PartitionMethod;
    use selnet_metric::DistanceKind;
    use selnet_workload::{generate_workload, Workload, WorkloadConfig};

    #[test]
    fn save_load_preserves_predictions() {
        let ds = fasttext_like(&GeneratorConfig::new(300, 5, 3, 31));
        let mut wcfg = WorkloadConfig::new(20, DistanceKind::Euclidean, 1);
        wcfg.thresholds_per_query = 8;
        let w = generate_workload(&ds, &wcfg);
        let mut cfg = SelNetConfig::tiny();
        cfg.epochs = 5;
        let (model, _) = fit(&ds, &w, &cfg);

        let mut buf = Vec::new();
        model.save(&mut buf).unwrap();
        assert_eq!(&buf[..8], PARTITIONED_MAGIC, "one format, K = 1 included");
        let loaded = PartitionedSelNet::load(&mut buf.as_slice()).unwrap();

        let q = &w.test[0];
        let a = model.estimate_many(&q.x, &q.thresholds);
        let b = loaded.estimate_many(&q.x, &q.thresholds);
        assert_eq!(a, b);
        assert_eq!(loaded.k(), 1);
        assert_eq!(model.name(), loaded.name());
        assert_eq!(model.tmax(), loaded.tmax());
    }

    #[test]
    fn load_rejects_garbage() {
        let buf = vec![1u8; 64];
        assert!(PartitionedSelNet::load(&mut buf.as_slice()).is_err());
    }

    /// Loads expecting failure (`PartitionedSelNet` has no `Debug` impl,
    /// so `expect_err` can't be used directly).
    fn load_err(bytes: &[u8]) -> io::Error {
        match PartitionedSelNet::load(&mut &*bytes) {
            Ok(_) => panic!("corrupt snapshot must not load"),
            Err(e) => e,
        }
    }

    fn partitioned_fixture(seed: u64) -> (PartitionedSelNet, Workload) {
        let ds = fasttext_like(&GeneratorConfig::new(400, 5, 3, seed));
        let mut wcfg = WorkloadConfig::new(24, DistanceKind::Euclidean, seed ^ 1);
        wcfg.thresholds_per_query = 8;
        let w = generate_workload(&ds, &wcfg);
        let mut cfg = SelNetConfig::tiny();
        cfg.epochs = 4;
        let pcfg = PartitionConfig {
            k: 3,
            method: PartitionMethod::CoverTree { ratio: 0.1 },
            pretrain_epochs: 2,
            beta: 0.1,
        };
        let (model, _) = fit_partitioned(&ds, &w, &cfg, &pcfg);
        (model, w)
    }

    #[test]
    fn partitioned_snapshot_roundtrip_is_bit_identical() {
        let (model, w) = partitioned_fixture(41);
        let mut buf = Vec::new();
        model.save(&mut buf).unwrap();
        let loaded = PartitionedSelNet::load(&mut buf.as_slice()).unwrap();

        assert_eq!(loaded.k(), model.k());
        assert_eq!(loaded.name(), model.name());
        assert_eq!(loaded.tmax(), model.tmax());
        assert_eq!(loaded.reference_val_mae(), model.reference_val_mae());
        assert_eq!(
            loaded.partitioning().assignments(),
            model.partitioning().assignments()
        );
        for q in &w.test {
            assert_eq!(
                loaded.estimate_many(&q.x, &q.thresholds),
                model.estimate_many(&q.x, &q.thresholds),
                "round-tripped predictions must be bit-identical"
            );
        }
    }

    /// Round-trip equivalence holds for every partitioning method,
    /// including the all-ones-indicator Random case (empty region table).
    #[test]
    fn partitioned_snapshot_roundtrip_random_partitioning() {
        let ds = fasttext_like(&GeneratorConfig::new(300, 4, 2, 47));
        let mut wcfg = WorkloadConfig::new(16, DistanceKind::Euclidean, 48);
        wcfg.thresholds_per_query = 6;
        let w = generate_workload(&ds, &wcfg);
        let mut cfg = SelNetConfig::tiny();
        cfg.epochs = 3;
        let pcfg = PartitionConfig {
            k: 2,
            method: PartitionMethod::Random,
            pretrain_epochs: 1,
            beta: 0.1,
        };
        let (model, _) = fit_partitioned(&ds, &w, &cfg, &pcfg);
        let mut buf = Vec::new();
        model.save(&mut buf).unwrap();
        let loaded = PartitionedSelNet::load(&mut buf.as_slice()).unwrap();
        let q = &w.test[0];
        assert_eq!(
            loaded.estimate_many(&q.x, &q.thresholds),
            model.estimate_many(&q.x, &q.thresholds)
        );
    }

    /// Every strict prefix of a valid snapshot must fail with a typed
    /// error (UnexpectedEof or InvalidData), never a panic. This sweeps
    /// all truncation points, so it also covers "stream ends inside the
    /// magic / config / partitioning / parameter block".
    #[test]
    fn truncated_snapshot_returns_typed_error() {
        let (model, _) = partitioned_fixture(43);
        let mut buf = Vec::new();
        model.save(&mut buf).unwrap();
        // sweep a dense set of prefixes: every length up to 256, then a
        // coarse stride through the (large) parameter block
        let mut cuts: Vec<usize> = (0..buf.len().min(256)).collect();
        cuts.extend((256..buf.len()).step_by(997));
        for cut in cuts {
            let err = load_err(&buf[..cut]);
            assert!(
                matches!(
                    err.kind(),
                    io::ErrorKind::UnexpectedEof | io::ErrorKind::InvalidData
                ),
                "cut at {cut}: unexpected error kind {:?}",
                err.kind()
            );
        }
    }

    /// A header may claim a network far larger than the weights that
    /// follow it: here the first autoencoder layer becomes 2^20 x 2^14
    /// (64 GiB of `f32`) in a stream of the same length. The loader
    /// refuses it before allocating the claimed architecture.
    #[test]
    fn a_header_claiming_a_huge_network_is_refused_before_allocating() {
        let (model, _) = partitioned_fixture(41);
        let mut buf = Vec::new();
        model.save(&mut buf).unwrap();
        let header = |cfg: &SelNetConfig, dim: usize| {
            let mut h = PARTITIONED_MAGIC.to_vec();
            write_u32(&mut h, SNAPSHOT_VERSION).unwrap();
            write_config(&mut h, cfg).unwrap();
            write_pconfig(&mut h, &model.pcfg).unwrap();
            write_usize(&mut h, dim).unwrap();
            h
        };
        let real = header(&model.cfg, model.dim);
        assert!(buf.starts_with(&real));
        let mut cfg = model.cfg.clone();
        cfg.ae_hidden = vec![1 << 14];
        let mut hostile = header(&cfg, 1 << 20);
        hostile.extend_from_slice(&buf[real.len()..]);
        assert_eq!(hostile.len(), buf.len());
        let err = load_err(&hostile);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("shape mismatch"), "got: {err}");
    }

    /// Names are part of the architecture: a snapshot whose first local
    /// network's first τ weight is renamed to the second's (same length,
    /// same shape) is refused, not served with the weights out of place.
    #[test]
    fn a_renamed_parameter_is_refused() {
        let (model, _) = partitioned_fixture(41);
        let mut buf = Vec::new();
        model.save(&mut buf).unwrap();
        let at = buf
            .windows(15)
            .position(|w| w == b"local0.tau.l0.w")
            .expect("the first local network's first weight");
        buf[at..at + 15].copy_from_slice(b"local1.tau.l0.w");
        let err = load_err(&buf);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("name mismatch"), "got: {err}");
    }

    #[test]
    fn bad_magic_returns_typed_error() {
        let (model, _) = partitioned_fixture(44);
        let mut buf = Vec::new();
        model.save(&mut buf).unwrap();
        buf[0..8].copy_from_slice(b"SELNETXX");
        let err = load_err(&buf);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("magic"), "got: {err}");
    }

    /// The retired single-model format (magic `SELNETM` + `1`, then a
    /// configuration with no version word before it) is refused at the
    /// magic, whatever follows it: a typed error, never a panic and never
    /// a mis-parse of the old layout as a version number.
    #[test]
    fn a_retired_single_model_stream_is_a_typed_bad_magic_error() {
        let (model, _) = partitioned_fixture(44);
        // the snapshot magic with `M` for `P`
        let mut retired_magic = *PARTITIONED_MAGIC;
        retired_magic[6] = b'M';
        // what the old writer put after its magic, followed by a real
        // parameter stream
        let mut old = retired_magic.to_vec();
        write_config(&mut old, &model.cfg).unwrap();
        write_usize(&mut old, model.dim).unwrap();
        write_f32(&mut old, model.tmax()).unwrap();
        write_f64(&mut old, model.reference_val_mae()).unwrap();
        write_string(&mut old, "SelNet-ct").unwrap();
        model.store.save(&mut old).unwrap();
        // and a valid snapshot with only its magic swapped
        let mut swapped = Vec::new();
        model.save(&mut swapped).unwrap();
        swapped[..8].copy_from_slice(&retired_magic);
        for (what, bytes) in [
            ("old layout", &old),
            ("swapped magic", &swapped),
            (
                "magic and garbage",
                &[&retired_magic[..], b"garbage"].concat(),
            ),
        ] {
            let err = load_err(bytes);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}");
            assert!(err.to_string().contains("magic"), "{what}: {err}");
        }
    }

    /// The loader reads exactly what `save` writes: the zero reserved
    /// word loads, answers like the saved model and saves back to the same
    /// bytes; the serving-precision codes older builds stored in the word
    /// (`int8`, `pruned:0.05`, `bf16`), any other nonzero word, and the v1
    /// layout (no word, version 1) are typed errors.
    #[test]
    fn only_a_v2_stream_with_a_zero_reserved_word_loads() {
        let (model, w) = partitioned_fixture(49);
        let mut buf = Vec::new();
        model.save(&mut buf).unwrap();

        // re-serialize the prefix that precedes the word to find its offset
        let mut prefix = Vec::new();
        prefix.extend_from_slice(PARTITIONED_MAGIC);
        write_u32(&mut prefix, SNAPSHOT_VERSION).unwrap();
        write_config(&mut prefix, &model.cfg).unwrap();
        write_pconfig(&mut prefix, &model.pcfg).unwrap();
        write_usize(&mut prefix, model.dim).unwrap();
        write_f32(&mut prefix, model.tmax()).unwrap();
        write_f64(&mut prefix, model.reference_val_mae()).unwrap();
        write_string(&mut prefix, model.name()).unwrap();
        let cut = prefix.len();
        assert_eq!(buf[cut..cut + 8], [0u8; 8], "save writes a zero word");

        let loaded = PartitionedSelNet::load(&mut buf.as_slice()).unwrap();
        for q in &w.test {
            assert_eq!(
                loaded.estimate_many(&q.x, &q.thresholds),
                model.estimate_many(&q.x, &q.thresholds),
                "the loaded model must answer like the one that was saved"
            );
        }
        let mut again = Vec::new();
        loaded.save(&mut again).unwrap();
        assert!(again == buf, "save → load → save changed bytes");

        let with_word = |word: u64| {
            let mut bytes = buf.clone();
            bytes[cut..cut + 8].copy_from_slice(&word.to_le_bytes());
            bytes
        };
        for word in [
            2u64 << 32,                               // int8
            (3 << 32) | u64::from(0.05f32.to_bits()), // pruned:0.05
            1 << 32,                                  // bf16
            u64::MAX,
            99 << 32,
            (2 << 32) | 1,
            1,
        ] {
            let err = load_err(&with_word(word));
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{word:#x}");
            assert!(err.to_string().contains("reserved word"), "got: {err}");
        }

        // the exact v1 layout: no word, version stamped 1
        let mut v1 = buf.clone();
        v1.drain(cut..cut + 8);
        v1[8..12].copy_from_slice(&1u32.to_le_bytes());
        let err = load_err(&v1);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("version 1 "), "got: {err}");
    }

    #[test]
    fn version_mismatch_returns_typed_error() {
        let (model, _) = partitioned_fixture(45);
        let mut buf = Vec::new();
        model.save(&mut buf).unwrap();
        buf[8..12].copy_from_slice(&99u32.to_le_bytes());
        let err = load_err(&buf);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("version 99"), "got: {err}");
    }

    /// `(offset, width, cap, value)` of the snapshot's length fields: the
    /// header's three hidden-layer counts, input dimension, name length
    /// and local-model count; the partitioning's part count, assignment
    /// count, region-cluster count, first cluster's ball count and first
    /// ball's dimension; the weight stream's parameter count, first name
    /// length, rows and cols (whose product is capped).
    fn length_fields(m: &PartitionedSelNet, len: usize) -> Vec<(usize, usize, u64, usize)> {
        let mut h = PARTITIONED_MAGIC.to_vec();
        write_u32(&mut h, SNAPSHOT_VERSION).unwrap();
        let (tau, p, ae) = (&m.cfg.tau_hidden, &m.cfg.p_hidden, &m.cfg.ae_hidden);
        let tau_at = h.len() + 3 * 8;
        let p_at = tau_at + 8 * (1 + tau.len());
        let ae_at = p_at + 8 * (1 + p.len());
        write_config(&mut h, &m.cfg).unwrap();
        write_pconfig(&mut h, &m.pcfg).unwrap();
        let dim_at = h.len();
        let name_at = dim_at + 8 + 4 + 8;
        let k_at = name_at + 8 + m.name.len() + 8;
        let part_at = k_at + 8;
        let ratio = matches!(m.pcfg.method, PartitionMethod::CoverTree { .. });
        let n_at = part_at + 8 + 2 + if ratio { 8 } else { 0 };
        let assignments = m.partitioning.assignments().len();
        let clusters_at = n_at + 8 * (1 + assignments);
        let mut weights = Vec::new();
        m.store.save(&mut weights).unwrap();
        let w_at = len - weights.len();
        let id = m.store.ids().next().expect("parameters");
        let (first, first_name) = (m.store.value(id).shape(), m.store.name(id).len());
        let (k, layers, names, scalars) = (m.k(), 1 << 10, 1 << 16, 1 << 31);
        vec![
            (tau_at, 8, layers, tau.len()),
            (p_at, 8, layers, p.len()),
            (ae_at, 8, layers, ae.len()),
            (dim_at, 8, 1 << 20, m.dim),
            (name_at, 8, names, m.name.len()),
            (k_at, 8, 1 << 16, k),
            (part_at, 8, 1 << 20, k),
            (n_at, 8, 1 << 31, assignments),
            (clusters_at, 8, 1 << 20, k),
            (
                clusters_at + 8,
                8,
                1 << 31,
                m.partitioning.region_counts()[0],
            ),
            (clusters_at + 16, 8, 1 << 20, m.dim),
            (w_at + 8, 8, 1 << 24, m.store.len()),
            (w_at + 16, 4, names, first_name),
            (w_at + 20 + first_name, 8, scalars, first.0),
            (w_at + 28 + first_name, 8, scalars, first.1),
        ]
    }

    /// Corrupt bytes must load or give a typed error — never a panic, an
    /// abort or a hang: every header byte and bytes at a stride through
    /// the partitioning and weight blocks XORed with seeded masks, and
    /// each length field set to 0, to its cap + 1 and to all ones (a
    /// field no cap checked would bound a loop or an allocation here).
    #[test]
    fn corrupt_bytes_never_panic() {
        use rand::Rng;
        let (model, _) = partitioned_fixture(46);
        let mut clean = Vec::new();
        model.save(&mut clean).unwrap();
        let fields = length_fields(&model, clean.len());
        for &(at, width, _, value) in &fields {
            let mut field = [0u8; 8];
            field[..width].copy_from_slice(&clean[at..at + width]);
            assert_eq!(u64::from_le_bytes(field), value as u64, "field at {at}");
        }
        let part_at = fields[6].0;
        let load = |bytes: &[u8], what: &str| {
            if let Err(e) = PartitionedSelNet::load(&mut &*bytes) {
                assert!(
                    matches!(
                        e.kind(),
                        io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                    ),
                    "{what}: {e} ({:?})",
                    e.kind()
                );
            }
        };
        let mut rng = StdRng::seed_from_u64(46);
        let stride = (clean.len() - part_at) / 300;
        let flips = (0..part_at).chain((part_at..clean.len()).step_by(stride));
        for i in flips {
            let mut buf = clean.clone();
            buf[i] ^= rng.gen_range(1..=255u8);
            load(&buf, &format!("byte {i} flipped"));
        }
        for (at, width, cap, _) in fields {
            for value in [0, cap + 1, u64::MAX] {
                let mut buf = clean.clone();
                buf[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
                load(&buf, &format!("length at {at} set to {value:#x}"));
            }
        }
    }
}
