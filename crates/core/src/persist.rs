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
//! Loaders return typed [`io::Error`]s — truncated streams surface as
//! [`io::ErrorKind::UnexpectedEof`], bad magic/version/structure as
//! [`io::ErrorKind::InvalidData`] — and never panic on corrupt input.

use crate::config::{LossKind, PartitionConfig, SelNetConfig, TauNormalization};
use crate::partitioned::{network_shapes, register_networks, PartitionedSelNet};
use rand::rngs::StdRng;
use rand::SeedableRng;
use selnet_index::Partitioning;
use selnet_tensor::bytes::{
    read_f32, read_f64, read_u32, read_u64, write_f32, write_f64, write_u32, write_u64,
};
use selnet_tensor::ParamStore;
use std::io::{self, Read, Write};

const PARTITIONED_MAGIC: &[u8; 8] = b"SELNETP1";
/// Current `SELNETP1` snapshot version. Bump when the layout changes; the
/// loader reads exactly what [`PartitionedSelNet::save`] writes — this
/// version, with its reserved 64-bit word zero — and refuses any other
/// version (the v1 layout without the word included) with a typed error.
pub const SNAPSHOT_VERSION: u32 = 2;

/// Caps on length fields read from untrusted bytes (see the loaders).
const MAX_NAME_LEN: usize = 1 << 16;
const MAX_HIDDEN_LAYERS: usize = 1 << 10;
const MAX_LOCALS: usize = 1 << 16;

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

// scalar framing rides the workspace-shared little-endian helpers in
// `selnet_tensor::bytes` (also used by the serving wire protocol)
fn write_usize(w: &mut impl Write, v: usize) -> io::Result<()> {
    write_u64(w, v as u64)
}

fn read_usize(r: &mut impl Read) -> io::Result<usize> {
    read_u64(r).map(|v| v as usize)
}

fn read_len(r: &mut impl Read, max: usize, what: &str) -> io::Result<usize> {
    let v = read_usize(r)?;
    if v > max {
        return Err(invalid(format!("implausible {what}: {v}")));
    }
    Ok(v)
}

fn write_vec_usize(w: &mut impl Write, v: &[usize]) -> io::Result<()> {
    write_usize(w, v.len())?;
    for &x in v {
        write_usize(w, x)?;
    }
    Ok(())
}

fn read_vec_usize(r: &mut impl Read) -> io::Result<Vec<usize>> {
    let n = read_len(r, MAX_HIDDEN_LAYERS, "layer count")?;
    (0..n).map(|_| read_usize(r)).collect()
}

fn write_string(w: &mut impl Write, s: &str) -> io::Result<()> {
    let bytes = s.as_bytes();
    write_usize(w, bytes.len())?;
    w.write_all(bytes)
}

fn read_string(r: &mut impl Read) -> io::Result<String> {
    let len = read_len(r, MAX_NAME_LEN, "string length")?;
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf).map_err(|_| invalid("bad utf8 string"))
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
    // Architecture sizes feed matrix allocations when the loader rebuilds
    // the network, so corrupt bytes here must not request absurd buffers.
    // 16384 is ~16x the paper's widest layer.
    const MAX_WIDTH: usize = 1 << 14;
    for (what, v) in [
        ("control_points", control_points),
        ("latent_dim", latent_dim),
        ("embed_dim", embed_dim),
    ] {
        if v > MAX_WIDTH {
            return Err(invalid(format!("implausible {what}: {v}")));
        }
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

/// Checks the architecture a header claims — `dim`, `cfg`'s widths and
/// `k` local networks — against the parameter shapes the stream carries,
/// in registration order. The loaded store is no larger than the stream,
/// so a header that passes cannot make [`register_networks`] allocate
/// more than the stream already held.
fn check_architecture(
    store: &ParamStore,
    dim: usize,
    cfg: &SelNetConfig,
    k: usize,
) -> io::Result<()> {
    let [ae, local] = network_shapes(dim, cfg).ok_or_else(|| invalid("architecture overflows"))?;
    let claimed = ae.iter().chain(std::iter::repeat_n(&local, k).flatten());
    if !claimed
        .copied()
        .eq(store.ids().map(|id| store.value(id).shape()))
    {
        return Err(invalid(
            "shape mismatch: the header's architecture is not the parameters'",
        ));
    }
    Ok(())
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
    /// network architecture is re-registered in the exact order
    /// [`crate::fit_partitioned`] used, then the checkpointed weights are
    /// copied in. The header's architecture is checked against the
    /// weights' shapes before any of it is allocated: a count/shape
    /// mismatch is [`io::ErrorKind::InvalidData`], not a panic or an
    /// abort.
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
        let name = read_string(r)?;
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
        let loaded_store = ParamStore::load(r)?;
        check_architecture(&loaded_store, dim, &cfg, k)?;

        // rebuild the architecture in `fit_partitioned`'s registration
        // order, then copy the trained weights in
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut store = ParamStore::new();
        let (ae, locals) = register_networks(&mut store, dim, &cfg, k, &mut rng);
        store.try_copy_from(&loaded_store).map_err(invalid)?;
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

    /// Random byte corruption anywhere in the stream must yield an error
    /// or a loadable model — never a panic or abort.
    #[test]
    fn corrupt_bytes_never_panic() {
        let (model, _) = partitioned_fixture(46);
        let mut clean = Vec::new();
        model.save(&mut clean).unwrap();
        for (i, flip) in [(8usize, 0xffu8), (13, 0x80), (60, 0x41), (200, 0xff)] {
            let mut buf = clean.clone();
            if i < buf.len() {
                buf[i] ^= flip;
                let _ = PartitionedSelNet::load(&mut buf.as_slice());
            }
        }
    }
}
