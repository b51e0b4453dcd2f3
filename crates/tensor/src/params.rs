//! Trainable-parameter storage with binary checkpointing.
//!
//! A [`ParamStore`] owns the master copy of every trainable matrix. Each
//! training step injects parameters into a (freshly [`reset`]) [`Graph`]
//! via [`ParamStore::inject`] — a copy into the tape's recycled leaf
//! buffer, not a clone — runs forward + backward, collects borrowed
//! gradients with
//! [`Graph::param_grad_refs`](crate::graph::Graph::param_grad_refs), and
//! hands them to an optimizer.
//!
//! [`reset`]: crate::graph::Graph::reset
//!
//! Checkpoints use a small self-contained binary format (magic + version +
//! named f32 matrices, little-endian), so no serialization dependency is
//! needed.

use crate::bytes::{
    check_len, invalid, read_f32s, read_len, read_u32, read_u64, read_utf8, write_f32s, write_u32,
    write_u64,
};
use crate::graph::{Graph, ParamId, Var};
use crate::matrix::Matrix;
use std::io::{self, Read, Write};

// "W" for weights. (`SELNETP1` is the whole-model *partitioned snapshot*
// magic owned by `selnet-core`'s persistence layer, which embeds one of
// these parameter streams.)
const MAGIC: &[u8; 8] = b"SELNETW1";

/// Caps on length fields read from untrusted checkpoint bytes, so a
/// corrupted stream yields [`io::ErrorKind::InvalidData`] instead of an
/// absurd allocation.
const MAX_PARAMS: usize = 1 << 24;
const MAX_NAME_LEN: usize = 1 << 16;
const MAX_MATRIX_SCALARS: u64 = 1 << 31;

/// Owns named trainable parameters.
#[derive(Default, Clone)]
pub struct ParamStore {
    names: Vec<String>,
    values: Vec<Matrix>,
    /// On the store [`ParamStore::load`] returned, until
    /// [`ParamStore::finish_load`]: how many of its parameters registration
    /// has claimed, or why the checkpoint refused a registration.
    checkpoint: Option<Result<usize, String>>,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a `rows x cols` parameter and returns its id. On a new
    /// store its value is `init()`, called at once. On the store
    /// [`ParamStore::load`] returned it is the checkpoint's next matrix,
    /// which must carry this name and shape, and `init` is never called;
    /// once the checkpoint refuses a registration, nothing more is claimed,
    /// the ids returned name no parameter, and [`ParamStore::finish_load`]
    /// reports why.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        rows: usize,
        cols: usize,
        init: impl FnOnce() -> Matrix,
    ) -> ParamId {
        let name = name.into();
        let i = match self.checkpoint {
            None => {
                let value = init();
                debug_assert_eq!(value.shape(), (rows, cols), "{name}");
                self.names.push(name);
                self.values.push(value);
                return ParamId(self.values.len() - 1);
            }
            Some(Ok(claimed)) => claimed,
            Some(Err(_)) => return ParamId(self.values.len()),
        };
        let refusal = match self.values.get(i) {
            None => format!("parameter {i} ({name}) is missing from the checkpoint"),
            Some(_) if self.names[i] != name => format!(
                "parameter {i} name mismatch: registered {name}, checkpoint has {}",
                self.names[i]
            ),
            Some(m) if m.shape() != (rows, cols) => format!(
                "parameter {i} ({name}) shape mismatch: registered {rows}x{cols}, \
                 checkpoint has {}x{}",
                m.rows(),
                m.cols()
            ),
            Some(_) => {
                self.checkpoint = Some(Ok(i + 1));
                return ParamId(i);
            }
        };
        self.checkpoint = Some(Err(refusal));
        ParamId(self.values.len())
    }

    /// [`ParamStore::register`] with the value at hand.
    pub fn add(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
        let (rows, cols) = value.shape();
        self.register(name, rows, cols, || value)
    }

    /// Whether no registration has been refused: a caller registering a
    /// claimed number of networks on a loaded store stops at the first
    /// refusal, so a header buys no more work than its stream holds.
    pub fn accepts(&self) -> bool {
        !matches!(self.checkpoint, Some(Err(_)))
    }

    /// Ends registration on the store [`ParamStore::load`] returned: a
    /// refused registration, or a parameter of the checkpoint that nothing
    /// registered, is [`io::ErrorKind::InvalidData`]. The store is an
    /// ordinary one afterwards.
    pub fn finish_load(&mut self) -> io::Result<()> {
        match self.checkpoint.take() {
            Some(Err(why)) => Err(invalid(why)),
            Some(Ok(claimed)) if claimed < self.values.len() => Err(invalid(format!(
                "the checkpoint has {} parameters, the architecture registers {claimed}",
                self.values.len()
            ))),
            _ => Ok(()),
        }
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Parameter value by id.
    pub fn value(&self, id: ParamId) -> &Matrix {
        &self.values[id.0]
    }

    /// Mutable parameter value by id (used by optimizers and projections).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.values[id.0]
    }

    /// Parameter name by id.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Iterates over all ids.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.values.len()).map(ParamId)
    }

    /// Moves the values of `ids` into a store of the same parameters that
    /// holds only those (every other value is empty): a worker that
    /// updates just these parameters owns them for a while, and
    /// [`ParamStore::swap_values`] trades them back.
    pub fn lend(&mut self, ids: &[ParamId]) -> ParamStore {
        let mut lent = ParamStore {
            names: self.names.clone(),
            values: vec![Matrix::default(); self.values.len()],
            checkpoint: None,
        };
        lent.swap_values(self, ids);
        lent
    }

    /// Swaps the values of `ids` between `self` and `other`.
    pub fn swap_values(&mut self, other: &mut ParamStore, ids: &[ParamId]) {
        for id in ids {
            std::mem::swap(&mut self.values[id.0], &mut other.values[id.0]);
        }
    }

    /// Records this parameter's current value on the tape. The value is
    /// copied into the tape's recycled leaf buffer — no allocation once the
    /// (reused) tape has warmed up.
    pub fn inject(&self, g: &mut Graph, id: ParamId) -> Var {
        g.param_leaf(id, &self.values[id.0])
    }

    /// Writes all parameters to `w` in the checkpoint format.
    pub fn save(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(MAGIC)?;
        write_u64(w, self.values.len() as u64)?;
        for (name, m) in self.names.iter().zip(&self.values) {
            write_u32(w, name.len() as u32)?;
            w.write_all(name.as_bytes())?;
            write_u64(w, m.rows() as u64)?;
            write_u64(w, m.cols() as u64)?;
            write_f32s(w, m.data().iter().copied())?;
        }
        Ok(())
    }

    /// Reads a checkpoint previously written by [`ParamStore::save`]. A
    /// matrix is allocated as its bytes arrive ([`crate::bytes`]), so a
    /// shape that passes the caps but outruns the stream costs a chunk,
    /// not the shape. The network that owns the parameters is then
    /// registered on the returned store, which hands out the checkpoint's
    /// matrices in order ([`ParamStore::register`]), and
    /// [`ParamStore::finish_load`] checks that it took them all.
    pub fn load(r: &mut impl Read) -> io::Result<Self> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(invalid("bad checkpoint magic"));
        }
        let count = read_len(r, MAX_PARAMS, "parameter count")?;
        let mut store = ParamStore {
            checkpoint: Some(Ok(0)),
            ..ParamStore::default()
        };
        for _ in 0..count {
            let name_len = check_len(read_u32(r)?.into(), MAX_NAME_LEN, "name length")?;
            let name = read_utf8(r, name_len, "parameter name")?;
            let rows = read_u64(r)?;
            let cols = read_u64(r)?;
            let scalars = rows
                .checked_mul(cols)
                .filter(|&n| n <= MAX_MATRIX_SCALARS)
                .ok_or_else(|| invalid(format!("implausible matrix shape {rows}x{cols}")))?;
            let data = read_f32s(r, scalars as usize)?;
            store.names.push(name);
            store
                .values
                .push(Matrix::from_vec(rows as usize, cols as usize, data));
        }
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn save_load_roundtrip() {
        let mut store = ParamStore::new();
        let w = store.add(
            "layer0.w",
            Matrix::from_fn(3, 4, |i, j| (i * 4 + j) as f32 * 0.1),
        );
        let b = store.add("layer0.b", Matrix::row_vector(&[1.0, -2.0, 3.5, 0.0]));

        let mut buf = Vec::new();
        store.save(&mut buf).unwrap();
        let loaded = ParamStore::load(&mut buf.as_slice()).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded.value(w), store.value(w));
        assert_eq!(loaded.value(b), store.value(b));
        assert_eq!(loaded.name(w), "layer0.w");
    }

    /// On a loaded store, registration takes the checkpoint's matrices in
    /// order and never calls `init`; a renamed, reshaped, missing or
    /// leftover parameter is refused by `finish_load`.
    #[test]
    fn registration_on_a_loaded_store_claims_the_checkpoint() {
        let mut store = ParamStore::new();
        store.add("a", Matrix::from_fn(2, 3, |i, j| (i * 3 + j) as f32));
        store.add("b", Matrix::row_vector(&[7.0, 8.0]));
        let mut buf = Vec::new();
        store.save(&mut buf).unwrap();
        let never = || -> Matrix { panic!("a loaded store draws no value") };

        let mut loaded = ParamStore::load(&mut buf.as_slice()).unwrap();
        let a = loaded.register("a", 2, 3, never);
        let b = loaded.register("b", 1, 2, never);
        assert!(loaded.accepts());
        loaded.finish_load().unwrap();
        assert_eq!(loaded.value(a), store.value(a));
        assert_eq!(loaded.value(b), store.value(b));
        // an ordinary store afterwards
        let c = loaded.register("c", 1, 1, || Matrix::zeros(1, 1));
        assert_eq!(loaded.name(c), "c");

        let refusal = |register: &dyn Fn(&mut ParamStore)| {
            let mut loaded = ParamStore::load(&mut buf.as_slice()).unwrap();
            register(&mut loaded);
            let err = loaded.finish_load().unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            err.to_string()
        };
        let renamed = refusal(&|s| {
            s.register("a", 2, 3, never);
            s.register("c", 1, 2, never);
        });
        assert!(renamed.contains("name mismatch"), "{renamed}");
        let reshaped = refusal(&|s| {
            s.register("a", 3, 2, never);
            assert!(!s.accepts());
            // nothing more is claimed once a registration was refused
            s.register("b", 1, 2, never);
        });
        assert!(reshaped.contains("shape mismatch"), "{reshaped}");
        let missing = refusal(&|s| {
            s.register("a", 2, 3, never);
            s.register("b", 1, 2, never);
            s.register("c", 1, 1, never);
        });
        assert!(missing.contains("missing"), "{missing}");
        let leftover = refusal(&|s| {
            s.register("a", 2, 3, never);
        });
        assert!(leftover.contains("registers 1"), "{leftover}");
    }

    #[test]
    fn load_rejects_bad_magic() {
        let buf = b"NOTMAGIC\x00\x00\x00\x00\x00\x00\x00\x00".to_vec();
        assert!(ParamStore::load(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn inject_and_collect_grads() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let mut g = Graph::new();
        let wv = store.inject(&mut g, w);
        let sq = g.square(wv);
        let loss = g.sum(sq);
        g.backward(loss);
        let grads = g.param_grads();
        assert_eq!(grads.len(), 1);
        assert_eq!(grads[0].0, w);
        assert_eq!(grads[0].1.data(), &[2.0, 4.0, 6.0, 8.0]);
    }
}
