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

use crate::bytes::{read_f32, read_u32, read_u64, write_f32, write_u32, write_u64};
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
const MAX_PARAMS: u64 = 1 << 24;
const MAX_NAME_LEN: u32 = 1 << 16;
const MAX_MATRIX_SCALARS: u64 = 1 << 31;

/// Owns named trainable parameters.
#[derive(Default, Clone)]
pub struct ParamStore {
    names: Vec<String>,
    values: Vec<Matrix>,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter and returns its id.
    pub fn add(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
        self.names.push(name.into());
        self.values.push(value);
        ParamId(self.values.len() - 1)
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
            let bytes = name.as_bytes();
            write_u32(w, bytes.len() as u32)?;
            w.write_all(bytes)?;
            write_u64(w, m.rows() as u64)?;
            write_u64(w, m.cols() as u64)?;
            for &x in m.data() {
                write_f32(w, x)?;
            }
        }
        Ok(())
    }

    /// Reads a checkpoint previously written by [`ParamStore::save`].
    pub fn load(r: &mut impl Read) -> io::Result<Self> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "bad checkpoint magic",
            ));
        }
        let count = read_u64(r)?;
        if count > MAX_PARAMS {
            return Err(invalid_data(format!("implausible parameter count {count}")));
        }
        let mut store = ParamStore::new();
        for _ in 0..count {
            let name_len = read_u32(r)?;
            if name_len > MAX_NAME_LEN {
                return Err(invalid_data(format!("implausible name length {name_len}")));
            }
            let mut name = vec![0u8; name_len as usize];
            r.read_exact(&mut name)?;
            let name = String::from_utf8(name).map_err(|_| invalid_data("bad utf8 name"))?;
            let rows = read_u64(r)?;
            let cols = read_u64(r)?;
            let scalars = rows
                .checked_mul(cols)
                .filter(|&n| n <= MAX_MATRIX_SCALARS)
                .ok_or_else(|| invalid_data(format!("implausible matrix shape {rows}x{cols}")))?;
            let mut data = vec![0.0f32; scalars as usize];
            for x in &mut data {
                *x = read_f32(r)?;
            }
            store.add(name, Matrix::from_vec(rows as usize, cols as usize, data));
        }
        Ok(store)
    }

    /// Copies values from `other` into `self` by position.
    ///
    /// # Panics
    /// Panics if the stores have different parameter counts or shapes.
    pub fn copy_from(&mut self, other: &ParamStore) {
        self.try_copy_from(other).expect("param store mismatch");
    }

    /// Fallible [`ParamStore::copy_from`]: returns a description of the
    /// first count/shape mismatch instead of panicking. Model loaders use
    /// this so a corrupted checkpoint surfaces as a typed error.
    pub fn try_copy_from(&mut self, other: &ParamStore) -> Result<(), String> {
        if self.values.len() != other.values.len() {
            return Err(format!(
                "param count mismatch: expected {}, checkpoint has {}",
                self.values.len(),
                other.values.len()
            ));
        }
        for (i, (a, b)) in self.values.iter().zip(&other.values).enumerate() {
            if a.shape() != b.shape() {
                return Err(format!(
                    "param {i} ({}) shape mismatch: expected {:?}, checkpoint has {:?}",
                    self.names[i],
                    a.shape(),
                    b.shape()
                ));
            }
        }
        for (a, b) in self.values.iter_mut().zip(&other.values) {
            a.data_mut().copy_from_slice(b.data());
        }
        Ok(())
    }
}

fn invalid_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
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
