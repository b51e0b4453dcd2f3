//! A stream's length fields are claims, and a claim is not an
//! allocation: each decoder below is fed a short stream whose header asks
//! for gigabytes, and must refuse it with a typed error after asking the
//! allocator for less than a mebibyte. This file is a test binary of its
//! own because it installs a counting global allocator.

use selnet_core::{fit, PartitionedSelNet, SelNetConfig};
use selnet_data::generators::{fasttext_like, GeneratorConfig};
use selnet_index::Partitioning;
use selnet_metric::DistanceKind;
use selnet_tensor::ParamStore;
use selnet_workload::{generate_workload, WorkloadConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io;

/// The system allocator, counting the bytes each thread asks for.
struct Counting;

thread_local! {
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    let _ = REQUESTED.try_with(|r| r.set(r.get().saturating_add(bytes)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are the caller's; counting touches no allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const MIB: usize = 1 << 20;

/// Runs `load` and asserts that it refused its stream with a typed error
/// after asking for less than a mebibyte; returns the error.
fn assert_refused_cheaply<T>(what: &str, load: impl FnOnce() -> io::Result<T>) -> io::Error {
    REQUESTED.with(|r| r.set(0));
    let result = load();
    let requested = REQUESTED.with(|r| r.get());
    let Err(e) = result else {
        panic!("{what}: a hostile stream loaded")
    };
    assert!(
        matches!(
            e.kind(),
            io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
        ),
        "{what}: {e} ({:?})",
        e.kind()
    );
    assert!(
        requested < MIB,
        "{what}: {requested} bytes requested while refusing the stream"
    );
    e
}

/// A 36-byte `SELNETW1` weight stream: one parameter, unnamed, claiming
/// 65 536 × 32 768 `f32`s (8 GiB, within the 2^31-scalar cap), and no
/// weights.
fn huge_weight_stream() -> Vec<u8> {
    let mut s = b"SELNETW1".to_vec();
    s.extend(1u64.to_le_bytes()); // parameters
    s.extend(0u32.to_le_bytes()); // name length
    s.extend(65_536u64.to_le_bytes()); // rows
    s.extend(32_768u64.to_le_bytes()); // cols
    assert_eq!(s.len(), 36);
    s
}

#[test]
fn a_weight_stream_claiming_8_gib_is_refused_without_allocating_it() {
    let stream = huge_weight_stream();
    assert_refused_cheaply("SELNETW1", || ParamStore::load(&mut stream.as_slice()));
}

/// A 42-byte partitioning stream: one part, a random method, no
/// assignments, and one region table that claims 2^31 balls of
/// dimension 16, then ends.
#[test]
fn a_partitioning_claiming_2_31_balls_is_refused_without_allocating_them() {
    let mut s = 1u64.to_le_bytes().to_vec(); // k
    s.push(0); // Euclidean
    s.push(1); // random partitioning
    s.extend(0u64.to_le_bytes()); // assignments
    s.extend(1u64.to_le_bytes()); // region clusters
    s.extend((1u64 << 31).to_le_bytes()); // balls in the cluster
    s.extend(16u64.to_le_bytes()); // the first ball's dimension
    assert_eq!(s.len(), 42);
    assert_refused_cheaply("partitioning", || Partitioning::load(&mut s.as_slice()));
}

/// The tiny fixture's model (`fit`, so one local network) and its
/// snapshot.
fn tiny_snapshot() -> (PartitionedSelNet, SelNetConfig, Vec<u8>) {
    let ds = fasttext_like(&GeneratorConfig::new(200, 4, 2, 5));
    let mut wcfg = WorkloadConfig::new(12, DistanceKind::Euclidean, 6);
    wcfg.thresholds_per_query = 4;
    let w = generate_workload(&ds, &wcfg);
    let cfg = SelNetConfig {
        epochs: 1,
        ..SelNetConfig::tiny()
    };
    let (model, _) = fit(&ds, &w, &cfg);
    let mut snapshot = Vec::new();
    model.save(&mut snapshot).expect("save to memory");
    (model, cfg, snapshot)
}

/// A valid snapshot whose header claims 65 536 local networks of
/// 1 024-layer τ and p MLPs, then a 26-byte partitioning of 65 536 parts
/// (random, so no assignments and no regions) and the real weight stream
/// of one small network. Registration must stop at the first parameter
/// the stream cannot answer, not walk the claimed architecture.
#[test]
fn a_snapshot_claiming_65_536_deep_networks_is_refused_within_its_stream() {
    let (model, cfg, snapshot) = tiny_snapshot();
    let w_at = snapshot
        .windows(8)
        .position(|m| m == b"SELNETW1")
        .expect("a snapshot embeds one weight stream");
    let mut partitioning = Vec::new();
    model.partitioning().save(&mut partitioning).expect("save");
    let k_at = w_at - partitioning.len() - 8;
    assert_eq!(snapshot[k_at..k_at + 8], 1u64.to_le_bytes());
    // magic, version, control points, latent and embedding widths
    let tau_at = 8 + 4 + 3 * 8;
    let p_at = tau_at + 8 * (1 + cfg.tau_hidden.len());
    let ae_at = p_at + 8 * (1 + cfg.p_hidden.len());
    assert_eq!(snapshot[tau_at..tau_at + 8], 1u64.to_le_bytes());

    let deep = |s: &mut Vec<u8>, width: usize| {
        s.extend(1024u64.to_le_bytes());
        (0..1024).for_each(|_| s.extend((width as u64).to_le_bytes()));
    };
    let mut hostile = snapshot[..tau_at].to_vec();
    deep(&mut hostile, cfg.tau_hidden[0]);
    deep(&mut hostile, cfg.p_hidden[0]);
    hostile.extend(&snapshot[ae_at..k_at]);
    hostile.extend(65_536u64.to_le_bytes()); // local networks
    let mut parts = 65_536u64.to_le_bytes().to_vec(); // k
    parts.push(0); // Euclidean
    parts.push(1); // random partitioning
    parts.extend(0u64.to_le_bytes()); // assignments
    parts.extend(0u64.to_le_bytes()); // region clusters
    assert_eq!(parts.len(), 26);
    hostile.extend(parts);
    hostile.extend(&snapshot[w_at..]);
    let err = assert_refused_cheaply("SELNETP1", || {
        PartitionedSelNet::load(&mut hostile.as_slice())
    });
    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
}

/// A valid snapshot whose weight stream is swapped for the 36-byte one:
/// the header and the partitioning load, and the weights must be refused
/// before the header's architecture is checked against them.
#[test]
fn a_snapshot_with_a_hostile_weight_stream_is_refused_without_allocating_it() {
    let ds = fasttext_like(&GeneratorConfig::new(200, 4, 2, 5));
    let mut wcfg = WorkloadConfig::new(12, DistanceKind::Euclidean, 6);
    wcfg.thresholds_per_query = 4;
    let w = generate_workload(&ds, &wcfg);
    let cfg = SelNetConfig {
        epochs: 1,
        ..SelNetConfig::tiny()
    };
    let (model, _) = fit(&ds, &w, &cfg);
    let mut snapshot = Vec::new();
    model.save(&mut snapshot).expect("save to memory");
    let at = snapshot
        .windows(8)
        .position(|m| m == b"SELNETW1")
        .expect("a snapshot embeds one weight stream");
    snapshot.truncate(at);
    snapshot.extend(huge_weight_stream());
    assert_refused_cheaply("SELNETP1", || {
        PartitionedSelNet::load(&mut snapshot.as_slice())
    });
}
