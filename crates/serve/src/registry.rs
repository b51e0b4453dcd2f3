//! Multi-tenant model registry: a named map of hot-swappable tenants.
//!
//! Each [`Tenant`] owns one generation-counted model slot, its own
//! serving counters ([`ServeStats`]), and its own background-update
//! ([`Tenant::spawn_update`]) lifecycle — the single-model registry of
//! PR 4, multiplied by a name. Readers resolve a tenant once per request
//! ([`ModelRegistry::resolve`]) and then call [`Tenant::current`] to get
//! `(generation, Arc)` — a consistent snapshot they hold for the
//! duration of one batch. A publisher ([`Tenant::publish`] or a
//! background [`Tenant::spawn_update`] worker) replaces the `Arc` under
//! a short write lock; in-flight batches keep serving from the
//! generation they bound, so a swap never tears a response, and a swap
//! of one tenant is invisible to every other tenant.
//!
//! ## Lock poisoning
//!
//! Registry locks **recover** instead of propagating panics: a worker
//! thread that dies while holding a slot lock must not take every future
//! reader down with it. Recovery is sound here because no critical
//! section leaves the slot in a half-written state — `publish` builds
//! the new `Arc` before taking the lock, so a poisoned slot still holds
//! the last fully-published `(generation, model)` pair.

use crate::stats::ServeStats;
use std::sync::{Arc, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// The name under which [`ModelRegistry::new`] registers its single
/// model, and the tenant unrouted (`model: None`) requests reach.
pub const DEFAULT_MODEL: &str = "default";

/// Reads a lock, recovering the last published value if a panicking
/// holder poisoned it.
fn read_recover<T>(lock: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Writes a lock, recovering the last published value if a panicking
/// holder poisoned it.
fn write_recover<T>(lock: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// One named dataset/model pair: a hot-swappable slot plus the tenant's
/// own serving counters. `M` is typically
/// [`PartitionedSelNet`](selnet_core::PartitionedSelNet) but any
/// estimator works — the tenant itself never calls into the model.
pub struct Tenant<M> {
    name: String,
    slot: RwLock<(u64, Arc<M>)>,
    stats: Arc<ServeStats>,
}

impl<M> Tenant<M> {
    fn new(name: String, model: M) -> Self {
        Tenant {
            name,
            slot: RwLock::new((0, Arc::new(model))),
            stats: Arc::new(ServeStats::new()),
        }
    }

    /// The tenant's registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// This tenant's serving counters.
    pub fn stats(&self) -> &Arc<ServeStats> {
        &self.stats
    }

    /// The generation and model currently being served. The `Arc` keeps
    /// the snapshot alive even if a publish lands immediately after.
    pub fn current(&self) -> (u64, Arc<M>) {
        let guard = read_recover(&self.slot);
        (guard.0, Arc::clone(&guard.1))
    }

    /// The current generation number (0 until the first publish).
    pub fn generation(&self) -> u64 {
        read_recover(&self.slot).0
    }

    /// Atomically replaces the served model, returning the new
    /// generation. In-flight readers holding the previous `Arc` are
    /// unaffected.
    pub fn publish(&self, model: M) -> u64 {
        // build the Arc before taking the lock: the critical section is
        // two plain stores, so even a poisoned slot is never half-written
        let model = Arc::new(model);
        let mut guard = write_recover(&self.slot);
        guard.0 += 1;
        guard.1 = model;
        guard.0
    }

    /// [`Tenant::publish`] plus the swap's cost in the tenant's retrain
    /// histogram (`selnet_retrain_us`) and, when the global recorder is
    /// armed, a `retrain_publish` span — how `spawn_update` makes a hot
    /// swap observable. `update_ms` is the wall-clock cost of producing
    /// the new model; pass 0 when unknown.
    pub fn publish_traced(&self, model: M, update_ms: f64) -> u64 {
        let generation = self.publish(model);
        self.stats.record_retrain_ms(update_ms);
        let recorder = selnet_obs::trace::global();
        if recorder.is_enabled() {
            let dur_ns = (update_ms.max(0.0) * 1e6) as u64;
            let end_ns = recorder.now_ns();
            recorder.record(
                "retrain_publish",
                0,
                end_ns.saturating_sub(dur_ns),
                dur_ns,
                generation,
                0,
            );
        }
        generation
    }
}

impl<M: Clone + Send + Sync + 'static> Tenant<M> {
    /// Runs `update` on a **clone** of the current model on a background
    /// thread, then publishes the result — the serving side of §5.4: the
    /// old snapshot keeps answering queries for the whole retrain, and
    /// the new model becomes visible atomically. Other tenants are
    /// untouched.
    ///
    /// `update` returns its own report (e.g.
    /// [`UpdateDecision`](selnet_core::UpdateDecision)); the handle
    /// yields `(report, new_generation)` on [`UpdateHandle::wait`].
    pub fn spawn_update<R, F>(self: &Arc<Self>, update: F) -> UpdateHandle<R>
    where
        R: Send + 'static,
        F: FnOnce(&mut M) -> R + Send + 'static,
    {
        let tenant = Arc::clone(self);
        let join = std::thread::spawn(move || {
            let started = Instant::now();
            let mut model = (*tenant.current().1).clone();
            let report = update(&mut model);
            let update_ms = started.elapsed().as_secs_f64() * 1e3;
            let generation = tenant.publish_traced(model, update_ms);
            (report, generation)
        });
        UpdateHandle { join }
    }
}

/// A named map of hot-swappable tenants. Lookup is by model id
/// ([`ModelRegistry::get`]); unrouted requests resolve to the
/// **default tenant** — the first one registered.
pub struct ModelRegistry<M> {
    tenants: RwLock<Vec<Arc<Tenant<M>>>>,
}

/// Why [`ModelRegistry::register`] refused a tenant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RegisterError {
    /// A tenant with this name already exists.
    DuplicateName(String),
    /// The name is empty, too long, or contains characters the wire/text
    /// protocols reserve (whitespace, `|`, `@`, `=`, `#`).
    InvalidName(String),
}

impl std::fmt::Display for RegisterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegisterError::DuplicateName(n) => write!(f, "tenant {n:?} already registered"),
            RegisterError::InvalidName(n) => write!(f, "invalid tenant name {n:?}"),
        }
    }
}

impl std::error::Error for RegisterError {}

/// Whether `name` is usable as a tenant id across the binary protocol
/// (u16-length field), replay lines (`@name` token), and the CLI
/// (`--model name=path`).
pub fn valid_model_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= crate::protocol::MAX_MODEL_LEN as usize
        && !name
            .chars()
            .any(|c| c.is_whitespace() || matches!(c, '|' | '@' | '=' | '#' | '?' | '!'))
}

impl<M> ModelRegistry<M> {
    /// Creates a registry with no tenants; requests fail with
    /// `UnknownModel` until the first [`ModelRegistry::register`].
    pub fn empty() -> Self {
        ModelRegistry {
            tenants: RwLock::new(Vec::new()),
        }
    }

    /// Creates a registry serving `model` as the default tenant
    /// ([`DEFAULT_MODEL`]), generation 0 — the single-tenant shape.
    pub fn new(model: M) -> Self {
        let reg = ModelRegistry::empty();
        reg.register(DEFAULT_MODEL, model)
            .expect("default tenant name is valid");
        reg
    }

    /// Registers a new tenant under `name`, serving `model` as its
    /// generation 0. The first registered tenant becomes the default for
    /// unrouted requests.
    pub fn register(&self, name: &str, model: M) -> Result<Arc<Tenant<M>>, RegisterError> {
        if !valid_model_name(name) {
            return Err(RegisterError::InvalidName(name.to_string()));
        }
        let mut tenants = write_recover(&self.tenants);
        if tenants.iter().any(|t| t.name == name) {
            return Err(RegisterError::DuplicateName(name.to_string()));
        }
        let tenant = Arc::new(Tenant::new(name.to_string(), model));
        tenants.push(Arc::clone(&tenant));
        Ok(tenant)
    }

    /// Looks up a tenant by name.
    pub fn get(&self, name: &str) -> Option<Arc<Tenant<M>>> {
        read_recover(&self.tenants)
            .iter()
            .find(|t| t.name == name)
            .cloned()
    }

    /// The tenant unrouted requests reach: the first one registered.
    pub fn default_tenant(&self) -> Option<Arc<Tenant<M>>> {
        read_recover(&self.tenants).first().cloned()
    }

    /// Resolves an optional model id: `None` is the default tenant.
    pub fn resolve(&self, model: Option<&str>) -> Option<Arc<Tenant<M>>> {
        match model {
            Some(name) => self.get(name),
            None => self.default_tenant(),
        }
    }

    /// All tenants, in registration order.
    pub fn tenants(&self) -> Vec<Arc<Tenant<M>>> {
        read_recover(&self.tenants).clone()
    }

    /// Number of registered tenants.
    pub fn len(&self) -> usize {
        read_recover(&self.tenants).len()
    }

    /// Whether no tenant is registered.
    pub fn is_empty(&self) -> bool {
        read_recover(&self.tenants).is_empty()
    }
}

/// Handle to a background update spawned with [`Tenant::spawn_update`].
pub struct UpdateHandle<R> {
    join: JoinHandle<(R, u64)>,
}

impl<R> UpdateHandle<R> {
    /// Blocks until the retrain finishes and its model is published;
    /// returns the update's report and the generation it was published
    /// as.
    pub fn wait(self) -> (R, u64) {
        self.join.join().expect("update thread panicked")
    }

    /// Whether the background update has finished (published).
    pub fn is_finished(&self) -> bool {
        self.join.is_finished()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_bumps_generation_and_swaps() {
        let tenant = ModelRegistry::new(1u32).default_tenant().unwrap();
        assert_eq!(tenant.current().0, 0);
        assert_eq!(*tenant.current().1, 1);
        let generation = tenant.publish(2);
        assert_eq!(generation, 1);
        assert_eq!(*tenant.current().1, 2);
    }

    #[test]
    fn readers_keep_their_snapshot_across_a_swap() {
        let tenant = ModelRegistry::new(10u32).default_tenant().unwrap();
        let (g0, before) = tenant.current();
        tenant.publish(20);
        assert_eq!(*before, 10, "held Arc must still see the old model");
        let (g1, after) = tenant.current();
        assert_eq!((*after, g0, g1), (20, 0, 1));
    }

    #[test]
    fn spawn_update_publishes_the_updated_clone() {
        let tenant = ModelRegistry::new(5u32).default_tenant().unwrap();
        let handle = tenant.spawn_update(|m| {
            *m += 1;
            "done"
        });
        let (report, generation) = handle.wait();
        assert_eq!(report, "done");
        assert_eq!(generation, 1);
        assert_eq!(*tenant.current().1, 6);
    }

    #[test]
    fn named_tenants_are_independent() {
        let reg = ModelRegistry::empty();
        assert!(reg.is_empty());
        assert!(reg.resolve(None).is_none());
        let alpha = reg.register("alpha", 10u32).unwrap();
        let beta = reg.register("beta", 20u32).unwrap();
        assert_eq!(reg.len(), 2);

        // routing: by name, and unrouted -> first registered
        assert_eq!(*reg.get("alpha").unwrap().current().1, 10);
        assert_eq!(*reg.resolve(Some("beta")).unwrap().current().1, 20);
        assert_eq!(*reg.resolve(None).unwrap().current().1, 10);
        assert!(reg.get("gamma").is_none());
        assert!(reg.resolve(Some("gamma")).is_none());

        // publishing to one tenant leaves the other's generation alone
        alpha.publish(11);
        alpha.publish(12);
        assert_eq!(alpha.generation(), 2);
        assert_eq!(beta.generation(), 0);
        assert_eq!(*beta.current().1, 20);
    }

    #[test]
    fn register_rejects_duplicates_and_bad_names() {
        let reg = ModelRegistry::empty();
        reg.register("alpha", 1u32).unwrap();
        assert_eq!(
            reg.register("alpha", 2).err(),
            Some(RegisterError::DuplicateName("alpha".into()))
        );
        for bad in ["", "has space", "pipe|y", "@at", "eq=ual", "#hash", "?q"] {
            assert_eq!(
                reg.register(bad, 3).err(),
                Some(RegisterError::InvalidName(bad.into())),
                "{bad:?} must be rejected"
            );
        }
        // still exactly one tenant
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn tenant_spawn_update_touches_only_its_tenant() {
        let reg = Arc::new(ModelRegistry::<u32>::empty());
        let alpha = reg.register("alpha", 5).unwrap();
        let beta = reg.register("beta", 100).unwrap();
        let handle = alpha.spawn_update(|m| {
            *m += 1;
        });
        let ((), generation) = handle.wait();
        assert_eq!(generation, 1);
        assert_eq!(*alpha.current().1, 6);
        assert_eq!(beta.generation(), 0);
        assert_eq!(*beta.current().1, 100);
    }

    /// A panicking holder poisons the slot lock; readers and publishers
    /// must recover the last published generation, not panic themselves.
    #[test]
    fn poisoned_slot_recovers_last_generation() {
        let tenant = ModelRegistry::new(7u32).default_tenant().unwrap();
        tenant.publish(8);
        // poison the slot lock: panic while holding the read guard
        let t2 = Arc::clone(&tenant);
        let _ = std::thread::spawn(move || {
            let _guard = t2.slot.read().unwrap();
            panic!("poison the slot");
        })
        .join();
        // readers recover the last published state
        let (generation, model) = tenant.current();
        assert_eq!((generation, *model), (1, 8));
        assert_eq!(tenant.generation(), 1);
        // and publishing still works on the recovered slot
        assert_eq!(tenant.publish(9), 2);
        assert_eq!(*tenant.current().1, 9);
    }

    #[test]
    fn traced_publishes_land_in_the_retrain_histogram() {
        let tenant = ModelRegistry::new(0u32).default_tenant().unwrap();
        tenant.publish(1); // untraced: not a retrain
        assert_eq!(tenant.publish_traced(2, 3.5), 2);
        let handle = tenant.spawn_update(|m| *m += 10);
        let ((), generation) = handle.wait();
        assert_eq!(generation, 3);
        // the traced publish and the spawn_update, not the plain publish
        let retrain = tenant.stats().retrain_histogram();
        assert_eq!(retrain.count, 2);
        assert!(
            retrain.max >= 3_500,
            "3.5 ms is 3500 µs, got {}",
            retrain.max
        );
    }

    /// Same for the tenant-map lock: a panic during lookup must not wedge
    /// registration or resolution.
    #[test]
    fn poisoned_tenant_map_recovers() {
        let reg = Arc::new(ModelRegistry::new(1u32));
        let r2 = Arc::clone(&reg);
        let _ = std::thread::spawn(move || {
            let _guard = r2.tenants.read().unwrap();
            panic!("poison the map");
        })
        .join();
        assert_eq!(*reg.resolve(None).unwrap().current().1, 1);
        reg.register("alpha", 2).unwrap();
        assert_eq!(*reg.get("alpha").unwrap().current().1, 2);
    }

    #[test]
    fn concurrent_publishers_and_readers_do_not_tear() {
        let tenant = ModelRegistry::new(0u64).default_tenant().unwrap();
        std::thread::scope(|s| {
            for _ in 0..2 {
                let tenant = &tenant;
                s.spawn(move || {
                    for i in 1..=100u64 {
                        tenant.publish(i);
                    }
                });
            }
            for _ in 0..4 {
                let tenant = &tenant;
                s.spawn(move || {
                    for _ in 0..200 {
                        let (generation, v) = tenant.current();
                        assert!(generation <= 200);
                        assert!(*v <= 100);
                    }
                });
            }
        });
        assert_eq!(tenant.generation(), 200);
    }
}
