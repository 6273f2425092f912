//! Multi-tenant sharded index registry (DESIGN.md §14).
//!
//! A serving process that answers for one genome wastes the machine: the
//! six species profiles of Fig. 14 are independent references whose
//! indexes can sit side by side, each serving its own clients. The
//! registry owns that set:
//!
//! * **Tenants** are named references built deterministically from a
//!   [`Species`] profile at a chosen scale — the same `(species, scale)`
//!   always synthesizes the same genome (the species seed is fixed), so an
//!   evicted tenant reloads bit-identically and clients never need to ship
//!   reference data.
//! * **Shards** are deterministic traffic partitions of a tenant: request
//!   routing hashes the client's genome-region hint (or, absent one, the
//!   read itself) onto `0..shards`. Every shard serves the whole reference
//!   through a cheap [`Arc<ReferenceIndex>`] clone (the flattened genome
//!   is already shared, PR 4), which keeps responses bit-identical to the
//!   offline aligner no matter which shard answers and makes rerouting
//!   around a dead shard trivially correct.
//! * **Memory budget + LRU**: loading a tenant that would exceed the
//!   configured budget evicts the least-recently-used *idle* tenant
//!   first. A tenant with requests in flight is never evicted, and a
//!   budget smaller than a single tenant is a clean error, not a thrash.
//! * **Admission quotas**: each tenant may carry a cap on concurrently
//!   admitted requests. [`IndexRegistry::try_admit`] hands out RAII
//!   [`AdmitGuard`]s, so the in-flight count is exactly-once by `Drop` —
//!   panic-safe, no manual decrement to forget.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use nvwa_align::pipeline::ReferenceIndex;
use nvwa_genome::species::Species;
use nvwa_telemetry::JsonValue;

/// Default suffix-array sampling rate for tenant indexes (matches the
/// serving default used by `nvwa serve`).
pub const DEFAULT_SA_RATE: u32 = 32;

/// One tenant's configuration.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Registry name (wire `tenant` field). Defaults to [`Species::key`].
    pub name: String,
    /// Species profile the reference is synthesized from.
    pub species: Species,
    /// Genome scale factor (see [`Species::reference_params`]).
    pub scale: f64,
    /// Number of traffic shards (≥ 1).
    pub shards: usize,
    /// Maximum concurrently admitted requests; `None` = unlimited.
    pub quota: Option<u64>,
    /// Suffix-array sampling rate for the tenant's index.
    pub sa_rate: u32,
}

impl TenantSpec {
    /// A single-shard, unlimited-quota tenant named by the species key.
    pub fn new(species: Species, scale: f64) -> TenantSpec {
        TenantSpec {
            name: species.key().to_string(),
            species,
            scale,
            shards: 1,
            quota: None,
            sa_rate: DEFAULT_SA_RATE,
        }
    }
}

/// Registry failures, each naming the violated constraint.
#[derive(Debug, Clone, PartialEq)]
pub enum RegistryError {
    /// No tenant with that name is registered.
    UnknownTenant(String),
    /// A tenant with that name already exists.
    DuplicateTenant(String),
    /// The tenant alone exceeds the whole memory budget — no eviction
    /// schedule can ever fit it.
    BudgetTooSmall {
        /// Tenant being loaded.
        tenant: String,
        /// Bytes the tenant's index needs.
        need: usize,
        /// The configured budget.
        budget: usize,
    },
    /// The budget is exceeded but every loaded tenant has requests in
    /// flight — nothing is evictable right now.
    EvictionBlocked {
        /// Tenant being loaded.
        tenant: String,
        /// Bytes still missing after evicting everything idle.
        need: usize,
    },
    /// Eviction refused: the tenant has requests in flight.
    TenantInFlight {
        /// The tenant.
        tenant: String,
        /// Its current in-flight count.
        in_flight: u64,
    },
    /// The tenant's admission quota is exhausted.
    QuotaExhausted {
        /// The tenant.
        tenant: String,
        /// The configured quota.
        limit: u64,
    },
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::UnknownTenant(t) => write!(f, "unknown tenant {t:?}"),
            RegistryError::DuplicateTenant(t) => write!(f, "tenant {t:?} already registered"),
            RegistryError::BudgetTooSmall {
                tenant,
                need,
                budget,
            } => write!(
                f,
                "tenant {tenant:?} needs {need} bytes but the registry budget is {budget} bytes"
            ),
            RegistryError::EvictionBlocked { tenant, need } => write!(
                f,
                "cannot load tenant {tenant:?}: {need} bytes over budget and every \
                 loaded tenant is in flight"
            ),
            RegistryError::TenantInFlight { tenant, in_flight } => write!(
                f,
                "cannot evict tenant {tenant:?}: {in_flight} requests in flight"
            ),
            RegistryError::QuotaExhausted { tenant, limit } => {
                write!(f, "tenant {tenant:?} admission quota ({limit}) exhausted")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

/// RAII token for one admitted request: holding it counts against the
/// tenant's quota; dropping it (response written, or any failure path)
/// releases the slot. Exactly-once by construction.
#[derive(Debug)]
pub struct AdmitGuard {
    in_flight: Arc<AtomicU64>,
}

impl Drop for AdmitGuard {
    fn drop(&mut self) {
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

struct TenantEntry {
    spec: TenantSpec,
    /// `None` while evicted.
    index: Option<Arc<ReferenceIndex>>,
    /// Heap bytes of the loaded index (0 while evicted).
    mem_bytes: usize,
    /// Logical-clock timestamp of the last checkout (LRU order).
    last_used: u64,
    /// Requests admitted and not yet answered. Shared with the guards.
    in_flight: Arc<AtomicU64>,
    /// Times the index has been (re)built — an eviction/reload odometer.
    loads: u64,
}

struct Inner {
    tenants: HashMap<String, TenantEntry>,
    clock: u64,
}

/// The registry: named tenants under one optional memory budget.
pub struct IndexRegistry {
    inner: Mutex<Inner>,
    /// Total index bytes allowed across loaded tenants; `None` = unbounded.
    budget: Option<usize>,
}

impl IndexRegistry {
    /// An empty registry with an optional byte budget.
    pub fn new(budget: Option<usize>) -> IndexRegistry {
        IndexRegistry {
            inner: Mutex::new(Inner {
                tenants: HashMap::new(),
                clock: 0,
            }),
            budget,
        }
    }

    /// The configured budget.
    pub fn budget(&self) -> Option<usize> {
        self.budget
    }

    /// Total heap bytes of currently loaded tenant indexes.
    pub fn mem_used(&self) -> usize {
        let inner = self.inner.lock().unwrap();
        inner.tenants.values().map(|t| t.mem_bytes).sum()
    }

    /// Registers and loads a tenant, evicting LRU idle tenants if the
    /// budget requires it.
    ///
    /// # Errors
    ///
    /// [`RegistryError::DuplicateTenant`], [`RegistryError::BudgetTooSmall`]
    /// or [`RegistryError::EvictionBlocked`].
    pub fn load(&self, spec: TenantSpec) -> Result<Arc<ReferenceIndex>, RegistryError> {
        let mut inner = self.inner.lock().unwrap();
        if inner.tenants.contains_key(&spec.name) {
            return Err(RegistryError::DuplicateTenant(spec.name));
        }
        let name = spec.name.clone();
        inner.tenants.insert(
            name.clone(),
            TenantEntry {
                spec,
                index: None,
                mem_bytes: 0,
                last_used: 0,
                in_flight: Arc::new(AtomicU64::new(0)),
                loads: 0,
            },
        );
        self.checkout_locked(&mut inner, &name)
    }

    /// Returns the tenant's index, rebuilding it if it was evicted (the
    /// rebuild is bit-identical: the species seed is fixed). Bumps the
    /// tenant's LRU clock.
    ///
    /// # Errors
    ///
    /// [`RegistryError::UnknownTenant`], or a budget error on reload.
    pub fn checkout(&self, name: &str) -> Result<Arc<ReferenceIndex>, RegistryError> {
        let mut inner = self.inner.lock().unwrap();
        self.checkout_locked(&mut inner, name)
    }

    fn checkout_locked(
        &self,
        inner: &mut Inner,
        name: &str,
    ) -> Result<Arc<ReferenceIndex>, RegistryError> {
        inner.clock += 1;
        let clock = inner.clock;
        let entry = inner
            .tenants
            .get_mut(name)
            .ok_or_else(|| RegistryError::UnknownTenant(name.to_string()))?;
        entry.last_used = clock;
        if let Some(index) = &entry.index {
            return Ok(Arc::clone(index));
        }
        // (Re)build: deterministic from the species profile, so a reload
        // after eviction serves bit-identical responses.
        let spec = entry.spec.clone();
        let genome = spec.species.synthesize(spec.scale);
        let index = Arc::new(ReferenceIndex::build(&genome, spec.sa_rate));
        let need = index.heap_bytes();
        if let Some(budget) = self.budget {
            if need > budget {
                inner.tenants.remove(name);
                return Err(RegistryError::BudgetTooSmall {
                    tenant: name.to_string(),
                    need,
                    budget,
                });
            }
            self.evict_until_fits(inner, name, need, budget)?;
        }
        let entry = inner.tenants.get_mut(name).expect("entry present");
        entry.index = Some(Arc::clone(&index));
        entry.mem_bytes = need;
        entry.loads += 1;
        Ok(index)
    }

    /// Evicts LRU idle tenants (never `loading`) until `need` more bytes
    /// fit under `budget`.
    fn evict_until_fits(
        &self,
        inner: &mut Inner,
        loading: &str,
        need: usize,
        budget: usize,
    ) -> Result<(), RegistryError> {
        loop {
            let used: usize = inner.tenants.values().map(|t| t.mem_bytes).sum();
            if used + need <= budget {
                return Ok(());
            }
            let victim = inner
                .tenants
                .iter()
                .filter(|(n, t)| {
                    n.as_str() != loading
                        && t.index.is_some()
                        && t.in_flight.load(Ordering::Acquire) == 0
                })
                .min_by_key(|(_, t)| t.last_used)
                .map(|(n, _)| n.clone());
            match victim {
                Some(v) => {
                    let entry = inner.tenants.get_mut(&v).expect("victim present");
                    entry.index = None;
                    entry.mem_bytes = 0;
                }
                None => {
                    inner.tenants.remove(loading);
                    return Err(RegistryError::EvictionBlocked {
                        tenant: loading.to_string(),
                        need: used + need - budget,
                    });
                }
            }
        }
    }

    /// Explicitly evicts a tenant's index (the registration stays; the
    /// next [`IndexRegistry::checkout`] rebuilds bit-identically).
    /// Returns the bytes released.
    ///
    /// # Errors
    ///
    /// [`RegistryError::UnknownTenant`], or
    /// [`RegistryError::TenantInFlight`] — an in-flight tenant is never
    /// evicted.
    pub fn evict(&self, name: &str) -> Result<usize, RegistryError> {
        let mut inner = self.inner.lock().unwrap();
        let entry = inner
            .tenants
            .get_mut(name)
            .ok_or_else(|| RegistryError::UnknownTenant(name.to_string()))?;
        let in_flight = entry.in_flight.load(Ordering::Acquire);
        if in_flight > 0 {
            return Err(RegistryError::TenantInFlight {
                tenant: name.to_string(),
                in_flight,
            });
        }
        let freed = entry.mem_bytes;
        entry.index = None;
        entry.mem_bytes = 0;
        Ok(freed)
    }

    /// Admits one request against the tenant's quota. The returned guard
    /// must live until the response is written.
    ///
    /// # Errors
    ///
    /// [`RegistryError::UnknownTenant`] or
    /// [`RegistryError::QuotaExhausted`] — the `quota`-th concurrent
    /// request is admitted, the `quota + 1`-th is refused.
    pub fn try_admit(&self, name: &str) -> Result<AdmitGuard, RegistryError> {
        let inner = self.inner.lock().unwrap();
        let entry = inner
            .tenants
            .get(name)
            .ok_or_else(|| RegistryError::UnknownTenant(name.to_string()))?;
        let quota = entry.spec.quota;
        let counter = Arc::clone(&entry.in_flight);
        drop(inner);
        try_admit_counted(&counter, quota).ok_or_else(|| RegistryError::QuotaExhausted {
            tenant: name.to_string(),
            limit: quota.unwrap_or(u64::MAX),
        })
    }

    /// The tenant's spec (shards, quota, …), if registered.
    pub fn spec(&self, name: &str) -> Option<TenantSpec> {
        let inner = self.inner.lock().unwrap();
        inner.tenants.get(name).map(|t| t.spec.clone())
    }

    /// Current in-flight count of a tenant (0 for unknown tenants).
    pub fn in_flight(&self, name: &str) -> u64 {
        let inner = self.inner.lock().unwrap();
        inner
            .tenants
            .get(name)
            .map_or(0, |t| t.in_flight.load(Ordering::Acquire))
    }

    /// Times the tenant's index has been (re)built.
    pub fn loads(&self, name: &str) -> u64 {
        let inner = self.inner.lock().unwrap();
        inner.tenants.get(name).map_or(0, |t| t.loads)
    }

    /// Whether the tenant's index is currently resident.
    pub fn is_loaded(&self, name: &str) -> bool {
        let inner = self.inner.lock().unwrap();
        inner.tenants.get(name).is_some_and(|t| t.index.is_some())
    }

    /// Registered tenant names, sorted (stable for reports).
    pub fn tenant_names(&self) -> Vec<String> {
        let inner = self.inner.lock().unwrap();
        let mut names: Vec<String> = inner.tenants.keys().cloned().collect();
        names.sort();
        names
    }

    /// A JSON summary of the registry (stats endpoints and tests).
    pub fn summary_json(&self) -> JsonValue {
        let inner = self.inner.lock().unwrap();
        let mut names: Vec<&String> = inner.tenants.keys().collect();
        names.sort();
        let tenants: Vec<JsonValue> = names
            .iter()
            .map(|n| {
                let t = &inner.tenants[*n];
                JsonValue::obj(vec![
                    ("name", JsonValue::Str((*n).clone())),
                    ("species", JsonValue::Str(t.spec.species.key().to_string())),
                    ("shards", JsonValue::Num(t.spec.shards as f64)),
                    ("loaded", JsonValue::Bool(t.index.is_some())),
                    ("mem_bytes", JsonValue::Num(t.mem_bytes as f64)),
                    (
                        "in_flight",
                        JsonValue::Num(t.in_flight.load(Ordering::Acquire) as f64),
                    ),
                    ("loads", JsonValue::Num(t.loads as f64)),
                    (
                        "quota",
                        t.spec
                            .quota
                            .map_or(JsonValue::Null, |q| JsonValue::Num(q as f64)),
                    ),
                ])
            })
            .collect();
        let used: usize = inner.tenants.values().map(|t| t.mem_bytes).sum();
        JsonValue::obj(vec![
            ("mem_used_bytes", JsonValue::Num(used as f64)),
            (
                "mem_budget_bytes",
                self.budget
                    .map_or(JsonValue::Null, |b| JsonValue::Num(b as f64)),
            ),
            ("tenants", JsonValue::Arr(tenants)),
        ])
    }
}

/// Reserves one in-flight slot against an optional quota; `None` when the
/// quota is exhausted. Shared by the registry and the server's routing
/// table (which caches the counter to keep admission lock-free).
pub(crate) fn try_admit_counted(
    in_flight: &Arc<AtomicU64>,
    quota: Option<u64>,
) -> Option<AdmitGuard> {
    match quota {
        None => {
            in_flight.fetch_add(1, Ordering::AcqRel);
        }
        Some(limit) => {
            let mut cur = in_flight.load(Ordering::Acquire);
            loop {
                if cur >= limit {
                    return None;
                }
                match in_flight.compare_exchange_weak(
                    cur,
                    cur + 1,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => break,
                    Err(now) => cur = now,
                }
            }
        }
    }
    Some(AdmitGuard {
        in_flight: Arc::clone(in_flight),
    })
}

/// The shard-routing hash: the client's region hint when present,
/// otherwise an FNV-1a hash of the read codes. Pure, so routing is
/// deterministic across runs and servers.
pub fn region_hash(region: Option<u64>, codes: &[u8]) -> u64 {
    match region {
        Some(r) => {
            // splitmix64 finalizer — spreads adjacent coordinates.
            let mut z = r.wrapping_add(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        None => {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for &c in codes {
                h ^= u64::from(c);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            h
        }
    }
}

/// Deterministic shard choice: start at `hash % shards` and probe forward
/// past dead shards. `None` when no shard is live.
pub fn route_shard(hash: u64, shards: usize, live: impl Fn(usize) -> bool) -> Option<usize> {
    if shards == 0 {
        return None;
    }
    let start = (hash % shards as u64) as usize;
    (0..shards).map(|i| (start + i) % shards).find(|&s| live(s))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(species: Species) -> TenantSpec {
        // scale 0.0 clamps every species to the 40 kb floor — fast builds.
        TenantSpec::new(species, 0.0)
    }

    fn tiny_bytes() -> usize {
        let genome = Species::CaenorhabditisElegans.synthesize(0.0);
        ReferenceIndex::build(&genome, DEFAULT_SA_RATE).heap_bytes()
    }

    #[test]
    fn budget_smaller_than_one_tenant_errors_cleanly() {
        let registry = IndexRegistry::new(Some(1024));
        let err = registry
            .load(tiny(Species::CaenorhabditisElegans))
            .unwrap_err();
        assert!(
            matches!(err, RegistryError::BudgetTooSmall { budget: 1024, .. }),
            "{err}"
        );
        // The failed load leaves no half-registered tenant behind.
        assert!(registry.tenant_names().is_empty());
        assert_eq!(registry.mem_used(), 0);
    }

    #[test]
    fn lru_eviction_under_budget_and_bit_identical_reload() {
        // Budget fits exactly one tenant: loading the second evicts the
        // first (LRU), and checking the first out again rebuilds it.
        let one = tiny_bytes();
        let registry = IndexRegistry::new(Some(one + one / 2));
        let a = registry.load(tiny(Species::CaenorhabditisElegans)).unwrap();
        let a_flat = a.flat().to_vec();
        let a_bytes = a.heap_bytes();
        registry.load(tiny(Species::HomoSapiens)).unwrap();
        assert!(!registry.is_loaded("caenorhabditis_elegans"));
        assert!(registry.is_loaded("homo_sapiens"));
        // Reload is bit-identical: same flat codes, same footprint.
        let a2 = registry.checkout("caenorhabditis_elegans").unwrap();
        assert_eq!(a2.flat(), a_flat.as_slice());
        assert_eq!(a2.heap_bytes(), a_bytes);
        assert_eq!(registry.loads("caenorhabditis_elegans"), 2);
        // …and the reload evicted the other tenant in turn.
        assert!(!registry.is_loaded("homo_sapiens"));
    }

    #[test]
    fn evict_while_in_flight_is_refused() {
        let registry = IndexRegistry::new(None);
        registry.load(tiny(Species::CaenorhabditisElegans)).unwrap();
        let guard = registry.try_admit("caenorhabditis_elegans").unwrap();
        let err = registry.evict("caenorhabditis_elegans").unwrap_err();
        assert_eq!(
            err,
            RegistryError::TenantInFlight {
                tenant: "caenorhabditis_elegans".to_string(),
                in_flight: 1,
            }
        );
        drop(guard);
        assert!(registry.evict("caenorhabditis_elegans").unwrap() > 0);
        assert!(!registry.is_loaded("caenorhabditis_elegans"));
    }

    #[test]
    fn lru_never_evicts_an_in_flight_tenant() {
        let one = tiny_bytes();
        let registry = IndexRegistry::new(Some(2 * one + one / 2));
        registry.load(tiny(Species::CaenorhabditisElegans)).unwrap();
        registry.load(tiny(Species::HomoSapiens)).unwrap();
        // The LRU victim would be c_elegans, but it is in flight — the
        // idle homo_sapiens goes instead.
        let guard = registry.try_admit("caenorhabditis_elegans").unwrap();
        registry.load(tiny(Species::ZapusHudsonius)).unwrap();
        assert!(registry.is_loaded("caenorhabditis_elegans"));
        assert!(!registry.is_loaded("homo_sapiens"));
        // With every loaded tenant in flight, loading fails cleanly.
        let guard2 = registry.try_admit("zapus_hudsonius").unwrap();
        let err = registry
            .load(tiny(Species::CamelusDromedarius))
            .unwrap_err();
        assert!(
            matches!(err, RegistryError::EvictionBlocked { .. }),
            "{err}"
        );
        drop((guard, guard2));
    }

    #[test]
    fn quota_sheds_at_exactly_the_limit_with_exactly_once_accounting() {
        let registry = IndexRegistry::new(None);
        let mut spec = tiny(Species::CaenorhabditisElegans);
        spec.quota = Some(2);
        registry.load(spec).unwrap();
        let g1 = registry.try_admit("caenorhabditis_elegans").unwrap();
        let g2 = registry.try_admit("caenorhabditis_elegans").unwrap();
        // The quota-th request is admitted; quota + 1 is refused.
        let err = registry.try_admit("caenorhabditis_elegans").unwrap_err();
        assert_eq!(
            err,
            RegistryError::QuotaExhausted {
                tenant: "caenorhabditis_elegans".to_string(),
                limit: 2,
            }
        );
        assert_eq!(registry.in_flight("caenorhabditis_elegans"), 2);
        // Dropping a guard releases exactly one slot.
        drop(g1);
        assert_eq!(registry.in_flight("caenorhabditis_elegans"), 1);
        let g3 = registry.try_admit("caenorhabditis_elegans").unwrap();
        drop((g2, g3));
        assert_eq!(registry.in_flight("caenorhabditis_elegans"), 0);
    }

    #[test]
    fn routing_is_deterministic_and_skips_dead_shards() {
        let codes = [0u8, 1, 2, 3, 1, 1, 2];
        let h1 = region_hash(None, &codes);
        assert_eq!(h1, region_hash(None, &codes), "code hash is stable");
        assert_eq!(region_hash(Some(7), &codes), region_hash(Some(7), &[]));
        let all_live = route_shard(h1, 4, |_| true).unwrap();
        assert_eq!(route_shard(h1, 4, |_| true).unwrap(), all_live);
        // Killing the chosen shard reroutes to the next live one,
        // deterministically.
        let rerouted = route_shard(h1, 4, |s| s != all_live).unwrap();
        assert_eq!(rerouted, (all_live + 1) % 4);
        assert_eq!(route_shard(h1, 4, |_| false), None);
        assert_eq!(route_shard(h1, 0, |_| true), None);
    }

    #[test]
    fn duplicate_and_unknown_tenants_are_named_errors() {
        let registry = IndexRegistry::new(None);
        registry.load(tiny(Species::CaenorhabditisElegans)).unwrap();
        let err = registry
            .load(tiny(Species::CaenorhabditisElegans))
            .unwrap_err();
        assert!(matches!(err, RegistryError::DuplicateTenant(_)));
        assert!(matches!(
            registry.checkout("nope").unwrap_err(),
            RegistryError::UnknownTenant(_)
        ));
        assert!(matches!(
            registry.try_admit("nope").unwrap_err(),
            RegistryError::UnknownTenant(_)
        ));
        let doc = registry.summary_json();
        assert!(doc.get("tenants").is_some());
    }
}
