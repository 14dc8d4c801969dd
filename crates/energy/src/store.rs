//! Content-addressed keying of CPI measurements: the cache tier under
//! every design-space sweep.
//!
//! A CPI measurement is a pure function of its inputs — which
//! workload(s) ran, the ISA [`Params`], the microarchitecture
//! [`UarchConfig`] and the input scale. [`SweepContext::key_hash`]
//! derives a [`tia_store::Hash`] from exactly those inputs via the
//! canonical encoding (sorted keys, bit-pattern floats, explicit
//! [`MEASUREMENT_SCHEMA_VERSION`]), and [`StoredCpi`] memoizes
//! measurements in a [`tia_store::Store`] under that hash. Repeated
//! and interrupted sweeps then collapse to store lookups; only points
//! whose canonical hash changed are re-simulated.
//!
//! This replaces the fragile `serde_json::to_string(config)` keying
//! the first-generation partial files used, where struct-field
//! reordering or float-formatting drift silently turned hits into
//! misses — or let a schema change resume stale measurements as if
//! they were current.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Serialize, Value};
use tia_core::UarchConfig;
use tia_isa::Params;
use tia_store::{canonical_bytes, canonical_hash, from_canonical_bytes, Hash, Store, StoreError};

use crate::dse::{CpiMeasurement, SyncCpiSource};

/// The measurement-input schema version, folded into every store key
/// and recorded in every store file header.
///
/// Bump whenever the *meaning* or serialized shape of a measurement
/// input or record changes: a `Params` or `UarchConfig` field is
/// added/removed/reinterpreted, a workload's generated program or
/// input derivation changes, or [`CpiMeasurement`] gains a field.
/// Old stores are then rejected wholesale ([`StoreError::Schema`])
/// instead of resuming stale measurements as if they were current.
pub const MEASUREMENT_SCHEMA_VERSION: u32 = 1;

/// The sweep-wide half of a measurement key: everything that
/// identifies a measurement besides the per-point [`UarchConfig`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepContext {
    /// Which activity source ran: a [`tia_workloads::WorkloadKind`]
    /// name (e.g. `"bst"`) or `"suite"` for the ten-workload average.
    pub workload: String,
    /// The input scale (`"test"` or `"paper"`). Measurements taken at
    /// test scale must never answer a paper-scale sweep.
    pub scale: String,
    /// The ISA parameters the workloads were built against.
    pub params: Params,
}

impl SweepContext {
    /// A context over [`Params::default`], the parameters every
    /// in-tree sweep uses.
    pub fn new(workload: impl Into<String>, scale: impl Into<String>) -> Self {
        SweepContext {
            workload: workload.into(),
            scale: scale.into(),
            params: Params::default(),
        }
    }

    /// The content hash addressing one measurement: canonical over
    /// (workload, scale, `Params`, `UarchConfig`) under
    /// [`MEASUREMENT_SCHEMA_VERSION`]. Key equality is semantic
    /// equality of the inputs — field order and float formatting of
    /// any intermediate serialization are irrelevant by construction.
    pub fn key_hash(&self, config: &UarchConfig) -> Hash {
        let value = Value::Object(vec![
            ("workload".to_string(), Value::String(self.workload.clone())),
            ("scale".to_string(), Value::String(self.scale.clone())),
            ("params".to_string(), self.params.to_value()),
            ("config".to_string(), config.to_value()),
        ]);
        canonical_hash(MEASUREMENT_SCHEMA_VERSION, &value)
            .expect("measurement key fields are unique")
    }
}

/// Serializes a measurement record to the canonical byte form stored
/// as a record payload. Canonical bytes round-trip floats bit-exactly,
/// so a warm sweep reproduces a cold sweep's output byte for byte.
pub fn encode_measurement(m: &CpiMeasurement) -> Vec<u8> {
    canonical_bytes(&m.to_value()).expect("measurement fields are unique")
}

/// Decodes a stored measurement record; `None` for undecodable bytes
/// (a foreign or corrupt record — treated as a miss, never trusted).
pub fn decode_measurement(bytes: &[u8]) -> Option<CpiMeasurement> {
    let value = from_canonical_bytes(bytes).ok()?;
    serde::Deserialize::from_value(&value).ok()
}

/// What a stale store file was replaced over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreReset {
    /// The file recorded another measurement-schema version.
    StaleSchema {
        /// The schema version found in the file.
        found: u32,
    },
    /// The file was a legacy JSON `--partial` checkpoint (pre-store).
    LegacyPartial,
    /// The file was not readable as a store at all.
    Unreadable,
}

impl std::fmt::Display for StoreReset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreReset::StaleSchema { found } => write!(
                f,
                "schema version {found} is stale (current {MEASUREMENT_SCHEMA_VERSION})"
            ),
            StoreReset::LegacyPartial => f.write_str("legacy JSON partial checkpoint"),
            StoreReset::Unreadable => f.write_str("unreadable store file"),
        }
    }
}

/// Opens the measurement store at `path`, moving any stale file
/// (older schema, legacy JSON partial, or foreign/corrupt content)
/// aside to `<path>.stale` and starting fresh — stale measurements
/// are regenerated, never trusted.
///
/// # Errors
///
/// Fails only on file-system errors.
pub fn open_measurement_store(
    path: impl AsRef<Path>,
) -> Result<(Store, Option<StoreReset>), StoreError> {
    let path = path.as_ref();
    let reset = match Store::open(path, MEASUREMENT_SCHEMA_VERSION) {
        Ok(store) => return Ok((store, None)),
        Err(StoreError::Schema { found, .. }) => StoreReset::StaleSchema { found },
        Err(StoreError::NotAStore { legacy_json, .. }) => {
            if legacy_json {
                StoreReset::LegacyPartial
            } else {
                StoreReset::Unreadable
            }
        }
        Err(StoreError::Format { .. }) => StoreReset::Unreadable,
        Err(e @ StoreError::Io { .. }) => return Err(e),
    };
    let mut stale = path.as_os_str().to_owned();
    stale.push(".stale");
    // A failed rename (e.g. the file vanished) still proceeds to a
    // fresh open; the stale file is only kept for post-mortems.
    let _ = std::fs::rename(path, std::path::PathBuf::from(stale));
    let _ = std::fs::remove_file(path);
    let store = Store::open(path, MEASUREMENT_SCHEMA_VERSION)?;
    Ok((store, Some(reset)))
}

/// A [`SyncCpiSource`] that memoizes measurements in a
/// content-addressed [`Store`]: hits decode the stored record, misses
/// run the wrapped source and append the result. Sharing one store
/// file across sweeps (and across processes — appends are lock-file
/// serialized) makes every repeated sweep a near-free lookup pass.
#[derive(Debug)]
pub struct StoredCpi<S> {
    source: S,
    store: Store,
    ctx: SweepContext,
    lookups: AtomicU64,
    misses: AtomicU64,
}

impl<S: SyncCpiSource> StoredCpi<S> {
    /// Wraps `source` over an already opened store.
    pub fn new(source: S, store: Store, ctx: SweepContext) -> Self {
        StoredCpi {
            source,
            store,
            ctx,
            lookups: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Opens (or resets, if stale — see [`open_measurement_store`])
    /// the store at `path` and wraps `source` over it.
    ///
    /// # Errors
    ///
    /// Fails only on file-system errors.
    pub fn open(
        source: S,
        path: impl AsRef<Path>,
        ctx: SweepContext,
    ) -> Result<(Self, Option<StoreReset>), StoreError> {
        let (store, reset) = open_measurement_store(path)?;
        Ok((StoredCpi::new(source, store, ctx), reset))
    }

    /// The backing store.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// The sweep context the keys are derived under.
    pub fn context(&self) -> &SweepContext {
        &self.ctx
    }

    /// Measurements answered from the store so far.
    pub fn lookups(&self) -> u64 {
        self.lookups.load(Ordering::Relaxed)
    }

    /// Measurements that had to be simulated so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

impl<S: SyncCpiSource> SyncCpiSource for StoredCpi<S> {
    fn measure(&self, config: &UarchConfig) -> CpiMeasurement {
        let key = self.ctx.key_hash(config);
        if let Some(m) = self.store.get(&key).as_deref().and_then(decode_measurement) {
            self.lookups.fetch_add(1, Ordering::Relaxed);
            return m;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let m = self.source.measure(config);
        if let Err(e) = self.store.put(key, &encode_measurement(&m)) {
            // A failed persist must not kill the sweep; it just cannot
            // warm the next one from this record.
            eprintln!("warning: could not persist measurement: {e}");
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;
    use std::sync::atomic::AtomicU64;

    use super::*;
    use tia_core::Pipeline;
    use tia_prof::Leaf;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("tia-energy-store-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    fn synthetic(config: &UarchConfig) -> CpiMeasurement {
        CpiMeasurement {
            cpi: 1.0 + 0.125 * (config.pipeline.depth() as f64),
            issue_rate: 0.75,
            bottleneck: Leaf::Retire,
            ..CpiMeasurement::default()
        }
    }

    #[test]
    fn records_roundtrip_bit_exactly() {
        let m = CpiMeasurement {
            cpi: 1.0 / 3.0,
            issue_rate: 0.1 + 0.2, // a value with no short decimal form
            ..CpiMeasurement::ideal()
        };
        let back = decode_measurement(&encode_measurement(&m)).expect("decodes");
        assert_eq!(m.cpi.to_bits(), back.cpi.to_bits());
        assert_eq!(m.issue_rate.to_bits(), back.issue_rate.to_bits());
        assert_eq!(m, back);
        assert_eq!(decode_measurement(b"not a record"), None);
    }

    #[test]
    fn keys_separate_every_input_dimension() {
        let ctx = SweepContext::new("suite", "paper");
        let a = UarchConfig::base(Pipeline::TDX);
        let b = UarchConfig::with_p(Pipeline::TDX);
        assert_eq!(ctx.key_hash(&a), ctx.key_hash(&a), "deterministic");
        assert_ne!(ctx.key_hash(&a), ctx.key_hash(&b), "config");
        assert_ne!(
            ctx.key_hash(&a),
            SweepContext::new("bst", "paper").key_hash(&a),
            "workload"
        );
        assert_ne!(
            ctx.key_hash(&a),
            SweepContext::new("suite", "test").key_hash(&a),
            "scale"
        );
        let mut other_params = ctx.clone();
        other_params.params.num_regs += 1;
        assert_ne!(ctx.key_hash(&a), other_params.key_hash(&a), "params");
    }

    #[test]
    fn warm_store_answers_without_simulating() {
        let path = temp_path("warm.store");
        let calls = AtomicU64::new(0);
        let counting = |c: &UarchConfig| {
            calls.fetch_add(1, Ordering::Relaxed);
            synthetic(c)
        };
        let ctx = SweepContext::new("suite", "test");
        let (cold, reset) = StoredCpi::open(counting, &path, ctx.clone()).expect("open");
        assert_eq!(reset, None);
        let cold_points = crate::dse::par_explore(&cold);
        assert_eq!(calls.load(Ordering::Relaxed), 32);
        assert_eq!(cold.misses(), 32);
        drop(cold);

        let (warm, reset) = StoredCpi::open(counting, &path, ctx).expect("reopen");
        assert_eq!(reset, None);
        let warm_points = crate::dse::par_explore(&warm);
        assert_eq!(calls.load(Ordering::Relaxed), 32, "0 re-simulations");
        assert_eq!(warm.lookups(), 32);
        assert_eq!(warm.misses(), 0);
        assert_eq!(cold_points, warm_points, "warm sweep is bit-identical");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stale_schema_stores_are_regenerated() {
        let path = temp_path("stale_schema.store");
        // Seed a store written under a *newer* (i.e. different) schema
        // version holding a poisoned record at the key a current
        // context would derive.
        let old = Store::open(&path, MEASUREMENT_SCHEMA_VERSION + 1).expect("seed store");
        let ctx = SweepContext::new("suite", "test");
        let config = UarchConfig::base(Pipeline::TDX);
        let poisoned = CpiMeasurement {
            cpi: 999.0,
            ..CpiMeasurement::ideal()
        };
        old.put(ctx.key_hash(&config), &encode_measurement(&poisoned))
            .expect("seed record");
        drop(old);

        let calls = AtomicU64::new(0);
        let counting = |c: &UarchConfig| {
            calls.fetch_add(1, Ordering::Relaxed);
            synthetic(c)
        };
        let (source, reset) = StoredCpi::open(counting, &path, ctx).expect("open resets");
        assert_eq!(
            reset,
            Some(StoreReset::StaleSchema {
                found: MEASUREMENT_SCHEMA_VERSION + 1
            })
        );
        assert!(source.store().is_empty(), "stale records discarded");
        let m = source.measure(&config);
        assert_eq!(
            calls.load(Ordering::Relaxed),
            1,
            "re-simulated, not trusted"
        );
        assert_ne!(m.cpi, 999.0);
        let mut stale = path.clone().into_os_string();
        stale.push(".stale");
        assert!(
            PathBuf::from(&stale).exists(),
            "stale file kept for post-mortems"
        );
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(PathBuf::from(stale));
    }

    #[test]
    fn interrupted_sweep_resumes_without_remeasuring() {
        let path = temp_path("resume.store");
        let ctx = SweepContext::new("synthetic", "test");

        // First run: measure only a few configurations, then "die".
        let calls = AtomicU64::new(0);
        let counting = |c: &UarchConfig| {
            calls.fetch_add(1, Ordering::Relaxed);
            synthetic(c)
        };
        let (first, _) = StoredCpi::open(counting, &path, ctx.clone()).expect("fresh file");
        for pipeline in [Pipeline::TDX, Pipeline::T_DX] {
            let _ = first.measure(&UarchConfig::base(pipeline));
        }
        assert_eq!(calls.load(Ordering::Relaxed), 2);
        drop(first);

        // Second run: the two finished measurements come from the file.
        let (resumed, reset) = StoredCpi::open(counting, &path, ctx).expect("store loads");
        assert_eq!(reset, None);
        assert_eq!(resumed.store().len(), 2);
        let _ = resumed.measure(&UarchConfig::base(Pipeline::TDX));
        assert_eq!(calls.load(Ordering::Relaxed), 2, "no remeasurement");
        assert_eq!(resumed.lookups(), 1);
        let _ = resumed.measure(&UarchConfig::base(Pipeline::T_D_X));
        assert_eq!(calls.load(Ordering::Relaxed), 3);
        assert_eq!(resumed.misses(), 1);

        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resumed_sweep_is_bit_identical_to_uninterrupted() {
        let path = temp_path("identical.store");
        let ctx = SweepContext::new("synthetic", "test");

        let straight = crate::dse::par_explore(&synthetic);

        // Interrupted: persist half the configurations, then restart.
        let (partial, _) = StoredCpi::open(synthetic, &path, ctx.clone()).expect("fresh file");
        for config in UarchConfig::all().into_iter().take(16) {
            let _ = partial.measure(&config);
        }
        drop(partial);
        let (resumed_source, _) = StoredCpi::open(synthetic, &path, ctx).expect("loads");
        let resumed = crate::dse::par_explore(&resumed_source);

        assert_eq!(straight, resumed);
        let _ = std::fs::remove_file(&path);
    }

    /// The memo-key regression the store exists to fix: two
    /// semantically equal encodings of one configuration — object
    /// fields reordered, a float reformatted (`-0.0` vs `0.0` is the
    /// bit-level face of formatting drift) — produce *different* JSON
    /// strings (the old key) but the *same* canonical hash (the new
    /// key), so they hit the same store entry.
    #[test]
    fn semantically_equal_configs_share_one_entry() {
        let config = UarchConfig::with_pq(Pipeline::T_DX);
        let encoded = Serialize::to_value(&config);
        let Value::Object(mut entries) = encoded.clone() else {
            panic!("configs serialize to objects");
        };
        entries.reverse();
        let reordered = Value::Object(entries);

        // The old keying (serde_json text) tells them apart...
        let old_key = serde_json::to_string(&encoded).expect("serializes");
        let old_key_reordered = serde_json::to_string(&reordered).expect("serializes");
        assert_ne!(old_key, old_key_reordered, "JSON keying is order-sensitive");

        // ...the canonical hash does not.
        let schema = MEASUREMENT_SCHEMA_VERSION;
        assert_eq!(
            canonical_hash(schema, &encoded).expect("hashes"),
            canonical_hash(schema, &reordered).expect("hashes"),
        );

        // Float-formatting drift: bit-distinct but semantically equal
        // floats (-0.0 vs 0.0) also collapse to one key, where their
        // JSON texts differ.
        let with_float = |f: f64| {
            Value::Object(vec![
                ("config".to_string(), encoded.clone()),
                ("vdd".to_string(), Value::Float(f)),
            ])
        };
        assert_ne!(
            serde_json::to_string(&with_float(0.0)).expect("serializes"),
            serde_json::to_string(&with_float(-0.0)).expect("serializes"),
        );
        assert_eq!(
            canonical_hash(schema, &with_float(0.0)).expect("hashes"),
            canonical_hash(schema, &with_float(-0.0)).expect("hashes"),
        );
    }

    /// A legacy JSON partial file (the pre-store checkpoint format) is
    /// a stale artifact: it must be moved aside and its measurements
    /// regenerated.
    #[test]
    fn legacy_partial_files_are_discarded_and_regenerated() {
        let path = temp_path("legacy.json");
        tia_ckpt::Snapshot::new("tia-dse-partial", Value::Array(Vec::new()))
            .save(&path)
            .expect("seed legacy file");

        let calls = AtomicU64::new(0);
        let counting = |c: &UarchConfig| {
            calls.fetch_add(1, Ordering::Relaxed);
            synthetic(c)
        };
        let ctx = SweepContext::new("synthetic", "test");
        let (resumed, reset) = StoredCpi::open(counting, &path, ctx).expect("resets");
        assert_eq!(reset, Some(StoreReset::LegacyPartial));
        assert!(resumed.store().is_empty(), "legacy entries are not trusted");
        let _ = resumed.measure(&UarchConfig::base(Pipeline::TDX));
        assert_eq!(calls.load(Ordering::Relaxed), 1, "regenerated");

        let mut stale = path.clone().into_os_string();
        stale.push(".stale");
        let stale = PathBuf::from(stale);
        assert!(stale.exists(), "legacy file moved aside");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&stale);
    }
}
