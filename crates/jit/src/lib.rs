//! Tape-to-native codegen: JIT-compile the hub simulator's whole cycle.
//!
//! The optimized op tape is still *interpreted* by
//! [`strober_sim::Simulator`]: a dispatch loop, bounds checks and slot
//! indirection on every op, every cycle, then a generic loop over the
//! register and write-port plans at the clock edge. This crate removes
//! all of it. [`strober_sim::Simulator::jit_source`] lowers the tape to
//! a straight-line settle function of word ops over the flat value slab
//! and the plans to a straight-line clock-edge function (constants,
//! masks, slot indices and memory offsets baked into the instruction
//! stream); [`JitCompiler`] compiles that freestanding `#![no_std]`
//! source with a cached `rustc --crate-type cdylib` invocation (one
//! codegen unit) and `dlopen`s the result; and
//! [`Simulator::attach_jit`] plugs it in behind the existing facade —
//! callers keep poking, peeking and stepping exactly as before.
//!
//! # Caching
//!
//! Compiled dylibs are content-addressed: the file name is the FNV-1a
//! hash of the generated source plus the `rustc` version, so a second
//! simulator built for the same design and optimizer options loads the
//! existing artifact without invoking `rustc` at all. `strober-core`
//! additionally persists the dylib bytes in the artifact store as a
//! [`JitArtifact`] keyed by design fingerprint + tape options + rustc
//! version, making codegen a warm-start artifact exactly like prepare
//! outputs.
//!
//! # Safety and identity
//!
//! Every loaded dylib must be a whole ELF object exporting
//! `strober_jit_settle`, `strober_jit_edge` and `strober_jit_sig`, whose
//! value is checked against the hash of the source the simulator would
//! generate for its own tape ([`Simulator::attach_jit`] refuses a
//! mismatch). A truncated, stale or foreign dylib is therefore rejected
//! before its code can run; under a content-addressed cache name it is
//! recompiled over.
//! Bit-identity with the interpreted tape is enforced by the golden
//! suites (`sim/tests/jit_equivalence.rs`, `bench/tests/jit_golden.rs`)
//! and the fuzz oracle's `tape-jit` lane.
//!
//! # Fallback
//!
//! Everything here degrades gracefully: no `rustc` on `PATH`, a failed
//! compile or a failed `dlopen` all surface as a [`JitError`] that
//! callers (the platform layer) turn into a logged fallback to the
//! interpreted engines, counted by `strober.jit.fallback`.
//!
//! [`Simulator::attach_jit`]: strober_sim::Simulator::attach_jit

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod dylib;

pub use dylib::DylibEngine;

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::{Arc, OnceLock};
use std::time::Instant;
use strober_sim::{JitSource, NativeEngine, Simulator};

/// Errors from compiling or loading a native cycle engine.
#[derive(Debug)]
#[non_exhaustive]
pub enum JitError {
    /// No usable `rustc` was found on `PATH`.
    NoRustc,
    /// `rustc` ran but rejected the generated source.
    Compile {
        /// The compiler's stderr.
        stderr: String,
    },
    /// The compiled dylib could not be loaded.
    Dlopen(String),
    /// The loaded dylib does not export a required entry point.
    MissingSymbol(&'static str),
    /// The dylib was built from a different tape than the simulator's.
    SignatureMismatch {
        /// Hash of the source the simulator generates.
        expected: u64,
        /// Hash the dylib reports.
        actual: u64,
    },
    /// Filesystem trouble around the cache directory.
    Io(std::io::Error),
}

impl std::fmt::Display for JitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JitError::NoRustc => write!(f, "no rustc on PATH"),
            JitError::Compile { stderr } => {
                write!(f, "rustc rejected generated cycle source: {stderr}")
            }
            JitError::Dlopen(msg) => write!(f, "cannot load jit dylib: {msg}"),
            JitError::MissingSymbol(name) => {
                write!(f, "jit dylib does not export `{name}`")
            }
            JitError::SignatureMismatch { expected, actual } => write!(
                f,
                "jit dylib signature {actual:#x} does not match tape source ({expected:#x})"
            ),
            JitError::Io(e) => write!(f, "jit cache i/o error: {e}"),
        }
    }
}

impl std::error::Error for JitError {}

impl From<std::io::Error> for JitError {
    fn from(e: std::io::Error) -> Self {
        JitError::Io(e)
    }
}

/// The `rustc --version` string of the compiler on `PATH`, probed once
/// per process, or `None` when no working `rustc` is available (the
/// fallback-to-interpreter case).
pub fn rustc_version() -> Option<&'static str> {
    static VERSION: OnceLock<Option<String>> = OnceLock::new();
    VERSION
        .get_or_init(|| {
            let out = Command::new("rustc").arg("--version").output().ok()?;
            if !out.status.success() {
                return None;
            }
            let v = String::from_utf8_lossy(&out.stdout).trim().to_owned();
            (!v.is_empty()).then_some(v)
        })
        .as_deref()
}

/// How an attach was satisfied, mirroring the store's prepare
/// provenance ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JitProvenance {
    /// `rustc` was invoked and the dylib compiled fresh.
    Cold,
    /// The dylib came from the content-addressed file cache; no compile.
    Warm,
    /// The dylib bytes came from the artifact store; no compile.
    Store,
}

impl JitProvenance {
    /// The manifest/metrics label (`"cold"`, `"warm"`, `"store"`).
    pub fn as_str(self) -> &'static str {
        match self {
            JitProvenance::Cold => "cold",
            JitProvenance::Warm => "warm",
            JitProvenance::Store => "store",
        }
    }
}

/// The result of a successful [`JitCompiler::attach`].
#[derive(Debug, Clone)]
pub struct JitOutcome {
    /// Whether the dylib was compiled (`Cold`) or reused.
    pub provenance: JitProvenance,
    /// Wall-clock milliseconds spent inside `rustc` (0 on reuse).
    pub compile_ms: u64,
    /// Where the loaded dylib lives on disk.
    pub dylib_path: PathBuf,
    /// The tape source signature (also the dylib's exported sig).
    pub sig: u64,
}

/// A compiled cycle dylib plus enough provenance to rebuild the cache
/// entry on another machine: the artifact-store payload for warm-started
/// codegen. Keyed in the store by design fingerprint + tape options +
/// rustc version (see `strober-core`).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize, serde::Blob)]
pub struct JitArtifact {
    /// `rustc --version` of the compiler that built the dylib.
    pub rustc: String,
    /// The generated source's FNV-1a signature.
    pub sig: u64,
    /// The compiled dylib, byte for byte.
    pub dylib: Vec<u8>,
    /// Wall-clock milliseconds the original compile took.
    pub compile_ms: u64,
}

/// Compiles generated cycle source to dylibs in a content-addressed
/// file cache and attaches the result to simulators.
#[derive(Debug, Clone)]
pub struct JitCompiler {
    cache_dir: PathBuf,
}

impl JitCompiler {
    /// A compiler writing to an explicit cache directory (the store root
    /// in the managed flow).
    pub fn new(cache_dir: impl Into<PathBuf>) -> Self {
        JitCompiler {
            cache_dir: cache_dir.into(),
        }
    }

    /// A compiler writing to `strober-jit` under the system temp
    /// directory — the default for library users with no store.
    pub fn in_temp() -> Self {
        Self::new(std::env::temp_dir().join("strober-jit"))
    }

    /// The cache directory dylibs land in.
    pub fn cache_dir(&self) -> &Path {
        &self.cache_dir
    }

    /// The content-addressed dylib path for a given source: FNV-1a over
    /// the source text and the rustc version, so either changing
    /// invalidates the entry.
    fn dylib_path(&self, source: &JitSource, rustc: &str) -> PathBuf {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in source.source.as_bytes().iter().chain(rustc.as_bytes()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.cache_dir.join(format!("strober_jit_{h:016x}.so"))
    }

    /// Compiles (or reuses from the file cache) the native cycle engine
    /// for a generated source, without attaching it to anything. The flow
    /// layer uses this to build one engine and share it across every
    /// simulator clone of a run.
    ///
    /// Emits `strober.jit.compile_ms` and `strober.jit.cache_hit` probe
    /// metrics; callers are expected to count `strober.jit.fallback`
    /// when they downgrade on error (see [`record_fallback`]).
    ///
    /// # Errors
    ///
    /// [`JitError::NoRustc`] without a compiler on `PATH`, otherwise any
    /// compile/load/signature failure.
    pub fn prepare(&self, source: &JitSource) -> Result<(DylibEngine, JitOutcome), JitError> {
        let rustc = rustc_version().ok_or(JitError::NoRustc)?;
        let path = self.dylib_path(source, rustc);
        if path.exists() {
            if let Ok(found) = self.load_existing(&path, source) {
                return Ok(found);
            }
            // A corrupt or stale file under a content-addressed name:
            // recompile over it rather than failing the attach.
        }
        let compile_ms = self.compile(source, &path)?;
        strober_probe::histogram_record("strober.jit.compile_ms", compile_ms as f64);
        let engine = DylibEngine::load(&path)?;
        let outcome = JitOutcome {
            provenance: JitProvenance::Cold,
            compile_ms,
            dylib_path: path,
            sig: source.sig,
        };
        Ok((engine, outcome))
    }

    /// Loads an already-present cache file, verifying identity.
    fn load_existing(
        &self,
        path: &Path,
        source: &JitSource,
    ) -> Result<(DylibEngine, JitOutcome), JitError> {
        let engine = DylibEngine::load(path)?;
        if engine.signature() != source.sig {
            return Err(JitError::SignatureMismatch {
                expected: source.sig,
                actual: engine.signature(),
            });
        }
        strober_probe::counter_add("strober.jit.cache_hit", 1);
        let outcome = JitOutcome {
            provenance: JitProvenance::Warm,
            compile_ms: 0,
            dylib_path: path.to_path_buf(),
            sig: source.sig,
        };
        Ok((engine, outcome))
    }

    /// Materializes a store-loaded [`JitArtifact`] into the file cache
    /// (unless the cache file already holds exactly its bytes) and loads
    /// it. Never invokes `rustc`.
    ///
    /// # Errors
    ///
    /// [`JitError::SignatureMismatch`] when the artifact was generated
    /// from a different tape than `source`, or any load failure.
    pub fn prepare_artifact(
        &self,
        source: &JitSource,
        artifact: &JitArtifact,
    ) -> Result<(DylibEngine, JitOutcome), JitError> {
        if artifact.sig != source.sig {
            return Err(JitError::SignatureMismatch {
                expected: source.sig,
                actual: artifact.sig,
            });
        }
        let path = self.dylib_path(source, &artifact.rustc);
        // The store checksums its bytes; the cache file has no checksum,
        // and one flipped bit in its code crashes the run or changes the
        // estimate. The artifact is tens of kilobytes, so compare it.
        if std::fs::read(&path).ok().as_deref() != Some(&artifact.dylib[..]) {
            std::fs::create_dir_all(&self.cache_dir)?;
            write_atomic(&path, &artifact.dylib)?;
        }
        let (engine, outcome) = self.load_existing(&path, source)?;
        Ok((
            engine,
            JitOutcome {
                provenance: JitProvenance::Store,
                ..outcome
            },
        ))
    }

    /// Compiles (or reuses) the native cycle engine for `sim`'s tape and
    /// attaches it. On success the simulator's `settle` and `clock_edge`
    /// dispatch to native code until [`Simulator::detach_jit`] is called.
    ///
    /// # Errors
    ///
    /// See [`JitCompiler::prepare`].
    pub fn attach(&self, sim: &mut Simulator) -> Result<JitOutcome, JitError> {
        let (engine, outcome) = self.prepare(&sim.jit_source())?;
        attach_engine(sim, engine)?;
        Ok(outcome)
    }

    /// Materializes a store-loaded [`JitArtifact`] and attaches it,
    /// never invoking `rustc`.
    ///
    /// # Errors
    ///
    /// See [`JitCompiler::prepare_artifact`].
    pub fn attach_artifact(
        &self,
        sim: &mut Simulator,
        artifact: &JitArtifact,
    ) -> Result<JitOutcome, JitError> {
        let (engine, outcome) = self.prepare_artifact(&sim.jit_source(), artifact)?;
        attach_engine(sim, engine)?;
        Ok(outcome)
    }

    /// Runs `rustc` on the generated source, landing the dylib at `out`
    /// atomically. Returns the compile wall-time in milliseconds.
    fn compile(&self, source: &JitSource, out: &Path) -> Result<u64, JitError> {
        std::fs::create_dir_all(&self.cache_dir)?;
        let src_path = out.with_extension("rs");
        std::fs::write(&src_path, &source.source)?;
        let tmp = out.with_extension(format!("so.tmp.{}", std::process::id()));
        let started = Instant::now();
        let result = Command::new("rustc")
            .arg("--edition")
            .arg("2021")
            .arg("-O")
            .arg("--crate-type")
            .arg("cdylib")
            .arg("-C")
            .arg("panic=abort")
            // One unit: several would pull in local ThinLTO, which costs
            // more compile time than the parallel units save on code
            // this size.
            .arg("-C")
            .arg("codegen-units=1")
            .arg("-o")
            .arg(&tmp)
            .arg(&src_path)
            .output()
            .map_err(|_| JitError::NoRustc)?;
        let compile_ms = started.elapsed().as_millis() as u64;
        if !result.status.success() {
            let _ = std::fs::remove_file(&tmp);
            return Err(JitError::Compile {
                stderr: String::from_utf8_lossy(&result.stderr).into_owned(),
            });
        }
        std::fs::rename(&tmp, out)?;
        strober_probe::counter_add("strober.jit.compiled", 1);
        Ok(compile_ms)
    }
}

/// Shared attach tail: map the simulator's signature check into
/// [`JitError`].
fn attach_engine(sim: &mut Simulator, engine: DylibEngine) -> Result<(), JitError> {
    let actual = engine.signature();
    sim.attach_jit(Arc::new(engine))
        .map_err(|_| JitError::SignatureMismatch {
            expected: sim.jit_source().sig,
            actual,
        })
}

/// Counts a downgrade from the JIT engine to an interpreted one and logs
/// why. The platform layer calls this wherever its fallback ladder fires
/// so `strober.jit.fallback` tells operators codegen is not engaged.
pub fn record_fallback(reason: &str) {
    strober_probe::counter_add("strober.jit.fallback", 1);
    strober_probe::warn!("jit engine unavailable, falling back to interpreter: {reason}");
}

/// Writes `bytes` to `path` via a same-directory temp file and rename,
/// so concurrent processes never observe a torn dylib.
fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use strober_dsl::Ctx;
    use strober_rtl::{Design, Width};

    fn counter_design() -> Design {
        let ctx = Ctx::new("counter");
        let en = ctx.input("en", Width::BIT);
        let count = ctx.reg("count", Width::new(8).unwrap(), 0);
        count.set_en(&count.out().add_lit(1), &en);
        ctx.output("value", &count.out());
        ctx.finish().unwrap()
    }

    fn temp_compiler(tag: &str) -> JitCompiler {
        JitCompiler::new(
            std::env::temp_dir()
                .join("strober-jit-test")
                .join(format!("{tag}-{}", std::process::id())),
        )
    }

    #[test]
    fn compiles_attaches_and_runs_bit_identical() {
        if rustc_version().is_none() {
            eprintln!("skipping: no rustc on PATH");
            return;
        }
        let design = counter_design();
        let mut jit = Simulator::new(&design).unwrap();
        let mut interp = Simulator::new(&design).unwrap();
        let compiler = temp_compiler("basic");
        let outcome = compiler.attach(&mut jit).expect("attach");
        assert_eq!(outcome.provenance, JitProvenance::Cold);
        assert!(jit.has_jit());
        assert_eq!(jit.active_engine_name(), "tape-jit");
        for sim in [&mut jit, &mut interp] {
            sim.poke_by_name("en", 1).unwrap();
            sim.step_n(300);
        }
        assert_eq!(
            jit.peek_output("value").unwrap(),
            interp.peek_output("value").unwrap()
        );
        assert_eq!(jit.state(), interp.state());
    }

    #[test]
    fn second_attach_hits_the_file_cache() {
        if rustc_version().is_none() {
            eprintln!("skipping: no rustc on PATH");
            return;
        }
        let design = counter_design();
        let compiler = temp_compiler("cache");
        let mut first = Simulator::new(&design).unwrap();
        let cold = compiler.attach(&mut first).expect("cold attach");
        assert_eq!(cold.provenance, JitProvenance::Cold);
        let mut second = Simulator::new(&design).unwrap();
        let warm = compiler.attach(&mut second).expect("warm attach");
        assert_eq!(warm.provenance, JitProvenance::Warm);
        assert_eq!(warm.compile_ms, 0);
        assert_eq!(warm.dylib_path, cold.dylib_path);
    }

    #[test]
    fn artifact_round_trips_through_bytes() {
        if rustc_version().is_none() {
            eprintln!("skipping: no rustc on PATH");
            return;
        }
        let design = counter_design();
        let compiler = temp_compiler("artifact");
        let mut sim = Simulator::new(&design).unwrap();
        let outcome = compiler.attach(&mut sim).expect("attach");
        let artifact = JitArtifact {
            rustc: rustc_version().unwrap().to_owned(),
            sig: outcome.sig,
            dylib: std::fs::read(&outcome.dylib_path).unwrap(),
            compile_ms: outcome.compile_ms,
        };
        // A fresh cache directory proves the bytes alone are enough.
        let other = temp_compiler("artifact-other");
        let mut warm = Simulator::new(&design).unwrap();
        let restored = other
            .attach_artifact(&mut warm, &artifact)
            .expect("restore");
        assert_eq!(restored.provenance, JitProvenance::Store);
        warm.poke_by_name("en", 1).unwrap();
        warm.step_n(5);
        assert_eq!(warm.peek_output("value").unwrap(), 5);
    }

    #[test]
    fn stale_artifact_is_rejected() {
        let design = counter_design();
        let mut sim = Simulator::new(&design).unwrap();
        let artifact = JitArtifact {
            rustc: "rustc 0.0.0".to_owned(),
            sig: 0xdead_beef,
            dylib: vec![0x7f, b'E', b'L', b'F'],
            compile_ms: 1,
        };
        let compiler = temp_compiler("stale");
        match compiler.attach_artifact(&mut sim, &artifact) {
            Err(JitError::SignatureMismatch { .. }) => {}
            other => panic!("expected signature mismatch, got {other:?}"),
        }
        assert!(!sim.has_jit());
    }
}
