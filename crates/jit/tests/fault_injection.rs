//! Fault injection for the JIT file cache and the store artifact path.
//!
//! A bad dylib must never crash the process or attach: a truncated file
//! at the content-addressed cache path, a foreign dylib that lacks the
//! clock-edge entry point, and a store artifact whose bytes are cut
//! short each end in a typed error and then a recompile whose results
//! match the interpreter. The last case pins the artifact shape: the
//! generated crate is `#![no_std]` with an aborting panic handler and a
//! compiled artifact stays far below the size of a std-linked one.
//!
//! Every case skips (with a printed reason) when no `rustc` is on
//! `PATH`, the condition under which the production ladder falls back
//! to the interpreter without touching any dylib.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;
use strober_dsl::Ctx;
use strober_jit::{rustc_version, DylibEngine, JitArtifact, JitCompiler, JitError, JitProvenance};
use strober_rtl::{Design, Width};
use strober_sim::Simulator;

/// A counter feeding a memory write port and a read port, so both the
/// native settle and the native edge have work to do.
fn design() -> Design {
    let ctx = Ctx::new("faults");
    let w8 = Width::new(8).expect("static width");
    let addr = ctx.input("addr", Width::new(3).expect("static width"));
    let we = ctx.input("we", Width::BIT);
    let count = ctx.reg("count", w8, 0);
    count.set_en(&count.out().add_lit(3), &we);
    let m = ctx.mem("m", w8, 6);
    m.write(&addr, &count.out(), &we);
    ctx.output("q", &m.read(&addr));
    ctx.output("total", &count.out());
    ctx.finish().expect("valid design")
}

/// A fresh cache directory for one case.
fn cache_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("strober-jit-faults")
        .join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create cache dir");
    dir
}

/// The good artifact for [`design`] and its content-addressed file
/// name, compiled once per test binary in a directory of its own.
fn good_artifact() -> &'static (Vec<u8>, PathBuf) {
    static GOOD: OnceLock<(Vec<u8>, PathBuf)> = OnceLock::new();
    GOOD.get_or_init(|| {
        let dir = cache_dir("good");
        let mut sim = Simulator::new(&design()).expect("valid");
        let outcome = JitCompiler::new(&dir)
            .attach(&mut sim)
            .expect("cold attach");
        let bytes = std::fs::read(&outcome.dylib_path).expect("read dylib");
        let name = outcome.dylib_path.file_name().expect("file name").into();
        drop(sim);
        let _ = std::fs::remove_dir_all(&dir);
        (bytes, name)
    })
}

/// Runs `sim` (JIT attached) beside an interpreted simulator and asserts
/// outputs every cycle and the final state agree.
fn assert_matches_interpreter(sim: &mut Simulator) {
    assert!(sim.has_jit());
    let mut interp = Simulator::new(sim.design()).expect("valid");
    for cycle in 0..40u64 {
        for s in [&mut *sim, &mut interp] {
            s.poke_by_name("addr", cycle * 5 % 8).expect("port");
            s.poke_by_name("we", u64::from(cycle % 3 != 0))
                .expect("port");
        }
        for out in ["q", "total"] {
            assert_eq!(
                sim.peek_output(out).expect("output"),
                interp.peek_output(out).expect("output"),
                "output `{out}` diverged at cycle {cycle}"
            );
        }
        sim.step();
        interp.step();
    }
    assert_eq!(sim.state(), interp.state());
}

/// Attaches through the file cache at `dir`, expecting a fresh compile.
fn assert_recompiles(dir: &Path) {
    let mut sim = Simulator::new(&design()).expect("valid");
    let outcome = JitCompiler::new(dir).attach(&mut sim).expect("recompile");
    assert_eq!(outcome.provenance, JitProvenance::Cold);
    assert!(DylibEngine::load(&outcome.dylib_path).is_ok());
    assert_matches_interpreter(&mut sim);
}

fn skip() -> bool {
    if rustc_version().is_none() {
        println!("skipping: no rustc on PATH (the production fallback case)");
        return true;
    }
    false
}

#[test]
fn truncated_cache_file_is_recompiled() {
    if skip() {
        return;
    }
    let (bytes, name) = good_artifact();
    // Cuts through the loadable segments load "successfully" and then
    // fault on first touch unless the loader rejects them up front; a
    // cut through the trailing section headers is merely incomplete.
    for cut in [bytes.len() / 4, bytes.len() / 2, bytes.len() - 1] {
        let dir = cache_dir(&format!("truncated-{cut}"));
        let path = dir.join(name);
        std::fs::write(&path, &bytes[..cut]).expect("plant truncated dylib");
        match DylibEngine::load(&path) {
            Err(JitError::Dlopen(msg)) => assert!(msg.contains("not a whole"), "{msg}"),
            other => panic!("cut at {cut}: expected a load error, got {other:?}"),
        }
        assert_recompiles(&dir);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn foreign_dylib_without_the_edge_is_recompiled() {
    if skip() {
        return;
    }
    let (_, name) = good_artifact();
    let dir = cache_dir("foreign");
    // A settle-only dylib that even reports the right signature: the
    // shape of an artifact from before the clock edge was native.
    let sig = Simulator::new(&design()).expect("valid").jit_source().sig;
    let src = dir.join("foreign.rs");
    std::fs::write(
        &src,
        format!(
            "#![no_std]\n\
             extern \"C\" {{ fn abort() -> !; }}\n\
             #[panic_handler]\n\
             fn panic(_: &core::panic::PanicInfo) -> ! {{ unsafe {{ abort() }} }}\n\
             #[no_mangle]\n\
             pub unsafe extern \"C\" fn strober_jit_settle(\n\
             _v: *mut u64, _i: *const u64, _r: *const u64, _m: *const u64) {{}}\n\
             #[no_mangle]\n\
             pub extern \"C\" fn strober_jit_sig() -> u64 {{ {sig:#x} }}\n"
        ),
    )
    .expect("write foreign source");
    let path = dir.join(name);
    let status = Command::new("rustc")
        .args([
            "--edition",
            "2021",
            "--crate-type",
            "cdylib",
            "-C",
            "panic=abort",
            "-o",
        ])
        .arg(&path)
        .arg(&src)
        .status()
        .expect("run rustc");
    assert!(status.success(), "foreign dylib must compile");
    match DylibEngine::load(&path) {
        Err(JitError::MissingSymbol(name)) => assert_eq!(name, "strober_jit_edge"),
        other => panic!("expected a missing edge symbol, got {other:?}"),
    }
    assert_recompiles(&dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_store_artifact_falls_through_to_a_compile() {
    if skip() {
        return;
    }
    let (bytes, _) = good_artifact();
    let dir = cache_dir("store");
    let mut sim = Simulator::new(&design()).expect("valid");
    let artifact = JitArtifact {
        rustc: rustc_version().expect("rustc").to_owned(),
        sig: sim.jit_source().sig,
        dylib: bytes[..bytes.len() / 2].to_vec(),
        compile_ms: 1,
    };
    let compiler = JitCompiler::new(&dir);
    match compiler.attach_artifact(&mut sim, &artifact) {
        Err(JitError::Dlopen(_)) => {}
        other => panic!("expected a load error, got {other:?}"),
    }
    assert!(!sim.has_jit(), "a failed attach must leave the interpreter");
    // The flow's ladder on a store miss: compile through the file cache,
    // over the bad bytes the artifact left there.
    assert_recompiles(&dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_artifact_replaces_a_damaged_cache_file() {
    if skip() {
        return;
    }
    // The store's bytes are checked; the file under the same cache name
    // is not. A warm attach must run the store's bytes, not the file's.
    let (bytes, name) = good_artifact();
    let dir = cache_dir("damaged");
    let mut damaged = bytes.clone();
    let mid = damaged.len() / 2;
    damaged[mid] ^= 0x40;
    std::fs::write(dir.join(name), &damaged).expect("plant damaged dylib");
    let mut sim = Simulator::new(&design()).expect("valid");
    let artifact = JitArtifact {
        rustc: rustc_version().expect("rustc").to_owned(),
        sig: sim.jit_source().sig,
        dylib: bytes.clone(),
        compile_ms: 1,
    };
    let outcome = JitCompiler::new(&dir)
        .attach_artifact(&mut sim, &artifact)
        .expect("store attach");
    assert_eq!(outcome.provenance, JitProvenance::Store);
    assert_eq!(std::fs::read(&outcome.dylib_path).expect("read"), *bytes);
    assert_matches_interpreter(&mut sim);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn artifacts_are_freestanding_and_small() {
    let source = Simulator::new(&design())
        .expect("valid")
        .jit_source()
        .source;
    assert!(source.contains("#![no_std]"));
    assert!(source.contains("#[panic_handler]"));
    assert!(source.contains("abort()"), "the panic handler must abort");
    assert!(
        !source.contains("std::"),
        "no std path in the generated crate"
    );
    if skip() {
        return;
    }
    let (bytes, _) = good_artifact();
    assert!(
        bytes.len() < 256 * 1024,
        "artifact is {} bytes: std has crept back into the dylib",
        bytes.len()
    );
}
