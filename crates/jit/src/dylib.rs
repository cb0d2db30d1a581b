//! `dlopen` plumbing for compiled cycle engines.
//!
//! The loader is raw `libdl` FFI — no external crates — and the loaded
//! handle lives as long as the [`DylibEngine`], which the simulator holds
//! behind an `Arc`. The handle is closed on drop, after every clone of
//! the owning simulator has released it, so the settle and edge function
//! pointers can never outlive their code.
//!
//! The generated crate is `#![no_std]` and built as one codegen unit, so
//! an artifact holds the two cycle functions and little else: tens of
//! kilobytes, where a std-linked `cdylib` weighs megabytes that every
//! store round-trip would read, checksum and write again. The panic
//! handler's `abort` would resolve against the host process's libc at
//! `dlopen` time; no panic path survives optimisation in practice, and
//! the artifacts import no function at all. Memories cross the ABI as
//! one pointer to the simulator's flat memory slab; the per-memory
//! offsets are baked into the code.

use crate::JitError;
use std::ffi::{c_char, c_int, c_void, CString};
use std::path::{Path, PathBuf};
use strober_sim::NativeEngine;

#[link(name = "dl")]
extern "C" {
    fn dlopen(filename: *const c_char, flags: c_int) -> *mut c_void;
    fn dlsym(handle: *mut c_void, symbol: *const c_char) -> *mut c_void;
    fn dlclose(handle: *mut c_void) -> c_int;
    fn dlerror() -> *mut c_char;
}

const RTLD_NOW: c_int = 2;

type SettleFn = unsafe extern "C" fn(*mut u64, *const u64, *const u64, *const u64);
type EdgeFn = unsafe extern "C" fn(*const u64, *mut u64, *mut u64);
type SigFn = unsafe extern "C" fn() -> u64;

/// The last `dlerror` as a string, or a placeholder when libdl reports
/// nothing.
fn last_dl_error() -> String {
    // Safety: dlerror returns a thread-local NUL-terminated string or null.
    unsafe {
        let msg = dlerror();
        if msg.is_null() {
            "unknown dlopen error".to_owned()
        } else {
            std::ffi::CStr::from_ptr(msg).to_string_lossy().into_owned()
        }
    }
}

/// A native cycle engine loaded from a compiled dylib.
///
/// Implements [`NativeEngine`]; attach with
/// [`Simulator::attach_jit`](strober_sim::Simulator::attach_jit), which
/// verifies [`signature`](NativeEngine::signature) against the tape's
/// own generated source first.
pub struct DylibEngine {
    handle: *mut c_void,
    settle: SettleFn,
    edge: EdgeFn,
    sig: u64,
    path: PathBuf,
}

// Safety: the dylib's code section is immutable and the settle and edge
// functions write only through the pointers passed per call; the raw
// handle is only used again on drop.
unsafe impl Send for DylibEngine {}
unsafe impl Sync for DylibEngine {}

impl std::fmt::Debug for DylibEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DylibEngine")
            .field("path", &self.path)
            .field("sig", &format_args!("{:#x}", self.sig))
            .finish()
    }
}

impl DylibEngine {
    /// Loads a compiled cycle dylib and resolves its entry points.
    ///
    /// # Errors
    ///
    /// [`JitError::Dlopen`] when the file is not a complete ELF object or
    /// cannot be loaded, and [`JitError::MissingSymbol`] when it is not a
    /// strober-jit dylib of this codegen revision.
    pub fn load(path: &Path) -> Result<Self, JitError> {
        if !whole_elf(&std::fs::read(path)?) {
            return Err(JitError::Dlopen(format!(
                "{}: not a whole 64-bit ELF object",
                path.display()
            )));
        }
        let c_path = CString::new(path.as_os_str().as_encoded_bytes())
            .map_err(|_| JitError::Dlopen("path contains NUL".to_owned()))?;
        // Safety: plain dlopen of a regular file path.
        let handle = unsafe { dlopen(c_path.as_ptr(), RTLD_NOW) };
        if handle.is_null() {
            return Err(JitError::Dlopen(last_dl_error()));
        }
        let lookup = |name: &'static str| -> Result<*mut c_void, JitError> {
            let c_name = CString::new(name).expect("static name");
            // Safety: handle is the live handle opened above.
            let sym = unsafe { dlsym(handle, c_name.as_ptr()) };
            if sym.is_null() {
                // Safety: closing the handle we just opened.
                unsafe { dlclose(handle) };
                Err(JitError::MissingSymbol(name))
            } else {
                Ok(sym)
            }
        };
        let settle_sym = lookup("strober_jit_settle")?;
        let edge_sym = lookup("strober_jit_edge")?;
        let sig_sym = lookup("strober_jit_sig")?;
        // Safety: the symbols were emitted by our own codegen with these
        // exact signatures; transmuting a data pointer to a function
        // pointer is what dlsym requires on every Unix.
        let settle: SettleFn = unsafe { std::mem::transmute(settle_sym) };
        let edge: EdgeFn = unsafe { std::mem::transmute(edge_sym) };
        let sig_fn: SigFn = unsafe { std::mem::transmute(sig_sym) };
        // Safety: nullary pure function exported by the generated code.
        let sig = unsafe { sig_fn() };
        Ok(DylibEngine {
            handle,
            settle,
            edge,
            sig,
            path: path.to_path_buf(),
        })
    }

    /// Where the dylib was loaded from.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Whether `bytes` is a whole 64-bit ELF object: every loadable segment
/// and the section header table lie inside the file.
///
/// `dlopen` does not check this itself. It maps segments past the end of
/// a truncated file and the process faults on first touch, sometimes
/// inside `dlopen`, sometimes on the first call. A half-written cache
/// file must end in a recompile, never in a crash.
fn whole_elf(bytes: &[u8]) -> bool {
    const PT_LOAD: u64 = 1;
    if bytes.len() < 64 || bytes[..4] != *b"\x7fELF" || bytes[4] != 2 {
        return false;
    }
    let little = bytes[5] == 1;
    let field = |at: usize, len: usize| -> Option<u64> {
        let raw = bytes.get(at..at + len)?;
        let mut word = [0u8; 8];
        Some(if little {
            word[..len].copy_from_slice(raw);
            u64::from_le_bytes(word)
        } else {
            word[8 - len..].copy_from_slice(raw);
            u64::from_be_bytes(word)
        })
    };
    let len = bytes.len() as u64;
    let within = |offset: u64, size: u64| offset.checked_add(size).is_some_and(|end| end <= len);
    let complete = || -> Option<bool> {
        let (phoff, phentsize, phnum) = (field(0x20, 8)?, field(0x36, 2)?, field(0x38, 2)?);
        let (shoff, shentsize, shnum) = (field(0x28, 8)?, field(0x3a, 2)?, field(0x3c, 2)?);
        if !within(phoff, phentsize * phnum) || !within(shoff, shentsize * shnum) {
            return Some(false);
        }
        for i in 0..phnum {
            let ph = usize::try_from(phoff + i * phentsize).ok()?;
            if field(ph, 4)? == PT_LOAD && !within(field(ph + 8, 8)?, field(ph + 32, 8)?) {
                return Some(false);
            }
        }
        Some(true)
    };
    complete() == Some(true)
}

impl Drop for DylibEngine {
    fn drop(&mut self) {
        // Safety: the handle is live and no call can be in flight — the
        // simulator's Arc keeps the engine alive across every clone.
        unsafe { dlclose(self.handle) };
    }
}

impl NativeEngine for DylibEngine {
    fn settle(&self, values: &mut [u64], inputs: &[u64], regs: &[u64], mem: &[u64]) {
        // Safety: attach-time signature verification proved this code was
        // generated from the exact tape whose slabs we are passing, so
        // every baked index and memory offset is in bounds.
        unsafe {
            (self.settle)(
                values.as_mut_ptr(),
                inputs.as_ptr(),
                regs.as_ptr(),
                mem.as_ptr(),
            );
        }
    }

    fn clock_edge(&self, values: &[u64], regs: &mut [u64], mem: &mut [u64]) {
        // Safety: as for `settle`; the edge writes only register and
        // memory words at baked, in-bounds offsets.
        unsafe { (self.edge)(values.as_ptr(), regs.as_mut_ptr(), mem.as_mut_ptr()) }
    }

    fn signature(&self) -> u64 {
        self.sig
    }
}
