//! # predtop-store
//!
//! Content-addressed on-disk artifact store for PredTOP — a small,
//! dependency-free object database in the style of git's ODB.
//!
//! Every run of the search/profiling pipeline pays for thousands of
//! simulator (or predictor) queries whose answers are pure functions of
//! a *structural descriptor* (stage shape × mesh × parallel config,
//! see `predtop-parallel`). This crate persists those answers — plus
//! whole plan/search snapshots and trained model weights — so a second
//! run can be served from disk instead of recomputed (the
//! profile-once-reuse-forever economics Alpa and Proteus rely on).
//!
//! Layout of a store directory:
//!
//! ```text
//! <root>/objects/ab/cdef…   loose objects, two-level hex fanout
//! <root>/packs/pack-0000000N.pack   immutable gc generations
//! <root>/tmp/               staging area for atomic writes
//! <root>/gc.lock            lockfile held during compaction
//! ```
//!
//! Design rules:
//!
//! * **Key-addressed, content-verified.** An object's address is the
//!   128-bit FNV-1a digest of its *key bytes* (kind tag + caller key),
//!   not of its payload; the payload digest is stored alongside and
//!   re-checked on every read, so corruption surfaces as a structured
//!   [`StoreError`] instead of a wrong answer.
//! * **Atomic writes, no write locks.** Writers stage into `tmp/` and
//!   `rename(2)` into place; concurrent writers of the same key race
//!   benignly because canonical encodings make their payloads
//!   byte-identical. Only [`Store::gc`] takes the lockfile.
//! * **Generation-based gc.** Compaction folds loose objects (and prior
//!   packs) into one sorted, deduplicated pack file per generation;
//!   loose objects written after a gc shadow packed ones on read.
//! * **Zero dependencies.** `predtop-ir` and `predtop-tensor` sit at the
//!   bottom of the workspace graph and re-export [`hash`] from here, so
//!   this crate uses nothing above libstd. Typed encodings for the
//!   object kinds live in the crates that own the types; this crate
//!   moves verified bytes and provides the byte codec primitives
//!   ([`encode`]) and the JSON writer ([`json`]) they build on.

#![warn(missing_docs)]

pub mod encode;
pub mod hash;
pub mod json;
pub mod lock;
mod odb;

pub use encode::{ByteReader, ByteWriter, DecodeError};
pub use hash::{Digest, Fnv1a128, Fnv1a64, SplitMix64};
pub use lock::{LockError, Lockfile};
pub use odb::{GcReport, ObjectKind, Store, StoreError, StoreStats, VerifyReport};
