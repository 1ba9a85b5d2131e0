//! # hopi-store — database-backed storage for the HOPI index
//!
//! The paper stores the 2-hop cover "in database tables and [runs] SQL
//! queries against these tables" (§3.4): two index-organized tables
//!
//! ```sql
//! CREATE TABLE LIN (ID NUMBER(10), INID  NUMBER(10) [, DIST NUMBER(10)]);
//! CREATE TABLE LOUT(ID NUMBER(10), OUTID NUMBER(10) [, DIST NUMBER(10)]);
//! ```
//!
//! each with a *forward* index on `(ID, INID/OUTID)` and a *backward* index
//! on `(INID/OUTID, ID)`. A connection test is the join
//!
//! ```sql
//! SELECT COUNT(*) FROM LIN, LOUT
//!  WHERE LOUT.ID = :u AND LIN.ID = :v AND LOUT.OUTID = LIN.INID
//! ```
//!
//! and the distance lookup replaces `COUNT(*)` with
//! `MIN(LOUT.DIST + LIN.DIST)` (§5.1). A frozen cover
//! ([`hopi_core::FrozenCover`]) already is that physical design: its
//! sorted `Lin`/`Lout` label rows are the forward indexes and its inverted
//! holder rows the backward ones, and it answers both queries by
//! intersecting a `Lout` row with a `Lin` row. [`persist`] writes it to disk as a single
//! length-prefixed CSR blob ([`save_frozen`]), the serving layout that
//! loads with no re-sorting; [`load_index`] also reads the LIN/LOUT row
//! files of earlier releases, straight into a frozen cover. All files are
//! written crash-atomically (temp file + fsync + rename + directory
//! fsync). [`wal`] adds the durable write path: a length-prefixed,
//! checksummed write-ahead log of collection mutations with group commit,
//! paired with atomic checkpoints ([`save_checkpoint`]) that snapshot
//! collection + frozen cover at a WAL sequence number. Every durability
//! syscall goes through [`vfs`]: a pluggable backend that is [`StdVfs`]
//! in production and [`FaultVfs`] — deterministic fault injection with
//! op counting — under the chaos test suites.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod persist;
pub mod vfs;
pub mod wal;

pub use persist::{
    atomic_write_file, atomic_write_file_in, load_checkpoint, load_checkpoint_in, load_frozen,
    load_index, save_checkpoint, save_checkpoint_in, save_frozen, sync_parent_dir,
    sync_parent_dir_in, Checkpoint, PersistError, STORE_FORMAT_VERSION,
};
pub use vfs::{FaultKind, FaultOp, FaultOpKind, FaultVfs, StdVfs, Vfs, VfsFile};
pub use wal::{SyncPolicy, Wal, WalMetrics, WalRecord};
