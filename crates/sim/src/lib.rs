#![warn(missing_docs)]

//! Execute-driven, cycle-level out-of-order core simulator.
//!
//! This crate is the substrate the paper's evaluation runs on — the role
//! gem5's O3 model plays in the original work. It models a modern
//! out-of-order core at the level of detail register-renaming research
//! needs:
//!
//! * 3-wide fetch/decode/rename/commit, 128-entry ROB, 40-entry issue
//!   queue with `(physical register, version)` wakeup tags, split
//!   load/store queues with store-to-load forwarding (Table I defaults in
//!   [`SimConfig`]).
//! * **Execute-driven speculation**: fetch follows *predicted* PCs through
//!   the real program image, wrong-path instructions are renamed, issued
//!   and executed against speculative register state, and mis-speculation
//!   recovery rolls everything back — including the proposed scheme's
//!   shadow-cell recover commands, which are charged extra redirect
//!   cycles.
//! * A gshare + BTB + return-address-stack front end, the
//!   [`regshare_mem`] cache/TLB/DRAM timing models, and per-class
//!   functional-unit pools.
//! * **Value-carrying execution**: operands are read from the
//!   [`regshare_core::RegFile`] (shadow cells included), so physical
//!   register sharing is verified for correctness, not just counted. With
//!   [`SimConfig::check_oracle`] enabled the simulator steps a functional
//!   [`regshare_isa::Machine`] at every commit and fails loudly on any
//!   divergence.
//! * Precise exceptions: injected page faults are detected at execute,
//!   deferred to commit, and recovered exactly as §IV-B describes.
//!
//! # Examples
//!
//! ```
//! use regshare_isa::{Asm, reg};
//! use regshare_sim::{Pipeline, SimConfig};
//! use regshare_core::{BaselineRenamer, Renamer, RenamerConfig};
//!
//! let mut a = Asm::new();
//! a.li(reg::x(1), 7);
//! a.mul(reg::x(1), reg::x(1), reg::x(1));
//! a.halt();
//! let program = a.assemble();
//!
//! let renamer = BaselineRenamer::new(RenamerConfig::baseline(64));
//! let mut sim = Pipeline::new(program, Box::new(renamer), SimConfig::default());
//! let report = sim.run().unwrap();
//! assert_eq!(report.committed_instructions, 3);
//! ```

mod bpred;
mod cancel;
mod config;
mod core_state;
mod errors;
mod fu;
mod inject;
mod lsq;
mod pipeline;
mod policy;
mod profile;
mod recovery;
mod report;
mod rob;
mod sampled;
mod scoreboard;
mod stages;
mod warm;
mod wheel;

pub use bpred::{BranchPredictor, BranchPredictorConfig};
pub use cancel::{CancelToken, CANCEL_CHECK_INTERVAL};
pub use config::{FetchPolicyKind, FuConfig, IssuePolicyKind, RecoveryPolicyKind, SimConfig};
pub use errors::{HeadSnapshot, PipelineSnapshot, SimError, TraceEvent, TraceStage};
pub use fu::FuPool;
pub use inject::{InjectEvent, InjectKind, InjectSchedule, InjectStats};
pub use lsq::{LoadStoreQueue, LsqError, StoreSearch};
pub use pipeline::Pipeline;
pub use policy::{
    CheckpointWalk, FetchPolicy, IcountFetch, IssueSelect, OldestFirst, RecoveryPolicy,
    RoundRobinFetch, SquashAll, YoungestFirst,
};
pub use profile::{StageProfile, StageSlot, StageTimer, NUM_STAGE_SLOTS, STAGE_SLOT_NAMES};
pub use report::SimReport;
pub use sampled::{
    run_window, run_window_schemes, sample_windows, window_specs, SampledConfig, SampledReport,
    WindowJob, WindowResult, WindowSpec, DEFAULT_LEAD,
};
pub use scoreboard::Scoreboard;
pub use warm::{Checkpoint, FunctionalWarmer, MemWarm, Warmable};
pub use wheel::CompletionWheel;
