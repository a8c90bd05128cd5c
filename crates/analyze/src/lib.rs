#![warn(missing_docs)]

//! Static analysis of TRISC programs for the register-sharing study.
//!
//! The dynamic experiments (Fig. 1/2 of the paper) measure how often a
//! produced value is consumed exactly once *on one execution*. This crate
//! answers the complementary static questions:
//!
//! * [`mod@cfg`] — control-flow graph construction (basic blocks, edges,
//!   reachability, dominators) directly over instruction indices.
//! * [`dataflow`] — worklist analyses of maybe-uninitialized reads and
//!   of consumer counts, bounding how many times each value can be read
//!   before and after it crosses a loop back edge.
//! * [`mod@classify`] — per-definition-site verdicts: provably dead,
//!   guaranteed single consumer (with or without the safe redefining
//!   shape), multi-consumer, or branch-dependent.
//! * [`memdis`] — conservative store/load disambiguation over
//!   block-locally value-numbered address expressions, feeding the
//!   dead-store lint.
//! * [`mod@lint`] — a program verifier with machine-readable diagnostics,
//!   exercised in CI against [`corpus`], a seeded set of deliberately
//!   broken programs.
//! * [`oracle`] — runs the functional emulator and cross-checks every
//!   dynamic consumer count ([`regshare_isa::trace_values`]) against the
//!   static bounds; its
//!   instance-weighted counts bracket the dynamic single-use fraction
//!   from below (guaranteed-single sites) and above (not-dead,
//!   not-multi sites).
//! * [`hints`] — compiles the classifier's proofs into the
//!   [`regshare_isa::ShareHintTable`] sidecar the renamer's `HintPolicy`
//!   consumes.

pub mod cfg;
pub mod classify;
pub mod corpus;
pub mod dataflow;
pub mod hints;
pub mod lint;
pub mod memdis;
pub mod oracle;
pub mod regset;

pub use cfg::{BasicBlock, Cfg};
pub use classify::{classify, classify_with_loops, Classification, ClassifiedSite, SiteClass};
pub use corpus::{negative_corpus, CorpusCase};
pub use dataflow::{uninit_reads, use_counts_split, DefSite, SplitFact};
pub use hints::{compile_hints, hint_for_class};
pub use lint::{is_clean_of_errors, lint, lint_program, DiagCode, Diagnostic, Severity};
pub use memdis::{block_mem_refs, dead_stores, may_alias, MemRef};
pub use oracle::{oracle_check, OracleReport, Violation};
pub use regset::RegSet;
