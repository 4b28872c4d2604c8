//! A minimal JSON reader for [`crate::Artifact::from_json`].
//!
//! The parser and writer helpers live in [`dpc_obs::json`] so the trace
//! writer and the artifact schema share one hand-rolled implementation
//! (the workspace has no serialization dependency). This module
//! re-exports it to keep the `dpc_api::json` path stable for existing
//! callers.

pub use dpc_obs::json::*;
