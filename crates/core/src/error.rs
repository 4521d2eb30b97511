//! Error type for the JITSPMM framework.

use jitspmm_asm::{AsmError, IsaLevel};
use std::fmt;

/// Errors produced while compiling or executing a JIT SpMM kernel.
#[derive(Debug)]
pub enum JitSpmmError {
    /// The requested ISA tier is not supported by the host CPU.
    UnsupportedIsa {
        /// The tier that was requested.
        requested: IsaLevel,
        /// The best tier the host supports.
        supported: IsaLevel,
    },
    /// The dense operand shape does not match the kernel this engine
    /// compiled.
    ShapeMismatch(String),
    /// The number of dense columns is zero (nothing to compute).
    EmptyDenseMatrix,
    /// A shard plan was requested for a sparse matrix with no rows — there
    /// is nothing to split (see [`crate::shard::plan_shards`]).
    EmptySparseMatrix,
    /// The calling thread already holds this engine's launch lock — it has
    /// a [`crate::BatchStream`] over the engine open — so blocking for the
    /// lock would self-deadlock; one engine runs one launch at a time (its
    /// dynamic row-claim counter is shared state embedded in the generated
    /// code). Finish or drop the open stream first.
    LaunchInProgress,
    /// A serving request was tagged with an engine id the server does not
    /// have (valid ids are `0..engines`).
    UnknownEngine {
        /// The engine id the request named.
        requested: usize,
        /// How many engines the server owns.
        engines: usize,
    },
    /// An error bubbled up from the assembler.
    Asm(AsmError),
    /// The requested configuration cannot be code-generated.
    InvalidConfig(String),
}

impl fmt::Display for JitSpmmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JitSpmmError::UnsupportedIsa { requested, supported } => {
                write!(f, "requested ISA tier {requested} but the host only supports {supported}")
            }
            JitSpmmError::ShapeMismatch(msg) => write!(f, "shape mismatch: {msg}"),
            JitSpmmError::EmptyDenseMatrix => write!(f, "the dense matrix has zero columns"),
            JitSpmmError::EmptySparseMatrix => {
                write!(f, "the sparse matrix has zero rows: nothing to shard")
            }
            JitSpmmError::LaunchInProgress => {
                write!(f, "an asynchronous launch of this engine is still in flight")
            }
            JitSpmmError::UnknownEngine { requested, engines } => write!(
                f,
                "request routed to engine {requested} but the server only has {engines} \
                 engine(s) (valid ids are 0..{engines})"
            ),
            JitSpmmError::Asm(e) => write!(f, "assembler error: {e}"),
            JitSpmmError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for JitSpmmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JitSpmmError::Asm(e) => Some(e),
            _ => None,
        }
    }
}

impl From<AsmError> for JitSpmmError {
    fn from(e: AsmError) -> Self {
        JitSpmmError::Asm(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e =
            JitSpmmError::UnsupportedIsa { requested: IsaLevel::Avx512, supported: IsaLevel::Avx2 };
        assert!(e.to_string().contains("avx512"));
        assert!(e.to_string().contains("avx2"));
        let e: JitSpmmError = AsmError::EmptyCode.into();
        assert!(e.to_string().contains("assembler"));
    }
}
