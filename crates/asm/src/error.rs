//! Error type for assembly and executable-memory operations.

use std::fmt;

/// Errors produced while assembling code or materializing it into executable
/// memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmError {
    /// A label was referenced by a jump but never bound to a position.
    UnboundLabel {
        /// Index of the offending label.
        label: usize,
    },
    /// A label was bound more than once.
    LabelRebound {
        /// Index of the offending label.
        label: usize,
    },
    /// A relative jump target was further away than the displacement width
    /// allows.
    JumpOutOfRange {
        /// Byte position of the fixup.
        at: usize,
        /// Computed displacement that did not fit.
        disp: i64,
    },
    /// The operating system refused to allocate or protect executable memory.
    ExecAlloc {
        /// The `errno`-style code returned by the failing call.
        code: i32,
        /// Which call failed (`"mmap"` or `"mprotect"`).
        call: &'static str,
    },
    /// Attempted to materialize an empty code buffer.
    EmptyCode,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::UnboundLabel { label } => {
                write!(f, "label {label} referenced but never bound")
            }
            AsmError::LabelRebound { label } => write!(f, "label {label} bound twice"),
            AsmError::JumpOutOfRange { at, disp } => {
                write!(f, "jump displacement {disp} at offset {at} does not fit in 32 bits")
            }
            AsmError::ExecAlloc { code, call } => {
                write!(f, "{call} for executable memory failed with errno {code}")
            }
            AsmError::EmptyCode => write!(f, "cannot make an empty code buffer executable"),
        }
    }
}

impl std::error::Error for AsmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty() {
        let errors = [
            AsmError::UnboundLabel { label: 3 },
            AsmError::LabelRebound { label: 1 },
            AsmError::JumpOutOfRange { at: 10, disp: 1 << 40 },
            AsmError::ExecAlloc { code: 12, call: "mmap" },
            AsmError::EmptyCode,
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }
}
