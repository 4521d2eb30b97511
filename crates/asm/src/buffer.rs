//! Growable machine-code buffer.

/// A growable byte buffer holding machine code under construction.
///
/// [`crate::Assembler`] appends encoded instructions here; the buffer also
/// supports patching previously emitted bytes, which label fixups use.
#[derive(Debug, Default, Clone)]
pub(crate) struct CodeBuffer {
    bytes: Vec<u8>,
}

impl CodeBuffer {
    /// Current length in bytes (== the offset of the next emitted byte).
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Append a single byte.
    #[inline]
    pub(crate) fn push_u8(&mut self, b: u8) {
        self.bytes.push(b);
    }

    /// Append a little-endian 32-bit value.
    #[inline]
    pub(crate) fn push_u32(&mut self, v: u32) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian 64-bit value.
    #[inline]
    pub(crate) fn push_u64(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a signed 32-bit value (little-endian).
    #[inline]
    pub(crate) fn push_i32(&mut self, v: i32) {
        self.push_u32(v as u32);
    }

    /// Append raw bytes.
    #[inline]
    pub(crate) fn extend(&mut self, bytes: &[u8]) {
        self.bytes.extend_from_slice(bytes);
    }

    /// Overwrite four bytes at `offset` with a little-endian 32-bit value.
    ///
    /// # Panics
    ///
    /// Panics if `offset + 4` exceeds the buffer length.
    pub(crate) fn patch_u32(&mut self, offset: usize, v: u32) {
        self.bytes[offset..offset + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Consume the buffer and return the bytes.
    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_widths_are_little_endian() {
        let mut b = CodeBuffer::default();
        b.push_u8(0xAA);
        b.push_u32(0x33445566);
        b.push_u64(0x778899AABBCCDDEE);
        assert_eq!(
            b.into_bytes(),
            [0xAA, 0x66, 0x55, 0x44, 0x33, 0xEE, 0xDD, 0xCC, 0xBB, 0xAA, 0x99, 0x88, 0x77]
        );
    }

    #[test]
    fn patch_round_trips() {
        let mut b = CodeBuffer::default();
        b.push_u32(0);
        b.push_u8(0xC3);
        b.patch_u32(0, 0xDEADBEEF);
        assert_eq!(b.len(), 5);
        assert_eq!(b.into_bytes(), [0xEF, 0xBE, 0xAD, 0xDE, 0xC3]);
    }

    #[test]
    fn negative_i32_encoding() {
        let mut b = CodeBuffer::default();
        b.push_i32(-1);
        assert_eq!(b.into_bytes(), [0xFF, 0xFF, 0xFF, 0xFF]);
    }
}
