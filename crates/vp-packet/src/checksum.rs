//! RFC 1071 Internet checksum.

/// Computes the Internet checksum (one's-complement sum folded to 16 bits,
/// then complemented) over `data`. An odd trailing byte is padded with zero,
/// per RFC 1071.
pub fn internet_checksum(data: &[u8]) -> u16 {
    !fold(sum_words(data))
}

/// Computes the checksum over several slices as if concatenated.
///
/// Slices other than the last must have even length (true for all uses here:
/// pseudo-headers and fixed headers are even-sized).
pub fn internet_checksum_parts(parts: &[&[u8]]) -> u16 {
    let mut total: u32 = 0;
    for (i, part) in parts.iter().enumerate() {
        debug_assert!(
            i == parts.len() - 1 || part.len() % 2 == 0,
            "non-final checksum part must be even-length"
        );
        total += sum_words(part);
    }
    !fold(total)
}

/// Verifies data that includes its checksum field: the folded sum over the
/// whole buffer must be 0xffff (i.e. complement zero).
pub fn verify(data: &[u8]) -> bool {
    fold(sum_words(data)) == 0xffff
}

/// The one's-complement running sum over `data` (not yet folded or
/// complemented). Batch encoders precompute this over a message's fixed
/// words once, then [`finish`] the sum plus the varying words per
/// message — associativity of the u32 word sum makes that exactly
/// [`internet_checksum`] over the assembled message.
///
/// Slices fed to a shared running sum must be even-length (same rule as
/// [`internet_checksum_parts`]).
pub fn partial_sum(data: &[u8]) -> u32 {
    sum_words(data)
}

/// Folds and complements a running sum built from [`partial_sum`] (plus
/// any manually added big-endian words) into the final checksum.
pub fn finish(sum: u32) -> u16 {
    !fold(sum)
}

#[expect(clippy::indexing_slicing, reason = "chunks_exact(2) yields two-byte chunks.")]
fn sum_words(data: &[u8]) -> u32 {
    let mut sum: u32 = 0;
    let mut chunks = data.chunks_exact(2);
    for w in &mut chunks {
        sum += u32::from(u16::from_be_bytes([w[0], w[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    sum
}

fn fold(mut sum: u32) -> u16 {
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    sum as u16
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1071_worked_example() {
        // The classic example from RFC 1071 §3.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        // Sum = 0x00001 + 0xf203 + 0xf4f5 + 0xf6f7 = 0x2ddf0 -> fold 0xddf2
        assert_eq!(internet_checksum(&data), !0xddf2);
    }

    #[test]
    fn zero_data_checksums_to_ffff() {
        assert_eq!(internet_checksum(&[0u8; 8]), 0xffff);
    }

    #[test]
    fn odd_length_padded() {
        assert_eq!(internet_checksum(&[0xff]), !0xff00u16);
    }

    #[test]
    fn verify_accepts_packet_with_embedded_checksum() {
        // Build a tiny "header" with a checksum field at bytes 2..4.
        let mut buf = [0x45u8, 0x00, 0x00, 0x00, 0x12, 0x34, 0x56, 0x78];
        let ck = internet_checksum(&buf);
        buf[2..4].copy_from_slice(&ck.to_be_bytes());
        assert!(verify(&buf));
        buf[4] ^= 0xff;
        assert!(!verify(&buf));
    }

    #[test]
    fn parts_equal_concatenated() {
        let a = [1u8, 2, 3, 4];
        let b = [5u8, 6, 7];
        let whole = [1u8, 2, 3, 4, 5, 6, 7];
        assert_eq!(
            internet_checksum_parts(&[&a, &b]),
            internet_checksum(&whole)
        );
    }

    #[test]
    fn empty_input() {
        assert_eq!(internet_checksum(&[]), 0xffff);
        assert_eq!(internet_checksum_parts(&[]), 0xffff);
    }

    #[test]
    fn partial_sum_finish_matches_whole_checksum() {
        let data = [0x08u8, 0x00, 0x00, 0x00, 0x56, 0x50, 0x4c, 0x54, 0x01];
        let fixed = partial_sum(&data[..4]);
        let varying = partial_sum(&data[4..]);
        assert_eq!(finish(fixed + varying), internet_checksum(&data));
        // Manually added BE words are interchangeable with slices.
        assert_eq!(
            finish(fixed + 0x5650 + 0x4c54 + 0x0100),
            internet_checksum(&data)
        );
    }
}
