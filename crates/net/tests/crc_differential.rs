//! Differential coverage for the CRC32 kernels: on arbitrary byte
//! strings, chunkings, and alignments the slicing-by-8 kernel and the
//! `PCLMULQDQ` folding backend must agree exactly with the byte-at-a-time
//! oracle kept in `crc.rs`. Lane-table and folding-constant bugs are
//! insidious — they corrupt only certain lengths or 8-byte phases — which
//! is exactly the space the seeded cases explore here.

use dgs_net::crc::{
    crc32, crc32_finish, crc32_update, crc32_update_bytewise, crc32_update_with, Kernel, CRC_INIT,
};
use dgs_tensor::rng::{cases, vec_of, Rng};

fn byte(rng: &mut Rng) -> u8 {
    rng.next_u64() as u8
}

fn oracle(data: &[u8]) -> u32 {
    crc32_finish(crc32_update_bytewise(CRC_INIT, data))
}

#[test]
fn sliced_equals_bytewise() {
    cases(256, |rng| {
        let data = vec_of(rng, 0..4096, byte);
        assert_eq!(crc32(&data), oracle(&data));
    });
}

/// Splitting the stream at an arbitrary point — so the sliced kernel
/// restarts mid-buffer at every possible 8-byte phase — must not
/// change the digest.
#[test]
fn streaming_split_equals_oneshot() {
    cases(256, |rng| {
        let data = vec_of(rng, 1..2048, byte);
        let cut = rng.below(data.len() + 1);
        let state = crc32_update(CRC_INIT, &data[..cut]);
        assert_eq!(crc32_finish(crc32_update(state, &data[cut..])), oracle(&data));
    });
}

/// The two kernels share one state convention: handing a running state
/// from one to the other mid-stream is lossless in both directions.
#[test]
fn kernels_interchange_mid_stream() {
    cases(256, |rng| {
        let a = vec_of(rng, 0..512, byte);
        let b = vec_of(rng, 0..512, byte);
        let mixed_ab = crc32_update_bytewise(crc32_update(CRC_INIT, &a), &b);
        let mixed_ba = crc32_update(crc32_update_bytewise(CRC_INIT, &a), &b);
        let mut whole = a.clone();
        whole.extend_from_slice(&b);
        assert_eq!(crc32_finish(mixed_ab), oracle(&whole));
        assert_eq!(crc32_finish(mixed_ba), oracle(&whole));
    });
}

/// The explicitly pinned backends agree with the oracle (and therefore
/// with each other) on arbitrary buffers and split points — the
/// PCLMULQDQ folding path restarts mid-stream at every phase.
#[test]
fn pinned_backends_equal_bytewise() {
    cases(256, |rng| {
        let data = vec_of(rng, 0..4096, byte);
        let cut = rng.below(data.len() + 1);
        for kernel in [Kernel::Scalar, Kernel::Simd] {
            assert_eq!(crc32_finish(crc32_update_with(kernel, CRC_INIT, &data)), oracle(&data));
            let state = crc32_update_with(kernel, CRC_INIT, &data[..cut]);
            assert_eq!(crc32_finish(crc32_update_with(kernel, state, &data[cut..])), oracle(&data));
        }
    });
}
