//! Property-based codec coverage: every message survives the wire
//! bit-for-bit, malformed bytes error instead of panicking, and the body
//! layouts agree with `dgs-sparsify`'s own encoders byte-for-byte.

use dgs_core::protocol::{DownMsg, UpMsg, UpPayload};
use dgs_net::codec::{
    decode_down, decode_up, down_msg_type, encode_down_frame, encode_down_frame_into,
    encode_down_payload, encode_up_frame, encode_up_frame_into, encode_up_payload, up_msg_type,
};
use dgs_net::frame::read_frame;
use dgs_net::{HEADER_LEN, MAGIC};
use dgs_sparsify::{SparseUpdate, SparseVec, TernaryUpdate, TernaryVec};
use dgs_tensor::rng::{cases, vec_of, Rng};
use std::io::Cursor;
use std::sync::Arc;

const MAX_PAYLOAD: usize = 16 << 20;

// --- generators -----------------------------------------------------------

fn arb_u32(rng: &mut Rng) -> u32 {
    rng.next_u64() as u32
}

/// Any bit pattern two times in three, else one of the values a codec is
/// most likely to mangle.
fn arb_f32(rng: &mut Rng) -> f32 {
    match rng.below(12) {
        0 => f32::NAN,
        1 => f32::INFINITY,
        2 => f32::NEG_INFINITY,
        3 => -0.0,
        _ => f32::from_bits(arb_u32(rng)),
    }
}

fn arb_f64(rng: &mut Rng) -> f64 {
    f64::from_bits(rng.next_u64())
}

fn arb_sparse_vec(rng: &mut Rng) -> SparseVec {
    let idx = vec_of(rng, 0..24, arb_u32);
    let val = idx.iter().map(|_| arb_f32(rng)).collect();
    SparseVec { idx, val }
}

fn arb_sparse_update(rng: &mut Rng) -> SparseUpdate {
    SparseUpdate { chunks: vec_of(rng, 0..4, arb_sparse_vec) }
}

fn arb_ternary_vec(rng: &mut Rng) -> TernaryVec {
    let scale = arb_f32(rng);
    let idx = vec_of(rng, 0..24, arb_u32);
    let signs = vec![0b1010_1010u8; idx.len().div_ceil(8)];
    TernaryVec { scale, idx, signs }
}

fn arb_ternary_update(rng: &mut Rng) -> TernaryUpdate {
    TernaryUpdate { chunks: vec_of(rng, 0..4, arb_ternary_vec) }
}

fn arb_up(rng: &mut Rng) -> UpMsg {
    let payload = match rng.below(3) {
        0 => UpPayload::Dense(vec_of(rng, 0..64, arb_f32)),
        1 => UpPayload::Sparse(arb_sparse_update(rng)),
        _ => UpPayload::TernarySparse(arb_ternary_update(rng)),
    };
    UpMsg { payload, train_loss: arb_f64(rng) }
}

fn arb_down(rng: &mut Rng) -> DownMsg {
    match rng.below(2) {
        0 => DownMsg::DenseModel(Arc::new(vec_of(rng, 0..64, arb_f32))),
        _ => DownMsg::SparseDiff(arb_sparse_update(rng)),
    }
}

// --- bitwise equality (NaN-safe) ------------------------------------------

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_sparse_eq(a: &SparseUpdate, b: &SparseUpdate) {
    assert_eq!(a.chunks.len(), b.chunks.len());
    for (ca, cb) in a.chunks.iter().zip(&b.chunks) {
        assert_eq!(ca.idx, cb.idx);
        assert_eq!(bits(&ca.val), bits(&cb.val));
    }
}

fn assert_up_eq(a: &UpMsg, b: &UpMsg) {
    assert_eq!(a.train_loss.to_bits(), b.train_loss.to_bits());
    match (&a.payload, &b.payload) {
        (UpPayload::Dense(x), UpPayload::Dense(y)) => assert_eq!(bits(x), bits(y)),
        (UpPayload::Sparse(x), UpPayload::Sparse(y)) => assert_sparse_eq(x, y),
        (UpPayload::TernarySparse(x), UpPayload::TernarySparse(y)) => {
            assert_eq!(x.chunks.len(), y.chunks.len());
            for (ca, cb) in x.chunks.iter().zip(&y.chunks) {
                assert_eq!(ca.scale.to_bits(), cb.scale.to_bits());
                assert_eq!(ca.idx, cb.idx);
                assert_eq!(ca.signs, cb.signs);
            }
        }
        _ => panic!("payload variant changed across the wire"),
    }
}

// --- properties -----------------------------------------------------------

#[test]
fn up_roundtrips_bitwise() {
    cases(256, |rng| {
        let up = arb_up(rng);
        let (worker, seq) = (rng.next_u64() as u16, arb_u32(rng));
        let payload = encode_up_payload(&up).unwrap();
        let back = decode_up(up_msg_type(&up.payload), &payload).unwrap();
        assert_up_eq(&up, &back);

        // Full frame: exact wire_bytes, and readable back off a stream.
        let frame = encode_up_frame(worker, seq, &up).unwrap();
        assert_eq!(frame.len(), up.wire_bytes());
        let (header, body) = read_frame(&mut Cursor::new(&frame), MAX_PAYLOAD).unwrap();
        assert_eq!(header.worker, worker);
        assert_eq!(header.seq, seq);
        assert_up_eq(&up, &decode_up(header.msg_type, &body).unwrap());
        assert_eq!(&body, &payload);

        // Encoded in place into a dirty, longer buffer (a connection's
        // reused frame buffer): the very same bytes.
        let mut dirty = vec![0x5A; frame.len() + 97];
        encode_up_frame_into(&mut dirty, worker, seq, &up).unwrap();
        assert_eq!(&dirty, &frame);
    });
}

#[test]
fn down_roundtrips_bitwise() {
    cases(256, |rng| {
        let down = arb_down(rng);
        let (worker, seq) = (rng.next_u64() as u16, arb_u32(rng));
        let payload = encode_down_payload(&down).unwrap();
        let back = decode_down(down_msg_type(&down), &payload).unwrap();
        match (&down, &back) {
            (DownMsg::DenseModel(x), DownMsg::DenseModel(y)) => {
                assert_eq!(bits(x), bits(y))
            }
            (DownMsg::SparseDiff(x), DownMsg::SparseDiff(y)) => assert_sparse_eq(x, y),
            _ => panic!("variant changed across the wire"),
        }
        let frame = encode_down_frame(worker, seq, &down).unwrap();
        assert_eq!(frame.len(), down.wire_bytes());
        let (header, body) = read_frame(&mut Cursor::new(&frame), MAX_PAYLOAD).unwrap();
        assert_eq!((header.worker, header.seq), (worker, seq));
        assert_eq!(header.msg_type, down_msg_type(&down));
        assert_eq!(&body, &payload);
        let mut dirty = vec![0x5A; frame.len() + 97];
        encode_down_frame_into(&mut dirty, worker, seq, &down).unwrap();
        assert_eq!(&dirty, &frame);
    });
}

/// Body layouts are identical to dgs-sparsify's own `encode()` — the
/// traffic accounting and the codec describe the same bytes.
#[test]
fn sparse_body_matches_sparsify_encoder() {
    cases(256, |rng| {
        let (s, loss) = (arb_sparse_update(rng), arb_f64(rng));
        let up = UpMsg { payload: UpPayload::Sparse(s.clone()), train_loss: loss };
        let payload = encode_up_payload(&up).unwrap();
        assert_eq!(&payload[8..], &SparseUpdate::encode(&s)[..]);
        let down = DownMsg::SparseDiff(s);
        assert_eq!(
            &encode_down_payload(&down).unwrap()[..],
            &match &down {
                DownMsg::SparseDiff(s) => SparseUpdate::encode(s),
                _ => unreachable!(),
            }[..]
        );
    });
}

#[test]
fn ternary_body_matches_sparsify_encoder() {
    cases(256, |rng| {
        let (t, loss) = (arb_ternary_update(rng), arb_f64(rng));
        let up = UpMsg { payload: UpPayload::TernarySparse(t.clone()), train_loss: loss };
        assert_eq!(&encode_up_payload(&up).unwrap()[8..], &TernaryUpdate::encode(&t)[..]);
    });
}

/// Any corruption of the length/CRC fields or the payload body of a
/// valid frame must produce a decode error — never a panic, never a
/// silently wrong message.
#[test]
fn corrupted_frames_error_not_panic() {
    cases(256, |rng| {
        let up = arb_up(rng);
        let flip = rng.range(1..256) as u8;
        let mut frame = encode_up_frame(3, 9, &up).unwrap();
        // Corrupt magic/version or anything CRC-protected. Worker id, seq,
        // and msg type are CRC-free header metadata: flipping them yields a
        // *different valid frame* by design, so they are out of scope here.
        let corruptible: Vec<usize> = (0..5).chain(12..frame.len()).collect();
        let pos = corruptible[rng.below(corruptible.len())];
        frame[pos] ^= flip;
        let result = read_frame(&mut Cursor::new(&frame), MAX_PAYLOAD)
            .and_then(|(h, body)| decode_up(h.msg_type, &body));
        assert!(result.is_err(), "corrupt byte {pos} accepted");
    });
}

/// Every strict prefix of a valid frame errors cleanly.
#[test]
fn truncated_frames_error_not_panic() {
    cases(256, |rng| {
        let up = arb_up(rng);
        let frame = encode_up_frame(1, 1, &up).unwrap();
        let len = rng.below(frame.len());
        assert!(read_frame(&mut Cursor::new(&frame[..len]), MAX_PAYLOAD).is_err());
    });
}

// --- golden fixture --------------------------------------------------------

/// A hand-assembled frame: pinned bytes that any future codec change must
/// keep decoding (wire compatibility fixture).
#[test]
fn golden_frame_fixture_decodes() {
    let mut frame = Vec::new();
    frame.extend_from_slice(&MAGIC); // magic "DGS1"
    frame.push(1); // version
    frame.push(0x01); // UpDense
    frame.extend_from_slice(&7u16.to_le_bytes()); // worker
    frame.extend_from_slice(&42u32.to_le_bytes()); // seq
    let mut payload = Vec::new();
    payload.extend_from_slice(&1.5f64.to_le_bytes()); // train loss
    payload.extend_from_slice(&2.0f32.to_le_bytes());
    payload.extend_from_slice(&(-3.25f32).to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&dgs_net::crc::crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    assert_eq!(frame.len(), HEADER_LEN + 16);

    let (header, body) = read_frame(&mut Cursor::new(&frame), MAX_PAYLOAD).unwrap();
    assert_eq!(header.worker, 7);
    assert_eq!(header.seq, 42);
    let up = decode_up(header.msg_type, &body).unwrap();
    assert_eq!(up.train_loss, 1.5);
    match up.payload {
        UpPayload::Dense(v) => assert_eq!(v, vec![2.0, -3.25]),
        other => panic!("wrong payload variant: {other:?}"),
    }
}
