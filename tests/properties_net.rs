//! Property-based coverage of the wire codec: every frame type
//! round-trips bit-identically, every strict truncation decodes to a
//! typed error (never a panic), and arbitrary byte soup is rejected
//! cleanly. The live-connection halves of the robustness story
//! (malformed/oversized/wrong-version frames answered with error frames
//! while the connection survives) live in `integration_net.rs`.

use ftgemm::core::Matrix;
use ftgemm::net::codec::{decode_frame, encode_frame, read_frame, take_frame, ReadEvent};
use ftgemm::net::proto::{CompletionFrame, CompletionOk, Frame, OperandRef, SubmitFrame};
use proptest::prelude::*;
use std::io::{BufReader, Cursor};

fn col_major(rows: u32, cols: u32, seed: u64) -> Vec<f64> {
    Matrix::<f64>::random(rows as usize, cols as usize, seed)
        .as_slice()
        .to_vec()
}

/// One instance of every frame variant, built from the drawn values —
/// round-tripping the full vocabulary each case.
fn all_frames(rows: u32, cols: u32, id: u64, code: u16, seed: u64, text: &str) -> Vec<Frame> {
    let inline = OperandRef::Inline {
        rows,
        cols,
        data: col_major(rows, cols, seed),
    };
    vec![
        Frame::Hello {
            version: (id & 0xFFFF) as u16,
            features: (seed & 0xFFFF_FFFF) as u32,
        },
        Frame::ServerHello {
            version: (id & 0xFFFF) as u16,
            features: (seed & 0xFFFF_FFFF) as u32,
            max_frame: 1 + (id as u32 & 0xFFFF),
        },
        Frame::UploadOperand {
            rows,
            cols,
            data: col_major(rows, cols, seed + 1),
        },
        Frame::OperandHandle {
            handle: id,
            resident_bytes: seed,
        },
        Frame::Submit(SubmitFrame {
            hold: false,
            policy: (id % 3) as u8,
            priority: (seed % 3) as u8,
            tenant: (seed & 0xFFFF) as u32,
            deadline_ns: id,
            alpha: (seed as f64) * 1e-3 - 500.0,
            beta: -0.5,
            a: inline.clone(),
            b: OperandRef::Handle(id),
            c: (seed % 2 == 0).then(|| (rows, cols, col_major(rows, cols, seed + 2))),
        }),
        Frame::SubmitAck { id },
        Frame::Completion(CompletionFrame {
            id,
            result: Ok(CompletionOk {
                rows,
                cols,
                data: col_major(rows, cols, seed + 3),
                verifications: seed,
                detected: seed / 2,
                corrected: seed / 3,
                injected: seed / 5,
                retried_panels: seed / 7,
            }),
        }),
        Frame::Completion(CompletionFrame {
            id,
            result: Err((code, text.to_string())),
        }),
        Frame::ReleaseHandle { handle: id },
        Frame::Released { handle: id },
        Frame::Shutdown,
        Frame::Goodbye,
        Frame::Error {
            id,
            code,
            message: text.to_string(),
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every frame type survives encode → decode bit-identically.
    /// (Special f64 bit patterns are pinned in `f64_travels_as_raw_bits`
    /// below, since NaN defeats `PartialEq`.)
    #[test]
    fn every_frame_round_trips(
        rows in 1u32..8, cols in 1u32..8,
        id in 0u64..u64::MAX, codeword in 0u32..u16::MAX as u32,
        seed in 0u64..1_000_000,
    ) {
        let text = format!("err-{seed}");
        for frame in all_frames(rows, cols, id, codeword as u16, seed, &text) {
            let bytes = encode_frame(&frame);
            // Frame layout: [len u32][verb][payload].
            let len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
            prop_assert_eq!(len, bytes.len() - 4);
            let got = decode_frame(bytes[4], &bytes[5..]);
            prop_assert_eq!(got.as_ref().ok(), Some(&frame));
            // And through the stream reader, which adds the length-prefix
            // handling on top of the payload codec.
            let mut cur = std::io::Cursor::new(&bytes);
            let (event, consumed) = read_frame(&mut cur, u32::MAX).unwrap();
            prop_assert_eq!(consumed, bytes.len() as u64);
            match event {
                ReadEvent::Frame(f) => prop_assert_eq!(f, frame),
                other => prop_assert!(false, "expected frame, got {:?}", other),
            }
        }
    }

    /// Every strict prefix of every frame's payload decodes to a typed
    /// error — truncation can never panic or be mistaken for a frame.
    #[test]
    fn every_truncation_is_a_typed_error(
        rows in 1u32..6, cols in 1u32..6,
        id in 0u64..u64::MAX, seed in 0u64..1_000_000,
    ) {
        for frame in all_frames(rows, cols, id, 7, seed, "boom") {
            let bytes = encode_frame(&frame);
            let payload = &bytes[5..];
            for cut in 0..payload.len() {
                prop_assert!(
                    decode_frame(bytes[4], &payload[..cut]).is_err(),
                    "strict prefix of {} bytes decoded as a frame", cut
                );
            }
        }
    }

    /// Appending garbage to a frame's payload is always rejected
    /// (Trailing), so a desynced stream cannot silently resync mid-frame.
    #[test]
    fn trailing_bytes_are_rejected(
        rows in 1u32..6, cols in 1u32..6,
        id in 0u64..u64::MAX, seed in 0u64..1_000_000,
    ) {
        for frame in all_frames(rows, cols, id, 7, seed, "boom") {
            let mut payload = encode_frame(&frame)[5..].to_vec();
            payload.push((seed & 0xFF) as u8);
            prop_assert!(decode_frame(frame.verb(), &payload).is_err());
        }
    }

    /// `take_frame` through a buffer gives the events `read_frame` gives
    /// on the same bytes, and consumes as many, frame for frame: every
    /// frame type back to back, then an oversize length, a zero length and
    /// an unknown verb. Small buffers leave frames straddling the buffer
    /// (the `read_frame_into` fallback); large ones hold them whole (decoded
    /// in place).
    #[test]
    fn buffered_taking_matches_the_stream_reader(
        rows in 1u32..8, cols in 1u32..8,
        id in 0u64..u64::MAX, seed in 0u64..1_000_000,
    ) {
        const MAX: u32 = 4096;
        let text = format!("err-{seed}");
        let mut wire = Vec::new();
        for frame in all_frames(rows, cols, id, 7, seed, &text) {
            wire.extend_from_slice(&encode_frame(&frame));
        }
        wire.extend_from_slice(&(MAX + 1).to_le_bytes());
        wire.extend_from_slice(&vec![0xAB; MAX as usize + 1]);
        wire.extend_from_slice(&0u32.to_le_bytes());
        wire.extend_from_slice(&1u32.to_le_bytes());
        wire.push(200);

        let mut cur = Cursor::new(&wire);
        let mut want = Vec::new();
        loop {
            let (event, n) = read_frame(&mut cur, MAX).unwrap();
            let eof = event == ReadEvent::Eof;
            want.push((event, n));
            if eof {
                break;
            }
        }
        prop_assert_eq!(want.len(), 17);
        for cap in [1, 3, 5, 64, 700, 4096, 1 << 16] {
            let mut r = BufReader::with_capacity(cap, Cursor::new(&wire));
            let mut body = Vec::new();
            for (i, w) in want.iter().enumerate() {
                let got = take_frame(&mut r, MAX, &mut body).unwrap();
                prop_assert_eq!(&got, w, "frame {} at capacity {}", i, cap);
            }
        }
    }

    /// Arbitrary byte soup under every verb decodes without panicking —
    /// the codec is total.
    #[test]
    fn random_bytes_never_panic(seed in 0u64..u64::MAX, len in 0usize..512) {
        let mut x = seed | 1;
        let mut bytes = Vec::with_capacity(len);
        for _ in 0..len {
            // xorshift64 byte stream.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            bytes.push((x & 0xFF) as u8);
        }
        for verb in 0u8..=255 {
            let _ = decode_frame(verb, &bytes);
        }
    }
}

/// f64 payloads travel as raw bits, so NaN patterns, -0.0, and the
/// infinities round-trip exactly (PartialEq would hide this, so compare
/// bit patterns directly).
#[test]
fn f64_travels_as_raw_bits() {
    let specials = [
        f64::NAN,
        f64::from_bits(0x7FF8_0000_DEAD_BEEF), // payload-carrying NaN
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE / 2.0, // subnormal
    ];
    let frame = Frame::UploadOperand {
        rows: specials.len() as u32,
        cols: 1,
        data: specials.to_vec(),
    };
    let bytes = encode_frame(&frame);
    match decode_frame(bytes[4], &bytes[5..]).unwrap() {
        Frame::UploadOperand { data, .. } => {
            for (got, want) in data.iter().zip(specials.iter()) {
                assert_eq!(got.to_bits(), want.to_bits());
            }
        }
        other => panic!("wrong frame type: {other:?}"),
    }
}
