//! Property tests for the wire codec.
//!
//! Totality and agreement properties, over the vendored deterministic
//! [`proptest`] shim:
//!
//! * **round trip** — every frame the generator can produce decodes
//!   back to itself from its own encoding, with nothing left over;
//! * **no panic, no hang** — `Frame::read_from` over *arbitrary* byte
//!   strings (random garbage, and valid encodings mutated or
//!   truncated at a random point) always returns `Ok` or a
//!   [`WireError`], never panics, and always terminates: reads are
//!   bounded by the declared length, which is itself capped;
//! * **borrowed = owned** — the encoders the server writes replies
//!   with, straight from borrowed rows, produce exactly the bytes of
//!   [`Frame::encode`] on the owned frame, also when appended behind
//!   other frames in one buffer.

use proptest::prelude::*;
use uniq_server::wire::{encode_row_batch, encode_row_header, encode_view_delta};
use uniq_server::{Frame, WireError};
use uniq_types::Value;

/// SplitMix64 — a tiny deterministic generator for structured inputs.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn string(&mut self) -> String {
        let len = self.below(24);
        (0..len)
            .map(|_| {
                // Mixed ASCII and multibyte, so UTF-8 handling is hit.
                ['a', 'Z', '0', ' ', ';', '→', 'é', '\''][self.below(8)]
            })
            .collect()
    }

    fn value(&mut self) -> Value {
        match self.below(4) {
            0 => Value::Null,
            1 => Value::Int(self.next() as i64),
            2 => Value::Str(self.string()),
            _ => Value::Bool(self.next().is_multiple_of(2)),
        }
    }

    fn rows(&mut self) -> Vec<Vec<Value>> {
        let arity = self.below(5);
        (0..self.below(8))
            .map(|_| (0..arity).map(|_| self.value()).collect())
            .collect()
    }

    fn frame(&mut self) -> Frame {
        match self.below(15) {
            0 => Frame::Query { sql: self.string() },
            1 => Frame::Explain { sql: self.string() },
            2 => Frame::Exec { sql: self.string() },
            3 => Frame::Analyze,
            4 => Frame::Stats,
            5 => Frame::RowHeader {
                columns: (0..self.below(6)).map(|_| self.string()).collect(),
                cache_hit: self.next().is_multiple_of(2),
            },
            6 => Frame::RowBatch {
                rows: self.rows(),
                last: self.next().is_multiple_of(2),
            },
            7 => Frame::Explained {
                text: self.string(),
            },
            8 => Frame::Ack {
                message: self.string(),
            },
            9 => Frame::StatsReply {
                entries: (0..self.below(6))
                    .map(|_| (self.string(), self.next() as i64))
                    .collect(),
            },
            10 => Frame::Subscribe { sql: self.string() },
            11 => Frame::Unsubscribe { id: self.next() },
            12 => Frame::Subscribed {
                id: self.next(),
                columns: (0..self.below(6)).map(|_| self.string()).collect(),
                mode: self.string(),
                proof: self.string(),
            },
            13 => Frame::ViewDelta {
                id: self.next(),
                inserted: self.rows(),
                deleted: self.rows(),
            },
            _ => Frame::Error {
                message: self.string(),
            },
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// decode(encode(f)) == f, consuming the whole encoding.
    #[test]
    fn random_frames_roundtrip(seed in 0u64..1u64 << 48) {
        let frame = Mix(seed).frame();
        let bytes = frame.encode();
        let mut r = &bytes[..];
        let back = Frame::read_from(&mut r).expect("own encoding decodes");
        prop_assert_eq!(back, frame);
        prop_assert!(r.is_empty(), "no bytes left behind");
    }

    /// The borrowed encoders append byte-identical copies of the owned
    /// frames' encodings to whatever the buffer already holds.
    #[test]
    fn borrowed_encoders_match_owned_frames(seed in 0u64..1u64 << 48) {
        let mut mix = Mix(seed);
        let rows = mix.rows();
        let deleted = mix.rows();
        let columns: Vec<String> = (0..mix.below(6)).map(|_| mix.string()).collect();
        let (id, last, cache_hit) = (mix.next(), mix.next().is_multiple_of(2), mix.next().is_multiple_of(2));
        let owned = [
            Frame::RowHeader { columns: columns.clone(), cache_hit },
            Frame::RowBatch { rows: rows.clone(), last },
            Frame::ViewDelta { id, inserted: rows.clone(), deleted: deleted.clone() },
        ];
        // Start from a frame already in the buffer, as in a reply.
        let mut borrowed = mix.frame().encode();
        let mut expected = borrowed.clone();
        encode_row_header(&mut borrowed, &columns, cache_hit);
        encode_row_batch(&mut borrowed, &rows, last);
        encode_view_delta(&mut borrowed, id, &rows, &deleted);
        for frame in &owned {
            expected.extend_from_slice(&frame.encode());
        }
        prop_assert_eq!(&borrowed, &expected);
        // And the buffer decodes back, frame by frame.
        let mut r = &borrowed[..];
        Frame::read_from(&mut r).expect("leading frame decodes");
        for frame in owned {
            prop_assert_eq!(Frame::read_from(&mut r).expect("appended frame decodes"), frame);
        }
        prop_assert!(r.is_empty(), "no bytes left behind");
    }

    /// Arbitrary garbage never panics or hangs the reader.
    #[test]
    fn random_garbage_is_rejected_gracefully(seed in 0u64..1u64 << 48) {
        let mut mix = Mix(seed);
        let len = mix.below(64);
        let bytes: Vec<u8> = (0..len).map(|_| mix.next() as u8).collect();
        let mut r = &bytes[..];
        // Either it happens to parse, or it errors — it must return.
        let _ = Frame::read_from(&mut r);
    }

    /// A valid encoding with one byte flipped, or truncated anywhere,
    /// decodes to *something* or errors cleanly — never a panic.
    #[test]
    fn mutated_valid_frames_never_panic(seed in 0u64..1u64 << 48) {
        let mut mix = Mix(seed);
        let mut bytes = mix.frame().encode();
        if mix.next().is_multiple_of(2) {
            let at = mix.below(bytes.len());
            bytes[at] ^= 1 << mix.below(8);
        } else {
            bytes.truncate(mix.below(bytes.len() + 1));
        }
        let mut r = &bytes[..];
        match Frame::read_from(&mut r) {
            Ok(_) => {}
            Err(WireError::Io(_)) | Err(WireError::Protocol(_)) => {}
        }
    }
}
