//! Property tests: the wire encoding of rank values is lossless for
//! arbitrary contents, and collective op sequences always pair up.

use dvc_mpi::collectives;
use dvc_mpi::data::Value;
use dvc_mpi::ops::Op;
use dvc_sim_core::FastMap;
use proptest::prelude::*;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<f64>()
            .prop_filter("no NaN (NaN != NaN)", |x| !x.is_nan())
            .prop_map(Value::F64),
        any::<u64>().prop_map(Value::U64),
        prop::collection::vec(any::<f64>().prop_filter("no NaN", |x| !x.is_nan()), 0..300)
            .prop_map(Value::F64Vec),
        prop::collection::vec(any::<u64>(), 0..300).prop_map(Value::U64Vec),
        prop::collection::vec(any::<u8>(), 0..1000).prop_map(Value::Bytes),
    ]
}

/// Any f64 bit pattern, with NaNs (random payload and sign), infinities
/// and both zeros drawn often.
fn arb_f64_bits() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<u64>().prop_map(f64::from_bits),
        any::<u64>().prop_map(|b| f64::from_bits(b | 0x7ff0_0000_0000_0001)),
        prop_oneof![
            Just(-0.0),
            Just(0.0),
            Just(f64::NAN),
            Just(-f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
        ],
    ]
}

/// The per-element reference encoding of a vector value.
fn reference_encoding(tag: u8, words: &[u64]) -> Vec<u8> {
    let mut b = vec![tag];
    b.extend_from_slice(&(words.len() as u64).to_le_bytes());
    for w in words {
        b.extend_from_slice(&w.to_le_bytes());
    }
    b
}

proptest! {
    /// Vectors go on the wire bit for bit: NaN payloads, signs and
    /// `-0.0` included, and come back with the same bits.
    #[test]
    fn vector_encoding_is_bit_exact(
        floats in prop::collection::vec(arb_f64_bits(), 0..300),
        ints in prop::collection::vec(any::<u64>(), 0..300),
    ) {
        let bits: Vec<u64> = floats.iter().map(|x| x.to_bits()).collect();
        let fv = Value::F64Vec(floats);
        prop_assert_eq!(&fv.encode()[..], &reference_encoding(2, &bits)[..]);
        match Value::decode(&fv.encode()) {
            Ok(Value::F64Vec(back)) => {
                let back: Vec<u64> = back.iter().map(|x| x.to_bits()).collect();
                prop_assert_eq!(back, bits);
            }
            other => prop_assert!(false, "decoded {other:?}"),
        }
        let uv = Value::U64Vec(ints.clone());
        prop_assert_eq!(&uv.encode()[..], &reference_encoding(3, &ints)[..]);
        prop_assert_eq!(Value::decode(&uv.encode()), Ok(uv));
    }

    #[test]
    fn value_encoding_roundtrips(v in arb_value()) {
        let enc = v.encode();
        prop_assert_eq!(enc.len(), v.wire_len());
        let dec = Value::decode(&enc).unwrap();
        prop_assert_eq!(dec, v);
    }

    /// Truncating an encoded value anywhere must be a decode error, never a
    /// silently wrong value (frame boundaries protect us, but defence in
    /// depth for the reassembly path).
    #[test]
    fn truncated_values_fail_loudly(v in arb_value(), cut in any::<prop::sample::Index>()) {
        let enc = v.encode();
        if enc.len() > 1 {
            let n = cut.index(enc.len() - 1); // 0..len-1: always a strict prefix
            let r = Value::decode(&enc[..n]);
            // Either an error, or — for vector types — impossible.
            prop_assert!(r.is_err(), "decoded a truncated value: {r:?}");
        }
    }

    /// Every collective, at every size and root, produces exactly matched
    /// send/recv pairs across the rank set (no orphan receives, no lost
    /// sends — the static guarantee behind deadlock-freedom).
    #[test]
    fn collectives_pair_exactly(
        size in 1usize..20,
        root_pick in any::<prop::sample::Index>(),
        which in 0usize..4,
    ) {
        let root = root_pick.index(size);
        let all: Vec<Vec<Op>> = (0..size)
            .map(|r| match which {
                0 => collectives::barrier(r, size, 10),
                1 => collectives::bcast(root, r, size, 10, "x"),
                2 => collectives::gather(root, r, size, 10, "x"),
                _ => collectives::alltoall(r, size, 10, "x"),
            })
            .collect();
        let mut sends = FastMap::default();
        let mut recvs = FastMap::default();
        for (rank, ops) in all.iter().enumerate() {
            for op in ops {
                match op {
                    Op::Send { to, tag, .. } => {
                        prop_assert!(*to < size, "send outside the communicator");
                        *sends.entry((rank, *to, *tag)).or_insert(0u32) += 1;
                    }
                    Op::Recv { from, tag, .. } => {
                        prop_assert!(*from < size);
                        *recvs.entry((*from, rank, *tag)).or_insert(0u32) += 1;
                    }
                    _ => {}
                }
            }
        }
        prop_assert_eq!(sends, recvs);
    }
}
