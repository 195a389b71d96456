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

proptest! {
    #[test]
    fn value_encoding_roundtrips(v in arb_value()) {
        let enc = v.encode();
        prop_assert_eq!(enc.len(), v.wire_len());
        let dec = Value::decode(enc).unwrap();
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
            let r = Value::decode(enc.slice(..n));
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
