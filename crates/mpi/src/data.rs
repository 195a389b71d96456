//! Rank-local data: named values and their wire encoding.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use dvc_sim_core::FastMap;

/// A value a rank can hold and ship.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    F64(f64),
    U64(u64),
    F64Vec(Vec<f64>),
    U64Vec(Vec<u64>),
    Bytes(Vec<u8>),
}

impl Value {
    /// Payload size on the wire (excluding framing), bytes.
    pub fn wire_len(&self) -> usize {
        1 + match self {
            Value::F64(_) | Value::U64(_) => 8,
            Value::F64Vec(v) => 8 + v.len() * 8,
            Value::U64Vec(v) => 8 + v.len() * 8,
            Value::Bytes(b) => 8 + b.len(),
        }
    }

    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(self.wire_len());
        self.encode_into(&mut b);
        b.freeze()
    }

    /// Append the wire encoding ([`Value::wire_len`] bytes) to `b`, e.g.
    /// straight after a frame header.
    pub fn encode_into(&self, b: &mut BytesMut) {
        match self {
            Value::F64(x) => {
                b.put_u8(0);
                b.put_f64_le(*x);
            }
            Value::U64(x) => {
                b.put_u8(1);
                b.put_u64_le(*x);
            }
            Value::F64Vec(v) => {
                b.put_u8(2);
                b.put_u64_le(v.len() as u64);
                for x in v {
                    b.put_f64_le(*x);
                }
            }
            Value::U64Vec(v) => {
                b.put_u8(3);
                b.put_u64_le(v.len() as u64);
                for x in v {
                    b.put_u64_le(*x);
                }
            }
            Value::Bytes(v) => {
                b.put_u8(4);
                b.put_u64_le(v.len() as u64);
                b.put_slice(v);
            }
        }
    }

    pub fn decode(mut buf: Bytes) -> Result<Value, String> {
        if buf.is_empty() {
            return Err("empty value".into());
        }
        let tag = buf.get_u8();
        let need = |b: &Bytes, n: usize| -> Result<(), String> {
            if b.len() < n {
                Err(format!("short value: need {n}, have {}", b.len()))
            } else {
                Ok(())
            }
        };
        match tag {
            0 => {
                need(&buf, 8)?;
                Ok(Value::F64(buf.get_f64_le()))
            }
            1 => {
                need(&buf, 8)?;
                Ok(Value::U64(buf.get_u64_le()))
            }
            2 => {
                need(&buf, 8)?;
                let n = buf.get_u64_le() as usize;
                need(&buf, n * 8)?;
                Ok(Value::F64Vec((0..n).map(|_| buf.get_f64_le()).collect()))
            }
            3 => {
                need(&buf, 8)?;
                let n = buf.get_u64_le() as usize;
                need(&buf, n * 8)?;
                Ok(Value::U64Vec((0..n).map(|_| buf.get_u64_le()).collect()))
            }
            4 => {
                need(&buf, 8)?;
                let n = buf.get_u64_le() as usize;
                need(&buf, n)?;
                Ok(Value::Bytes(buf.slice(..n).to_vec()))
            }
            t => Err(format!("unknown value tag {t}")),
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F64(x) => Some(*x),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(x) => Some(*x),
            _ => None,
        }
    }

    pub fn as_f64_vec(&self) -> Option<&Vec<f64>> {
        match self {
            Value::F64Vec(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_u64_vec(&self) -> Option<&Vec<u64>> {
        match self {
            Value::U64Vec(v) => Some(v),
            _ => None,
        }
    }
}

/// A rank's named-value store. All application state lives here so that
/// programs stay `Clone` (snapshots) while still being expressed with plain
/// `fn` pointers.
#[derive(Clone, Debug, Default)]
pub struct RankData {
    map: FastMap<String, Value>,
}

impl RankData {
    pub fn new() -> Self {
        RankData::default()
    }

    pub fn set(&mut self, key: impl Into<String>, v: Value) {
        self.map.insert(key.into(), v);
    }

    pub fn get(&self, key: &str) -> Option<&Value> {
        self.map.get(key)
    }

    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        self.map.get_mut(key)
    }

    pub fn take(&mut self, key: &str) -> Option<Value> {
        self.map.remove(key)
    }

    pub fn f64(&self, key: &str) -> f64 {
        self.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN)
    }

    pub fn u64(&self, key: &str) -> u64 {
        self.get(key).and_then(Value::as_u64).unwrap_or(0)
    }

    pub fn vec_f64(&self, key: &str) -> &Vec<f64> {
        self.get(key)
            .and_then(Value::as_f64_vec)
            .unwrap_or_else(|| panic!("no f64 vec at '{key}'"))
    }

    pub fn vec_f64_mut(&mut self, key: &str) -> &mut Vec<f64> {
        match self.get_mut(key) {
            Some(Value::F64Vec(v)) => v,
            _ => panic!("no f64 vec at '{key}'"),
        }
    }

    pub fn contains(&self, key: &str) -> bool {
        self.map.contains_key(key)
    }

    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.map.keys().map(String::as_str)
    }

    /// Total wire size of all values (used by app-level checkpoint sizing).
    pub fn total_wire_len(&self) -> u64 {
        self.map.values().map(|v| v.wire_len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_variants() {
        let vals = vec![
            Value::F64(3.5),
            Value::U64(42),
            Value::F64Vec(vec![1.0, -2.0, 3.25]),
            Value::U64Vec(vec![7, 8]),
            Value::Bytes(vec![1, 2, 3, 4, 5]),
        ];
        for v in vals {
            let enc = v.encode();
            assert_eq!(enc.len(), v.wire_len());
            let dec = Value::decode(enc).unwrap();
            assert_eq!(dec, v);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Value::decode(Bytes::new()).is_err());
        assert!(Value::decode(Bytes::from_static(&[9, 0, 0])).is_err());
        assert!(Value::decode(Bytes::from_static(&[2, 255, 0, 0, 0, 0, 0, 0, 0])).is_err());
    }

    #[test]
    fn rankdata_accessors() {
        let mut d = RankData::new();
        d.set("x", Value::F64(1.5));
        d.set("v", Value::F64Vec(vec![1.0, 2.0]));
        assert_eq!(d.f64("x"), 1.5);
        assert!(d.f64("missing").is_nan());
        d.vec_f64_mut("v").push(3.0);
        assert_eq!(d.vec_f64("v").len(), 3);
        assert!(d.contains("x"));
        let taken = d.take("x").unwrap();
        assert_eq!(taken, Value::F64(1.5));
        assert!(!d.contains("x"));
    }

    #[test]
    fn total_wire_len_sums() {
        let mut d = RankData::new();
        d.set("a", Value::U64(1)); // 9
        d.set("b", Value::Bytes(vec![0; 10])); // 19
        assert_eq!(d.total_wire_len(), 28);
    }
}
