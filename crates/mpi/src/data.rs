//! Rank-local data: named values and their wire encoding.

use bytes::{BufMut, Bytes, BytesMut};
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
    /// straight after a frame header. Vectors are written in one pass.
    pub(crate) fn encode_into(&self, b: &mut BytesMut) {
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
                put_words(b, v.iter().map(|x| x.to_le_bytes()));
            }
            Value::U64Vec(v) => {
                b.put_u8(3);
                put_words(b, v.iter().map(|x| x.to_le_bytes()));
            }
            Value::Bytes(v) => {
                b.put_u8(4);
                b.put_u64_le(v.len() as u64);
                b.put_slice(v);
            }
        }
    }

    /// Decode one value from the front of `buf` (trailing bytes are
    /// ignored). Truncated input, an unknown tag or a length that cannot
    /// fit in memory is an error, never a short value.
    pub fn decode(buf: &[u8]) -> Result<Value, String> {
        let (&tag, mut buf) = buf.split_first().ok_or("empty value")?;
        match tag {
            0 => Ok(Value::F64(f64::from_le_bytes(take_word(&mut buf)?))),
            1 => Ok(Value::U64(u64::from_le_bytes(take_word(&mut buf)?))),
            2 => Ok(Value::F64Vec(
                take_words(&mut buf)?.map(f64::from_le_bytes).collect(),
            )),
            3 => Ok(Value::U64Vec(
                take_words(&mut buf)?.map(u64::from_le_bytes).collect(),
            )),
            4 => {
                let n = byte_len(u64::from_le_bytes(take_word(&mut buf)?), 1)?;
                Ok(Value::Bytes(take(&mut buf, n)?.to_vec()))
            }
            t => Err(format!("unknown value tag {t}")),
        }
    }

    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F64(x) => Some(*x),
            _ => None,
        }
    }

    pub(crate) fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(x) => Some(*x),
            _ => None,
        }
    }

    pub(crate) fn as_f64_vec(&self) -> Option<&Vec<f64>> {
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

/// Append a length prefix and `words` as 8-byte little-endian words: one
/// resize, then each word copied into its slot.
fn put_words(b: &mut BytesMut, words: impl ExactSizeIterator<Item = [u8; 8]>) {
    b.put_u64_le(words.len() as u64);
    let start = b.len();
    b.resize(start + words.len() * 8, 0);
    for (slot, w) in b[start..].chunks_exact_mut(8).zip(words) {
        slot.copy_from_slice(&w);
    }
}

/// Split `n` bytes off the front of `buf`.
fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], String> {
    if buf.len() < n {
        return Err(format!("short value: need {n}, have {}", buf.len()));
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Ok(head)
}

fn take_word(buf: &mut &[u8]) -> Result<[u8; 8], String> {
    Ok(take(buf, 8)?.try_into().expect("take returns 8 bytes"))
}

/// A length prefix and the 8-byte words it counts, off the front of `buf`.
fn take_words<'a>(buf: &mut &'a [u8]) -> Result<impl Iterator<Item = [u8; 8]> + 'a, String> {
    let n = byte_len(u64::from_le_bytes(take_word(buf)?), 8)?;
    Ok(take(buf, n)?
        .chunks_exact(8)
        .map(|w| w.try_into().expect("chunks are 8 bytes")))
}

/// Bytes taken by `n` elements of `size` bytes; an error when that
/// overflows the address space (a corrupt or hostile length prefix).
fn byte_len(n: u64, size: usize) -> Result<usize, String> {
    usize::try_from(n)
        .ok()
        .and_then(|n| n.checked_mul(size))
        .ok_or_else(|| format!("value length {n} overflows"))
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
            let dec = Value::decode(&enc).unwrap();
            assert_eq!(dec, v);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Value::decode(&[]).is_err());
        assert!(Value::decode(&[9, 0, 0]).is_err());
        assert!(Value::decode(&[2, 255, 0, 0, 0, 0, 0, 0, 0]).is_err());
        // A count whose byte length overflows usize is an error, not a
        // panic and not a silently empty vector.
        for tag in [2, 3] {
            let mut b = vec![tag];
            b.extend_from_slice(&(1u64 << 61).to_le_bytes());
            let err = Value::decode(&b).unwrap_err();
            assert!(err.contains("overflows"), "{err}");
        }
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
}
