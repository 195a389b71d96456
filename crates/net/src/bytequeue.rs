//! A byte stream stored as a chain of [`Bytes`] chunks.
//!
//! This is the buffer behind TCP send/receive queues and the MPI framing
//! layer. The contract that makes the data plane zero-copy:
//!
//! * [`ByteQueue::push_bytes`] enqueues a chunk without copying;
//! * [`ByteQueue::slice`] returns a [`Bytes`] window into the stream —
//!   free when the range lives inside one chunk (the common case: MSS-sized
//!   slices of application-sized writes), a single coalescing copy when it
//!   straddles a boundary;
//! * [`ByteQueue::advance`] drops acknowledged/consumed bytes from the
//!   front by shrinking chunk windows, never touching payload bytes.
//!
//! Byte content is deterministic and identical to the flat `VecDeque<u8>`
//! this replaced; only the cost model changed.

use bytes::Bytes;
use std::collections::VecDeque;

/// A FIFO byte stream over shared, immutable chunks.
#[derive(Clone, Debug, Default)]
pub struct ByteQueue {
    chunks: VecDeque<Bytes>,
    len: usize,
}

impl ByteQueue {
    pub fn new() -> Self {
        Self::default()
    }

    /// Total buffered bytes. O(1).
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of backing chunks (diagnostics).
    pub fn chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Append borrowed bytes: one copy into a fresh chunk.
    pub fn extend_from_slice(&mut self, data: &[u8]) {
        if !data.is_empty() {
            self.push_bytes(Bytes::copy_from_slice(data));
        }
    }

    /// Append an owned chunk without copying.
    pub fn push_bytes(&mut self, data: Bytes) {
        if !data.is_empty() {
            self.len += data.len();
            self.chunks.push_back(data);
        }
    }

    /// Drop `n` bytes from the front (e.g. data ACKed by the peer, or bytes
    /// consumed by the application). Only chunk windows move.
    pub fn advance(&mut self, n: usize) {
        let mut left = n.min(self.len);
        self.len -= left;
        while left > 0 {
            let front = self.chunks.front_mut().expect("len tracked the chunks");
            if front.len() <= left {
                left -= front.len();
                self.chunks.pop_front();
            } else {
                *front = front.slice(left..);
                left = 0;
            }
        }
    }

    /// The byte at `offset`, if in range.
    pub fn get(&self, offset: usize) -> Option<u8> {
        if offset >= self.len {
            return None;
        }
        let mut off = offset;
        for c in &self.chunks {
            if off < c.len() {
                return Some(c[off]);
            }
            off -= c.len();
        }
        None
    }

    /// A `len`-byte window starting at `offset` (clamped to the buffered
    /// range). Zero-copy when the window lies inside one chunk; otherwise a
    /// single copy coalesces the straddled chunks.
    pub fn slice(&self, offset: usize, len: usize) -> Bytes {
        let offset = offset.min(self.len);
        let want = len.min(self.len - offset);
        if want == 0 {
            return Bytes::new();
        }
        let mut off = offset;
        let mut it = self.chunks.iter();
        for c in it.by_ref() {
            if off < c.len() {
                if off + want <= c.len() {
                    return c.slice(off..off + want);
                }
                // Straddles: coalesce into one owned chunk.
                let mut out = Vec::with_capacity(want);
                out.extend_from_slice(&c[off..]);
                for c2 in it {
                    let take = (want - out.len()).min(c2.len());
                    out.extend_from_slice(&c2[..take]);
                    if out.len() == want {
                        break;
                    }
                }
                return Bytes::from(out);
            }
            off -= c.len();
        }
        Bytes::new()
    }

    /// Consume up to `max` bytes from the front as one chunk. Zero-copy when
    /// the front chunk already fits in `max`.
    pub fn pop_bytes(&mut self, max: usize) -> Bytes {
        let take = max.min(self.len);
        if take == 0 {
            return Bytes::new();
        }
        let front_len = self.chunks.front().expect("non-empty").len();
        if front_len == take {
            self.len -= take;
            return self.chunks.pop_front().unwrap();
        }
        let b = if front_len > take {
            self.chunks.front().unwrap().slice(..take)
        } else {
            self.slice(0, take)
        };
        self.advance(take);
        b
    }

    /// Consume from the front into `out`, appending up to `max` bytes.
    /// One copy, straight from the chunks into the caller's buffer.
    pub(crate) fn pop_into(&mut self, out: &mut Vec<u8>, max: usize) -> usize {
        let mut left = max.min(self.len);
        let total = left;
        out.reserve(left);
        while left > 0 {
            let front = self.chunks.front_mut().expect("len tracked the chunks");
            let take = front.len().min(left);
            out.extend_from_slice(&front[..take]);
            if take == front.len() {
                self.chunks.pop_front();
            } else {
                *front = front.slice(take..);
            }
            left -= take;
        }
        self.len -= total;
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(parts: &[&[u8]]) -> ByteQueue {
        let mut q = ByteQueue::new();
        for p in parts {
            q.push_bytes(Bytes::copy_from_slice(p));
        }
        q
    }

    #[test]
    fn len_and_get_across_chunks() {
        let q = q(&[b"hello", b" ", b"world"]);
        assert_eq!(q.len(), 11);
        assert_eq!(q.chunks(), 3);
        assert_eq!(q.get(0), Some(b'h'));
        assert_eq!(q.get(5), Some(b' '));
        assert_eq!(q.get(6), Some(b'w'));
        assert_eq!(q.get(10), Some(b'd'));
        assert_eq!(q.get(11), None);
    }

    #[test]
    fn slice_within_one_chunk_is_zero_copy_window() {
        let q = q(&[b"0123456789"]);
        assert_eq!(&q.slice(2, 5)[..], b"23456");
        assert_eq!(&q.slice(0, 10)[..], b"0123456789");
        assert_eq!(&q.slice(8, 100)[..], b"89", "clamped to range");
        assert!(q.slice(10, 5).is_empty());
    }

    #[test]
    fn slice_coalesces_across_chunks() {
        let q = q(&[b"abc", b"def", b"ghi"]);
        assert_eq!(&q.slice(1, 7)[..], b"bcdefgh");
        assert_eq!(&q.slice(3, 3)[..], b"def");
        assert_eq!(&q.slice(0, 9)[..], b"abcdefghi");
    }

    #[test]
    fn advance_moves_the_window() {
        let mut q = q(&[b"abc", b"def"]);
        q.advance(2);
        assert_eq!(q.len(), 4);
        assert_eq!(&q.slice(0, 4)[..], b"cdef");
        q.advance(1); // drops the rest of chunk 0
        assert_eq!(&q.slice(0, 3)[..], b"def");
        q.advance(10); // over-advance clamps
        assert!(q.is_empty());
        assert_eq!(q.chunks(), 0);
    }

    #[test]
    fn pop_bytes_hands_whole_chunks_over() {
        let mut q = q(&[b"abc", b"defgh"]);
        let a = q.pop_bytes(3);
        assert_eq!(&a[..], b"abc");
        let b = q.pop_bytes(2);
        assert_eq!(&b[..], b"de");
        assert_eq!(&q.pop_bytes(100)[..], b"fgh");
        assert!(q.pop_bytes(4).is_empty());
    }

    #[test]
    fn pop_bytes_coalesces_when_max_spans_chunks() {
        let mut q = q(&[b"ab", b"cd", b"ef"]);
        assert_eq!(&q.pop_bytes(5)[..], b"abcde");
        assert_eq!(&q.pop_bytes(5)[..], b"f");
    }

    #[test]
    fn pop_into_appends_to_caller_buffer() {
        let mut q = q(&[b"abc", b"def"]);
        let mut out = vec![b'X'];
        assert_eq!(q.pop_into(&mut out, 4), 4);
        assert_eq!(out, b"Xabcd");
        assert_eq!(q.pop_into(&mut out, 100), 2);
        assert_eq!(out, b"Xabcdef");
        assert_eq!(q.pop_into(&mut out, 1), 0);
    }

    #[test]
    fn extend_from_slice_round_trips() {
        let mut q = ByteQueue::new();
        q.extend_from_slice(b"xy");
        q.extend_from_slice(b"");
        q.extend_from_slice(b"z");
        assert_eq!(q.len(), 3);
        assert_eq!(&q.slice(0, 3)[..], b"xyz");
    }
}
