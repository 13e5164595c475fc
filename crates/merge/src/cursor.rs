//! Peekable record cursors over sorted documents.

use nexsort_baseline::RecSource;
use nexsort_xml::{Rec, Result};

/// A one-record lookahead over a [`RecSource`] -- the merge needs to inspect
/// the head of each stream before deciding which side advances.
pub(crate) struct Peek<S: RecSource> {
    src: S,
    head: Option<Rec>,
    primed: bool,
}

impl<S: RecSource> Peek<S> {
    /// Wrap a source.
    pub(crate) fn new(src: S) -> Self {
        Self { src, head: None, primed: false }
    }

    fn prime(&mut self) -> Result<()> {
        if !self.primed {
            self.head = self.src.next_rec()?;
            self.primed = true;
        }
        Ok(())
    }

    /// The record at the head of the stream, if any.
    pub(crate) fn peek(&mut self) -> Result<Option<&Rec>> {
        self.prime()?;
        Ok(self.head.as_ref())
    }

    /// Take the head record, advancing the stream.
    pub(crate) fn take(&mut self) -> Result<Option<Rec>> {
        self.prime()?;
        let out = self.head.take();
        self.primed = false;
        Ok(out)
    }

    /// Head record if it sits exactly at `level` (a sibling of the sequence
    /// currently being merged); `None` if the stream moved shallower or
    /// ended.
    pub(crate) fn peek_at(&mut self, level: u32) -> Result<Option<&Rec>> {
        self.prime()?;
        match &self.head {
            Some(r) if r.level() == level => Ok(self.head.as_ref()),
            _ => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexsort_baseline::VecRecSource;
    use nexsort_xml::{ElemRec, KeyValue, NameRef};

    fn elem(level: u32, seq: u64) -> Rec {
        Rec::Elem(ElemRec {
            level,
            name: NameRef::Sym(0),
            attrs: vec![],
            key: KeyValue::Num(seq as i64),
            seq,
        })
    }

    #[test]
    fn peek_does_not_consume_take_does() {
        let mut p = Peek::new(VecRecSource::new(vec![elem(1, 0), elem(2, 1)]));
        assert_eq!(p.peek().unwrap().unwrap().seq(), 0);
        assert_eq!(p.peek().unwrap().unwrap().seq(), 0);
        assert_eq!(p.take().unwrap().unwrap().seq(), 0);
        assert_eq!(p.peek().unwrap().unwrap().seq(), 1);
        assert_eq!(p.take().unwrap().unwrap().seq(), 1);
        assert!(p.peek().unwrap().is_none());
        assert!(p.take().unwrap().is_none());
    }

    #[test]
    fn peek_at_filters_by_level() {
        let mut p = Peek::new(VecRecSource::new(vec![elem(2, 0), elem(1, 1)]));
        assert!(p.peek_at(2).unwrap().is_some());
        assert!(p.peek_at(3).unwrap().is_none());
        p.take().unwrap();
        assert!(p.peek_at(2).unwrap().is_none(), "stream moved shallower");
        assert!(p.peek_at(1).unwrap().is_some());
    }
}
