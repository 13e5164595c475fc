//! The one pass that both a structural merge and a batch update make over
//! two sorted documents.
//!
//! At every level the two sorted sibling sequences are interleaved by key;
//! a pair of equal-keyed, same-named elements is a *match* and the walk
//! descends into their two child sequences. Matched elements always form a
//! chain from the roots down, so the walk's whole state beyond the two
//! one-record lookaheads is one integer: the level it interleaves. A match
//! sets it one deeper; a level that neither input continues sets it one
//! shallower. Document depth therefore costs no stack.
//!
//! The two same-named roots always match, whatever their keys: two
//! documents being combined share their root (Figure 1's `company`), and
//! the output must have exactly one. Roots with different names, an update
//! that deletes the root and input past the root are errors.
//!
//! The jobs differ in two places only: what a match does and what becomes
//! of a subtree only the right input holds. [`Walk::op`] decides both.

use std::cmp::Ordering;

use nexsort_baseline::RecSource;
use nexsort_xml::{NameRef, Rec, Result, TagDict, TextRec, XmlError};

use crate::cursor::Peek;

/// Which job a walk does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Job {
    /// Structural merge: a match unions attributes, the left value winning.
    Merge,
    /// Batch update: the right input's `op` attributes say what a match
    /// does, and are stripped from the output.
    Update,
}

/// Everything either job counts; each public stats type reads its share.
#[derive(Debug, Default)]
pub(crate) struct Counts {
    pub merged: u64,
    /// Records copied from the left (`[0]`) and right (`[1]`) input alone.
    pub only: [u64; 2],
    pub attrs_unioned: u64,
    pub emitted: u64,
    pub deleted: u64,
    pub replaced: u64,
    pub inserted: u64,
    pub missed_deletes: u64,
}

const LEFT: usize = 0;
const RIGHT: usize = 1;

/// The attribute through which an update element names its operation.
const OP_ATTR: &[u8] = b"op";

/// What the right input's element asks for when it meets its left match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    /// Union the attributes and descend into the children.
    Union { right_wins: bool },
    /// Drop both subtrees.
    Delete,
    /// Drop the left subtree, copy the right one.
    Replace,
}

/// The next move at the current level.
enum Step {
    /// Neither input continues this level.
    Up,
    /// The left head's subtree goes out alone.
    Left,
    /// The right head's subtree has no match.
    Right(Op),
    /// The two heads match.
    Match(Op),
}

type Input<'s> = Peek<&'s mut dyn RecSource>;

struct Walk<'d, 'o> {
    job: Job,
    dicts: [&'d TagDict; 2],
    out_dict: TagDict,
    next_seq: u64,
    counts: Counts,
    out: &'o mut dyn FnMut(Rec, &TagDict) -> Result<()>,
}

/// Combine `left` (names interned in `dicts[0]`) with `right` (in
/// `dicts[1]`), emitting the result in document order, each record with the
/// output dictionary as it stands. Returns that dictionary and the counts.
pub(crate) fn walk(
    job: Job,
    dicts: [&TagDict; 2],
    left: &mut dyn RecSource,
    right: &mut dyn RecSource,
    out: &mut dyn FnMut(Rec, &TagDict) -> Result<()>,
) -> Result<(TagDict, Counts)> {
    let mut w =
        Walk { job, dicts, out_dict: TagDict::new(), next_seq: 0, counts: Counts::default(), out };
    let (mut l, mut r) = (Peek::new(left), Peek::new(right));
    let mut level = 1;
    loop {
        let step = match (l.peek_at(level)?, r.peek_at(level)?) {
            (None, None) => Step::Up,
            (Some(_), None) => Step::Left,
            (None, Some(b)) => Step::Right(w.op(b)?),
            (Some(a), Some(b)) => w.order(a, b, level)?,
        };
        match step {
            Step::Up => level -= 1,
            Step::Left => w.copy(&mut l, LEFT, level)?,
            Step::Right(Op::Delete) => {
                drain(&mut r, level, |_| Ok(()))?;
                w.counts.missed_deletes += 1;
            }
            Step::Right(_) => {
                w.copy(&mut r, RIGHT, level)?;
                w.counts.inserted += 1;
            }
            Step::Match(op) => level = w.matched(&mut l, &mut r, op, level)?,
        }
        // The root level holds one element: once it is done, so is the walk.
        if level <= 1 {
            break;
        }
    }
    if l.peek()?.is_some() || r.peek()?.is_some() {
        return Err(XmlError::Record("input continued past its root element".into()));
    }
    Ok((w.out_dict, w.counts))
}

/// Take the subtree rooted at `level` from the head of `input`, handing each
/// record to `each`.
fn drain(input: &mut Input<'_>, level: u32, mut each: impl FnMut(Rec) -> Result<()>) -> Result<()> {
    while let Some(rec) = input.take()? {
        each(rec)?;
        if input.peek()?.is_none_or(|next| next.level() <= level) {
            break;
        }
    }
    Ok(())
}

impl Walk<'_, '_> {
    /// What the right input's element `rec` asks for: a merge always
    /// unions; an update reads `rec`'s `op` attribute.
    fn op(&self, rec: &Rec) -> Result<Op> {
        let Job::Update = self.job else { return Ok(Op::Union { right_wins: false }) };
        if let Rec::Elem(e) = rec {
            for (k, v) in &e.attrs {
                if k.resolve(self.dicts[RIGHT])? == OP_ATTR {
                    return match v.as_slice() {
                        b"delete" => Ok(Op::Delete),
                        b"replace" => Ok(Op::Replace),
                        b"merge" | b"" => Ok(Op::Union { right_wins: true }),
                        other => Err(XmlError::Record(format!(
                            "unknown update op {:?}",
                            String::from_utf8_lossy(other)
                        ))),
                    };
                }
            }
        }
        Ok(Op::Union { right_wins: true })
    }

    /// Order the two heads of the sibling sequences at `level`.
    fn order(&self, a: &Rec, b: &Rec, level: u32) -> Result<Step> {
        let names = match (a, b) {
            (Rec::Elem(ea), Rec::Elem(eb)) => {
                Some((ea.name.resolve(self.dicts[LEFT])?, eb.name.resolve(self.dicts[RIGHT])?))
            }
            _ => None,
        };
        if let (1, Some((na, nb))) = (level, names) {
            let (na, nb) = (String::from_utf8_lossy(na), String::from_utf8_lossy(nb));
            if na != nb {
                return Err(XmlError::Record(format!(
                    "the two roots differ: <{na}> and <{nb}>; both inputs need the same root element"
                )));
            }
            return match self.op(b)? {
                Op::Delete => Err(XmlError::Record(format!(
                    "an update cannot delete the root element <{na}>"
                ))),
                op => Ok(Step::Match(op)),
            };
        }
        Ok(match a.key().cmp(b.key()) {
            Ordering::Less => Step::Left,
            Ordering::Greater => Step::Right(self.op(b)?),
            Ordering::Equal if names.is_some_and(|(na, nb)| na == nb) => Step::Match(self.op(b)?),
            Ordering::Equal => Step::Left,
        })
    }

    /// Carry out `op` on the two matched heads at `level`; returns the level
    /// the walk continues at.
    fn matched(&mut self, l: &mut Input<'_>, r: &mut Input<'_>, op: Op, level: u32) -> Result<u32> {
        let right_wins = match op {
            Op::Delete => {
                drain(l, level, |_| Ok(()))?;
                drain(r, level, |_| Ok(()))?;
                self.counts.deleted += 1;
                return Ok(level);
            }
            Op::Replace => {
                drain(l, level, |_| Ok(()))?;
                self.copy(r, RIGHT, level)?;
                self.counts.replaced += 1;
                return Ok(level);
            }
            Op::Union { right_wins } => right_wins,
        };
        let (Some(a @ Rec::Elem(_)), Some(Rec::Elem(b))) = (l.take()?, r.take()?) else {
            return Err(XmlError::Record("match on non-elements".into()));
        };
        let mut merged = self.remap(a, LEFT)?;
        if let Rec::Elem(m) = &mut merged {
            for (k, v) in b.attrs {
                let name = k.resolve(self.dicts[RIGHT])?;
                if self.is_op_attr(RIGHT, name) {
                    continue;
                }
                let sym = NameRef::Sym(self.out_dict.intern(name));
                match m.attrs.iter_mut().find(|(mk, _)| *mk == sym) {
                    Some(slot) if right_wins => slot.1 = v,
                    Some(_) => {}
                    None => {
                        m.attrs.push((sym, v));
                        self.counts.attrs_unioned += 1;
                    }
                }
            }
        }
        self.counts.merged += 1;
        self.emit(merged)?;
        Ok(level + 1)
    }

    /// Copy the subtree at the head of `input`, read from `side`.
    fn copy(&mut self, input: &mut Input<'_>, side: usize, level: u32) -> Result<()> {
        drain(input, level, |rec| {
            self.counts.only[side] += 1;
            let rec = self.remap(rec, side)?;
            self.emit(rec)
        })
    }

    fn is_op_attr(&self, side: usize, name: &[u8]) -> bool {
        self.job == Job::Update && side == RIGHT && name == OP_ATTR
    }

    /// Re-intern `rec`'s names from `side`'s dictionary into the output's
    /// and give it the next output sequence number.
    fn remap(&mut self, rec: Rec, side: usize) -> Result<Rec> {
        let dict = self.dicts[side];
        let seq = self.next_seq;
        self.next_seq += 1;
        match rec {
            Rec::Elem(mut e) => {
                e.name = NameRef::Sym(self.out_dict.intern(e.name.resolve(dict)?));
                let mut attrs = Vec::with_capacity(e.attrs.len());
                for (k, v) in e.attrs {
                    let name = k.resolve(dict)?;
                    if !self.is_op_attr(side, name) {
                        attrs.push((NameRef::Sym(self.out_dict.intern(name)), v));
                    }
                }
                e.attrs = attrs;
                e.seq = seq;
                Ok(Rec::Elem(e))
            }
            Rec::Text(t) => Ok(Rec::Text(TextRec { seq, ..t })),
            other => Err(XmlError::Record(format!(
                "unexpected record kind in a sorted input: {other:?}"
            ))),
        }
    }

    fn emit(&mut self, rec: Rec) -> Result<()> {
        self.counts.emitted += 1;
        (self.out)(rec, &self.out_dict)
    }
}
