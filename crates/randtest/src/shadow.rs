//! The **shadow heap**: a deliberately naive, deep-clone reimplementation of
//! `cpcf::Heap`'s journal algebra, kept as the differential oracle (and
//! microbenchmark baseline) for the persistent copy-on-write representation.
//!
//! [`ShadowHeap`] stores its state in plain `BTreeMap`s/`BTreeSet`s and its
//! journal in a single `Vec` — exactly the pre-persistent representation,
//! whose `Clone` deep-copies everything including the O(path-length)
//! journal. Its mutation logic mirrors `cpcf::heap` operation for operation
//! (reusing the crate's own `content_hash`/`encodes_formulas` so the
//! fingerprint chains cannot drift apart), which gives two guarantees worth
//! testing against:
//!
//! * **semantic**: replaying any mutation sequence on both heaps must
//!   produce bit-identical journals and fingerprints (the entire interface
//!   the incremental prover engines consume) — fuzzed by
//!   [`crate::heaptrace::HeapTrace::generate_checked`] over hundreds of
//!   seeds;
//! * **performance**: the shadow's `Clone` is the old cost model, so the
//!   `heap` microbenchmark can report old-vs-new snapshot cost side by
//!   side.

use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};

use cpcf::heap::{content_hash, encodes_formulas, JournalEntry, JournalEvent};
use cpcf::{CRefinement, Loc, SVal};

/// The deep-clone heap: `BTreeMap` state plus a `Vec` journal, cloned in
/// full at every snapshot. Mirrors the journal/fingerprint semantics of
/// [`cpcf::Heap`] bit for bit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShadowHeap {
    entries: BTreeMap<Loc, SVal>,
    next: u32,
    journal: Vec<JournalEntry>,
    fingerprint: u64,
    memo_refs: BTreeSet<Loc>,
}

impl ShadowHeap {
    /// Creates an empty shadow heap.
    pub fn new() -> Self {
        ShadowHeap::default()
    }

    /// Allocates a fresh location (mirrors `Heap::alloc`).
    pub fn alloc(&mut self, value: SVal) -> Loc {
        let loc = Loc::new(self.next);
        self.next += 1;
        let hash = content_hash(&value);
        self.note_memo_refs(&value);
        self.entries.insert(loc, value);
        self.record(JournalEvent::Touched(loc), hash);
        loc
    }

    /// Allocates a fresh anonymous opaque value.
    pub fn alloc_fresh_opaque(&mut self) -> Loc {
        self.alloc(SVal::opaque())
    }

    /// Looks up a location.
    ///
    /// # Panics
    ///
    /// Panics on a dangling location, like `Heap::get`.
    pub fn get(&self, loc: Loc) -> &SVal {
        self.entries
            .get(&loc)
            .unwrap_or_else(|| panic!("dangling shadow location {loc}"))
    }

    /// Replaces the value at a location (mirrors `Heap::set`).
    pub fn set(&mut self, loc: Loc, value: SVal) {
        enum Change {
            Monotone(Vec<JournalEvent>),
            Touched,
            Rebase,
        }
        let change = match (self.entries.get(&loc), &value) {
            (
                Some(SVal::Opaque {
                    refinements: old_r,
                    entries: old_e,
                }),
                SVal::Opaque {
                    refinements: new_r,
                    entries: new_e,
                },
            ) if new_r.len() >= old_r.len()
                && new_r[..old_r.len()] == old_r[..]
                && new_e.len() >= old_e.len()
                && new_e[..old_e.len()] == old_e[..] =>
            {
                let mut events = Vec::new();
                for index in old_r.len()..new_r.len() {
                    events.push(JournalEvent::Refined(loc, index));
                }
                for index in old_e.len()..new_e.len() {
                    events.push(JournalEvent::EntryAdded(loc, index));
                }
                Change::Monotone(events)
            }
            (Some(old), _) if encodes_formulas(old) => Change::Rebase,
            (Some(_), new)
                if self.memo_refs.contains(&loc)
                    && !matches!(new, SVal::Num(_) | SVal::Opaque { .. }) =>
            {
                Change::Rebase
            }
            _ => Change::Touched,
        };
        let hash = content_hash(&value);
        self.note_memo_refs(&value);
        self.entries.insert(loc, value);
        match change {
            Change::Monotone(events) => {
                for event in events {
                    self.record(event, hash);
                }
            }
            Change::Touched => self.record(JournalEvent::Touched(loc), hash),
            Change::Rebase => self.record(JournalEvent::Rebase { loc }, hash),
        }
    }

    /// Adds a refinement to the opaque value at `loc` (mirrors
    /// `Heap::refine`).
    ///
    /// # Panics
    ///
    /// Panics if the location does not hold an opaque value.
    pub fn refine(&mut self, loc: Loc, refinement: CRefinement) {
        let appended = match self.entries.get_mut(&loc) {
            Some(SVal::Opaque { refinements, .. }) => {
                if refinements.contains(&refinement) {
                    None
                } else {
                    let mut hasher = std::collections::hash_map::DefaultHasher::new();
                    refinement.hash(&mut hasher);
                    refinements.push(refinement);
                    Some((refinements.len() - 1, hasher.finish()))
                }
            }
            other => panic!("refining non-opaque shadow location {loc}: {other:?}"),
        };
        if let Some((index, hash)) = appended {
            self.record(JournalEvent::Refined(loc, index), hash);
        }
    }

    fn note_memo_refs(&mut self, value: &SVal) {
        if let SVal::Opaque { entries, .. } = value {
            for &(arg, res) in entries {
                self.memo_refs.insert(arg);
                self.memo_refs.insert(res);
            }
        }
    }

    fn record(&mut self, event: JournalEvent, content: u64) {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        self.fingerprint.hash(&mut hasher);
        std::mem::discriminant(&event).hash(&mut hasher);
        match event {
            JournalEvent::Touched(loc) | JournalEvent::Rebase { loc, .. } => loc.hash(&mut hasher),
            JournalEvent::Refined(loc, index) | JournalEvent::EntryAdded(loc, index) => {
                (loc, index).hash(&mut hasher)
            }
        }
        content.hash(&mut hasher);
        self.fingerprint = hasher.finish();
        self.journal.push(JournalEntry {
            event,
            fingerprint: self.fingerprint,
        });
    }

    /// The journal, oldest event first.
    pub fn journal(&self) -> &[JournalEntry] {
        &self.journal
    }

    /// The fingerprint after the last journalled event.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Index of the next allocation.
    pub fn next_index(&self) -> u32 {
        self.next
    }

    /// Iterates over allocated locations in order.
    pub fn iter(&self) -> impl Iterator<Item = (Loc, &SVal)> + '_ {
        self.entries.iter().map(|(l, v)| (*l, v))
    }
}

/// Asserts that a [`cpcf::Heap`] and a [`ShadowHeap`] that replayed the same
/// mutation sequence agree on every observable the prover engines consume:
/// allocation counter, value store (content and iteration order), journal
/// (events *and* fingerprint chain) and final fingerprint.
///
/// # Panics
///
/// Panics with a description of the first divergence.
pub fn assert_heaps_agree(heap: &cpcf::Heap, shadow: &ShadowHeap, context: &str) {
    assert_eq!(
        heap.next_index(),
        shadow.next_index(),
        "{context}: allocation counters diverge"
    );
    assert_eq!(
        heap.fingerprint(),
        shadow.fingerprint(),
        "{context}: fingerprints diverge"
    );
    assert_eq!(
        heap.journal_len(),
        shadow.journal().len(),
        "{context}: journal lengths diverge"
    );
    for (position, (persistent, naive)) in heap
        .journal_suffix(0)
        .zip(shadow.journal().iter().copied())
        .enumerate()
    {
        assert_eq!(
            persistent, naive,
            "{context}: journals diverge at position {position}"
        );
    }
    assert!(
        heap.iter()
            .map(|(l, v)| (l, v.clone()))
            .eq(shadow.iter().map(|(l, v)| (l, v.clone()))),
        "{context}: stored values or their iteration order diverge"
    );
}
