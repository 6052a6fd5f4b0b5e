//! Transactional access sets: the read log and the redo (write) log.
//!
//! Both sets sit on the per-transaction fast path — every transactional
//! read consults the write set first (read-after-write consistency) and
//! every backend walks the read set at validation time — so their layout
//! is tuned for the common short TM transaction while staying O(1)
//! amortized for large ones:
//!
//! * entries live in a plain insertion-ordered `Vec` (backends depend on
//!   that order for canonical lock acquisition and write-back);
//! * lookups use a linear scan while the set is small (at most
//!   [`INLINE_MAX`] entries — one or two cache lines, cheaper than any
//!   hash) and spill into an [`OpenIndex`], a private open-addressed
//!   linear-probe table, beyond it;
//! * `clear` never drops capacity, so a retried transaction reuses every
//!   allocation of its previous attempt (see the counting-allocator test
//!   in `crates/stm/tests/alloc_reuse.rs`);
//! * `clear` costs what the cleared attempt used, not the size of the
//!   largest index the thread ever built, and a set whose attempt did not
//!   need its index returns to the linear scan — one huge transaction must
//!   not tax every later small one.

use crate::heap::Addr;

/// Entry count up to which lookups stay on a linear scan over the entry
/// array. Short transactions — the common TM case — never pay for hashing
/// or index maintenance.
const INLINE_MAX: usize = 8;

/// Index size up to which [`OpenIndex::clear`] zero-fills the whole table
/// (2 KiB). TPC-C-lite and the RBT stay within it, and for their 12–100
/// entry transactions a fill is cheaper than a sweep. Larger tables, left
/// behind by an earlier large transaction, are swept.
const FILL_MAX_SLOTS: usize = 256;

/// A private open-addressed index from a `u32` key to the position of its
/// newest entry in the owning set's entry array.
///
/// Slots pack `key << 32 | (pos + 1)` into one `u64` (`0` = empty), so a
/// probe touches a single flat array with no per-slot indirection. Linear
/// probing with a Fibonacci-multiplied hash; the table grows at 50% load,
/// so probes stay O(1) amortized. Replaces the `HashMap<u32, u32>` spill
/// the write set used to build: same contract, no SipHash and no
/// per-rehash allocation churn.
///
/// Cleared, the index keeps its allocation with every slot zero. It stays
/// *built* (the owning set keeps looking keys up here) only if the cleared
/// attempt needed it, so back-to-back mid-sized transactions do not
/// re-spill, while the first small one after them returns to the scan.
#[derive(Debug, Default, Clone)]
struct OpenIndex {
    slots: Vec<u64>,
    mask: usize,
    used: usize,
    built: bool,
}

impl OpenIndex {
    #[inline]
    fn hash(key: u32, mask: usize) -> usize {
        ((key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask
    }

    /// Whether the owning set looks keys up here rather than by scan.
    #[inline]
    fn is_built(&self) -> bool {
        self.built
    }

    /// Forget every entry but keep the slot allocation. `keys` must yield
    /// every key set since the index was last empty (the owning set's
    /// entries). A large table is cleared by sweeping, from each key's
    /// home slot, the run of occupied slots that holds it — O(entries),
    /// however large an earlier transaction grew the table.
    fn clear(&mut self, keys: impl Iterator<Item = u32>) {
        if self.used == 0 {
            return;
        }
        self.built = self.used > INLINE_MAX;
        if self.slots.len() <= FILL_MAX_SLOTS {
            self.slots.fill(0);
        } else {
            // Linear probing leaves no empty slot between a key's home and
            // its slot, and nothing is removed before this clear, so
            // zeroing forward to the first empty slot covers the key.
            for key in keys {
                let mut i = Self::hash(key, self.mask);
                while self.slots[i] != 0 {
                    self.slots[i] = 0;
                    i = (i + 1) & self.mask;
                }
            }
        }
        self.used = 0;
    }

    /// Position of the newest entry recorded for `key`.
    #[inline]
    fn get(&self, key: u32) -> Option<u32> {
        debug_assert!(!self.slots.is_empty());
        let mut i = Self::hash(key, self.mask);
        loop {
            let s = self.slots[i];
            if s == 0 {
                return None;
            }
            if (s >> 32) as u32 == key {
                return Some(s as u32 - 1);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Record `key → pos`, replacing any earlier position for `key`.
    fn set(&mut self, key: u32, pos: u32) {
        if self.used * 2 >= self.slots.len() {
            self.grow();
        }
        let mut i = Self::hash(key, self.mask);
        loop {
            let s = self.slots[i];
            if s == 0 {
                self.slots[i] = (key as u64) << 32 | (pos as u64 + 1);
                self.used += 1;
                return;
            }
            if (s >> 32) as u32 == key {
                self.slots[i] = (key as u64) << 32 | (pos as u64 + 1);
                return;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Double the table (or seed it) and rehash the occupied slots.
    #[cold]
    fn grow(&mut self) {
        let new_len = (self.slots.len() * 2).max(32);
        let old = std::mem::replace(&mut self.slots, vec![0u64; new_len]);
        self.mask = new_len - 1;
        for s in old {
            if s != 0 {
                let key = (s >> 32) as u32;
                let mut i = Self::hash(key, self.mask);
                while self.slots[i] != 0 {
                    i = (i + 1) & self.mask;
                }
                self.slots[i] = s;
            }
        }
    }

    /// Build the (empty) index over `pairs` (later pairs win).
    #[cold]
    fn build(&mut self, pairs: impl Iterator<Item = (u32, u32)>) {
        debug_assert!(!self.is_built() && self.used == 0);
        self.built = true;
        for (key, pos) in pairs {
            self.set(key, pos);
        }
    }
}

/// A transaction's read log.
///
/// Two representations coexist because the backends need different
/// validation styles:
///
/// * *orec entries* — `(record index, observed version)` pairs, validated
///   against ownership records (TL2, TinySTM, SwissTM);
/// * *value entries* — `(address, observed value)` pairs, re-read and
///   compared for NOrec's value-based validation.
///
/// Both logs deduplicate re-observations, so a transaction that reads the
/// same stripe in a loop keeps a read set proportional to its *footprint*,
/// not its read count — and every validation walk (including SwissTM's
/// snapshot extensions, which re-walk the whole log) shrinks accordingly.
/// The dedup check is O(1) always: while the log is small it compares
/// against the *newest* entry only (catching the dominant consecutive
/// re-read pattern without a scan); once the log spills to its index it
/// dedups against the newest observation recorded for the key. A
/// re-observation at a different version/value is appended, preserving
/// exact validation semantics.
#[derive(Debug, Default, Clone)]
pub struct ReadSet {
    orecs: Vec<(u32, u64)>,
    orec_index: OpenIndex,
    values: Vec<(Addr, u64)>,
    value_index: OpenIndex,
}

impl ReadSet {
    /// An empty read set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forget all entries, retaining capacity.
    #[inline]
    pub fn clear(&mut self) {
        self.orec_index.clear(self.orecs.iter().map(|e| e.0));
        self.value_index.clear(self.values.iter().map(|e| e.0 .0));
        self.orecs.clear();
        self.values.clear();
    }

    /// Record that orec `idx` was observed at `version`. A duplicate of
    /// the newest observation (for the log's tail while inline, for `idx`
    /// once indexed) is dropped.
    #[inline]
    pub fn push_orec(&mut self, idx: usize, version: u64) {
        let key = idx as u32;
        // Tail compare first: the hot case is a loop re-reading the stripe
        // it just read, and it must cost one compare — before any index
        // bookkeeping. Correct in both representations (the tail is the
        // newest observation overall, so a tail hit is always a safe drop).
        if self.orecs.last() == Some(&(key, version)) {
            return;
        }
        if self.orec_index.is_built() {
            if let Some(pos) = self.orec_index.get(key) {
                if self.orecs[pos as usize].1 == version {
                    return;
                }
            }
            let pos = self.orecs.len() as u32;
            self.orecs.push((key, version));
            self.orec_index.set(key, pos);
            return;
        }
        self.orecs.push((key, version));
        if self.orecs.len() > INLINE_MAX {
            self.orec_index
                .build(self.orecs.iter().enumerate().map(|(i, e)| (e.0, i as u32)));
        }
    }

    /// Record that address `a` was observed holding `value`. A duplicate
    /// of the newest observation (for the log's tail while inline, for `a`
    /// once indexed) is dropped.
    #[inline]
    pub fn push_value(&mut self, a: Addr, value: u64) {
        // Tail compare first — see `push_orec`.
        if self.values.last() == Some(&(a, value)) {
            return;
        }
        if self.value_index.is_built() {
            if let Some(pos) = self.value_index.get(a.0) {
                if self.values[pos as usize].1 == value {
                    return;
                }
            }
            let pos = self.values.len() as u32;
            self.values.push((a, value));
            self.value_index.set(a.0, pos);
            return;
        }
        self.values.push((a, value));
        if self.values.len() > INLINE_MAX {
            self.value_index.build(
                self.values
                    .iter()
                    .enumerate()
                    .map(|(i, e)| (e.0 .0, i as u32)),
            );
        }
    }

    /// Orec entries as `(record index, observed version)`.
    #[inline]
    pub fn orecs(&self) -> &[(u32, u64)] {
        &self.orecs
    }

    /// Value entries as `(address, observed value)`.
    #[inline]
    pub fn values(&self) -> &[(Addr, u64)] {
        &self.values
    }

    /// Total number of logged (distinct) reads.
    #[inline]
    pub fn len(&self) -> usize {
        self.orecs.len() + self.values.len()
    }

    /// Whether nothing has been read yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.orecs.is_empty() && self.values.is_empty()
    }
}

/// A transaction's redo log: buffered writes applied to the heap at commit.
///
/// Lookup must be fast because every transactional read first consults the
/// write set (read-after-write consistency): a linear scan up to
/// [`INLINE_MAX`] entries, an [`OpenIndex`] probe — O(1) amortized —
/// beyond. Entries stay in insertion order for canonical lock acquisition
/// and write-back.
#[derive(Debug, Default, Clone)]
pub struct WriteSet {
    entries: Vec<(Addr, u64)>,
    index: OpenIndex,
}

impl WriteSet {
    /// An empty write set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forget all entries, retaining capacity.
    #[inline]
    pub fn clear(&mut self) {
        self.index.clear(self.entries.iter().map(|e| e.0 .0));
        self.entries.clear();
    }

    /// Number of distinct addresses written.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been written yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Buffer a write of `value` to address `a`, overwriting any earlier
    /// write to the same address.
    pub fn insert(&mut self, a: Addr, value: u64) {
        if self.index.is_built() {
            if let Some(pos) = self.index.get(a.0) {
                self.entries[pos as usize].1 = value;
                return;
            }
            let pos = self.entries.len() as u32;
            self.entries.push((a, value));
            self.index.set(a.0, pos);
            return;
        }
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 == a) {
            e.1 = value;
            return;
        }
        self.entries.push((a, value));
        if self.entries.len() > INLINE_MAX {
            self.index.build(
                self.entries
                    .iter()
                    .enumerate()
                    .map(|(i, e)| (e.0 .0, i as u32)),
            );
        }
    }

    /// The buffered value for `a`, if this transaction wrote it.
    ///
    /// Read-only over the current representation (the spill to the index
    /// happens in [`WriteSet::insert`]), so reads can be issued through a
    /// shared reference.
    #[inline]
    pub fn get(&self, a: Addr) -> Option<u64> {
        // Empty-set early out: every transactional read consults the write
        // set, and in read-only transactions — the majority in most TM
        // workloads — this is the whole call.
        if self.entries.is_empty() {
            return None;
        }
        if self.index.is_built() {
            self.index.get(a.0).map(|p| self.entries[p as usize].1)
        } else {
            self.entries.iter().find(|e| e.0 == a).map(|e| e.1)
        }
    }

    /// All buffered writes in insertion order.
    #[inline]
    pub fn entries(&self) -> &[(Addr, u64)] {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pre-index reference: the linear-scan write set the indexed one
    /// must be observably equivalent to (modulo speed).
    #[derive(Default)]
    struct LinearWriteSet {
        entries: Vec<(Addr, u64)>,
    }

    impl LinearWriteSet {
        fn insert(&mut self, a: Addr, value: u64) {
            match self.entries.iter_mut().find(|e| e.0 == a) {
                Some(e) => e.1 = value,
                None => self.entries.push((a, value)),
            }
        }
        fn get(&self, a: Addr) -> Option<u64> {
            self.entries.iter().find(|e| e.0 == a).map(|e| e.1)
        }
    }

    #[test]
    fn write_set_read_after_write() {
        let mut ws = WriteSet::new();
        assert_eq!(ws.get(Addr(1)), None);
        ws.insert(Addr(1), 10);
        ws.insert(Addr(2), 20);
        assert_eq!(ws.get(Addr(1)), Some(10));
        ws.insert(Addr(1), 11);
        assert_eq!(ws.get(Addr(1)), Some(11));
        assert_eq!(ws.len(), 2, "overwrite must not duplicate");
    }

    #[test]
    fn write_set_switches_to_index_transparently() {
        let mut ws = WriteSet::new();
        for i in 0..100u32 {
            ws.insert(Addr(i), i as u64);
        }
        for i in 0..100u32 {
            assert_eq!(ws.get(Addr(i)), Some(i as u64));
        }
        // Overwrites after indexing still work.
        ws.insert(Addr(50), 999);
        assert_eq!(ws.get(Addr(50)), Some(999));
        assert_eq!(ws.len(), 100);
    }

    #[test]
    fn write_set_preserves_insertion_order() {
        // Backends lock and write back in insertion order; the index spill
        // must never reorder entries.
        let mut ws = WriteSet::new();
        let addrs: Vec<u32> = (0..40u32).map(|i| i * 7 % 41).collect();
        for &a in &addrs {
            ws.insert(Addr(a), a as u64);
        }
        let got: Vec<u32> = ws.entries().iter().map(|e| e.0 .0).collect();
        assert_eq!(got, addrs);
    }

    #[test]
    fn write_set_clear_resets_index() {
        let mut ws = WriteSet::new();
        for i in 0..40u32 {
            ws.insert(Addr(i), 1);
        }
        ws.clear();
        assert!(ws.is_empty());
        assert_eq!(ws.get(Addr(3)), None);
        ws.insert(Addr(3), 7);
        assert_eq!(ws.get(Addr(3)), Some(7));
    }

    #[test]
    fn read_set_tracks_both_kinds() {
        let mut rs = ReadSet::new();
        assert!(rs.is_empty());
        rs.push_orec(4, 17);
        rs.push_value(Addr(9), 99);
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.orecs(), &[(4, 17)]);
        assert_eq!(rs.values(), &[(Addr(9), 99)]);
        rs.clear();
        assert!(rs.is_empty());
    }

    #[test]
    fn read_set_dedups_identical_observations() {
        let mut rs = ReadSet::new();
        for _ in 0..100 {
            rs.push_orec(4, 17);
            rs.push_value(Addr(9), 99);
        }
        assert_eq!(rs.orecs(), &[(4, 17)]);
        assert_eq!(rs.values(), &[(Addr(9), 99)]);
        // A different version for the same orec is a distinct observation.
        rs.push_orec(4, 18);
        assert_eq!(rs.orecs(), &[(4, 17), (4, 18)]);
        // ... and re-observing the *newest* pair stays deduplicated.
        rs.push_orec(4, 18);
        assert_eq!(rs.orecs().len(), 2);
    }

    #[test]
    fn read_set_dedup_survives_index_spill() {
        let mut rs = ReadSet::new();
        // Spill the orec log past the inline threshold ...
        for i in 0..(INLINE_MAX as u32 + 4) {
            rs.push_orec(i as usize, 1);
        }
        let n = rs.orecs().len();
        // ... then hammer re-observations: nothing may be appended.
        for _ in 0..100 {
            for i in 0..(INLINE_MAX as u32 + 4) {
                rs.push_orec(i as usize, 1);
            }
        }
        assert_eq!(rs.orecs().len(), n);
        for i in 0..(INLINE_MAX as u32 + 4) {
            rs.push_value(Addr(i), 7);
            rs.push_value(Addr(i), 7);
        }
        assert_eq!(rs.values().len(), INLINE_MAX + 4);
    }

    fn is_empty_table(idx: &OpenIndex) -> bool {
        !idx.is_built() && idx.slots.iter().all(|&s| s == 0)
    }

    #[test]
    fn clear_after_a_large_transaction_returns_to_the_linear_scan() {
        // One large attempt grows every index far past FILL_MAX_SLOTS.
        let mut ws = WriteSet::new();
        let mut rs = ReadSet::new();
        for i in 0..4096u32 {
            ws.insert(Addr(i * 3), 1);
            rs.push_orec(i as usize, 1);
            rs.push_value(Addr(i), 1);
        }
        let big = ws.index.slots.len();
        assert!(big > FILL_MAX_SLOTS);
        ws.clear();
        rs.clear();
        for idx in [&ws.index, &rs.orec_index, &rs.value_index] {
            assert!(idx.slots.iter().all(|&s| s == 0), "swept clean");
            assert!(idx.is_built(), "the cleared attempt needed its index");
        }
        // The first small attempt after it still hashes; its clear sweeps
        // one key and returns both sets to the linear scan ...
        ws.insert(Addr(5), 7);
        rs.push_orec(5, 7);
        assert_eq!(ws.get(Addr(5)), Some(7));
        ws.clear();
        rs.clear();
        assert!(is_empty_table(&ws.index) && is_empty_table(&rs.orec_index));
        // ... where the next one stays, leaving the table untouched.
        ws.insert(Addr(6), 8);
        assert!(!ws.index.is_built() && ws.index.used == 0);
        assert_eq!(ws.get(Addr(6)), Some(8));
        ws.clear();
        // A spilling attempt reuses the kept table, and the sweep leaves
        // it all-zero again.
        for i in 0..20u32 {
            ws.insert(Addr(i * 1000), i as u64);
        }
        assert!(ws.index.is_built());
        assert_eq!(ws.index.slots.len(), big, "allocation kept");
        for i in 0..20u32 {
            assert_eq!(ws.get(Addr(i * 1000)), Some(i as u64));
        }
        assert_eq!(ws.get(Addr(1)), None);
        ws.clear();
        assert!(ws.index.slots.iter().all(|&s| s == 0));
    }

    #[test]
    fn sweep_clears_a_run_that_wraps_around_the_table() {
        let mut idx = OpenIndex::default();
        for k in 0..1024u32 {
            idx.set(k, k);
        }
        idx.clear(0..1024u32);
        assert!(idx.slots.len() > FILL_MAX_SLOTS);
        // Four keys homed at the last slot form a run that wraps past slot
        // 0; two keys homed at slot 0 extend it.
        let last: Vec<u32> = (0..)
            .filter(|&k| OpenIndex::hash(k, idx.mask) == idx.mask)
            .take(4)
            .collect();
        let first: Vec<u32> = (0..)
            .filter(|&k| OpenIndex::hash(k, idx.mask) == 0)
            .take(2)
            .collect();
        let keys: Vec<u32> = last.iter().chain(&first).copied().collect();
        for &k in &keys {
            idx.set(k, k);
        }
        assert_ne!(idx.slots[0], 0, "the run wraps");
        for &k in &keys {
            assert_eq!(idx.get(k), Some(k));
        }
        idx.clear(keys.into_iter().rev());
        assert!(idx.slots.iter().all(|&s| s == 0));
    }

    proptest::proptest! {
        #[test]
        fn write_set_behaves_like_hashmap(ops in proptest::collection::vec((0u32..64, 0u64..1000), 0..200)) {
            let mut ws = WriteSet::new();
            let mut model = std::collections::HashMap::new();
            for (a, v) in ops {
                ws.insert(Addr(a), v);
                model.insert(a, v);
                proptest::prop_assert_eq!(ws.get(Addr(a)), Some(v));
            }
            proptest::prop_assert_eq!(ws.len(), model.len());
            for (a, v) in &model {
                proptest::prop_assert_eq!(ws.get(Addr(*a)), Some(*v));
            }
        }

        #[test]
        fn indexed_write_set_matches_linear_scan_model(
            ops in proptest::collection::vec((0u32..2, 0u32..48, 0u64..1000), 0..300),
        ) {
            // Equivalence against the pre-change linear-scan implementation:
            // same lookups, same entry order, same lengths — interleaving
            // reads and writes so lookups hit every representation state
            // (inline, freshly spilled, long-indexed).
            let mut ws = WriteSet::new();
            let mut model = LinearWriteSet::default();
            for (is_write, a, v) in ops {
                if is_write == 1 {
                    ws.insert(Addr(a), v);
                    model.insert(Addr(a), v);
                } else {
                    proptest::prop_assert_eq!(ws.get(Addr(a)), model.get(Addr(a)));
                }
            }
            proptest::prop_assert_eq!(ws.entries(), model.entries.as_slice());
        }

        #[test]
        fn open_index_tracks_every_key(keys in proptest::collection::vec(0u32..10_000, 0..400)) {
            let mut idx = OpenIndex::default();
            let mut model = std::collections::HashMap::new();
            for (pos, k) in keys.iter().enumerate() {
                idx.set(*k, pos as u32);
                model.insert(*k, pos as u32);
            }
            if !model.is_empty() {
                for (k, pos) in &model {
                    proptest::prop_assert_eq!(idx.get(*k), Some(*pos));
                }
                proptest::prop_assert_eq!(idx.get(10_001), None);
            }
        }
    }
}
