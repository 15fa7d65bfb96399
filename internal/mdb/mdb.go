// Package mdb is a memory-mapped-database stand-in for the paper's MDB
// (LMDB) case study (Section IV-C): a copy-on-write B+-tree key-value
// store with single-writer transactions and snapshot readers, persisted
// through the Atlas runtime. A write transaction copies every page on the
// root-to-leaf path of each update (the COW policy the paper describes),
// mutates the copies, and installs a new root — all inside one FASE, so a
// crash either exposes the old tree or the new one, never a mix.
//
// The store reproduces the write-pattern class the paper measures: bursts
// of page-copy stores with heavy intra-transaction page reuse (upper-level
// pages are copied once per transaction but touched by every operation),
// which is exactly the locality the adaptive software cache discovers
// (MDB's selected cache size is 20 in Section IV-G).
package mdb

import (
	"errors"
	"fmt"

	"nvmcache/internal/atlas"
	"nvmcache/internal/pmem"
	"nvmcache/internal/trace"
)

// ErrPoolExhausted is returned (wrapped) by Put and Delete when the page
// pool has no pages left for the transaction's COW copies. It is a load
// condition, not corruption: the caller should Abort the transaction and
// shed work (or reopen with a larger pool). Test with errors.Is.
var ErrPoolExhausted = errors.New("mdb: page pool exhausted")

// Tree geometry: order-8 nodes, one page = header + 8 keys + 8 values (or
// child pointers) = 136 bytes, padded to 3 cache lines so pages never
// share a line (block size 192 in the page pool).
const (
	order     = 8
	hdrOff    = 0
	keysOff   = 8
	valsOff   = keysOff + 8*order
	pageBytes = valsOff + 8*order
	pageBlock = 3 * trace.LineSize
)

// DefaultPoolPages sizes the page pool when Open is not given an explicit
// capacity.
const DefaultPoolPages = 1 << 15

const (
	pageLeaf   = 0
	pageBranch = 1
)

// DB is the key-value store. One DB has a single writer at a time (callers
// serialize write transactions, as in LMDB); snapshot readers may read any
// committed root.
type DB struct {
	t    *atlas.Thread
	meta uint64 // meta page: root ptr at +0, generation at +8, pool at +16
	// pool recycles pages persistently (its free list survives crashes,
	// like LMDB's freelist); recycle=false keeps old page versions alive
	// for long-lived snapshots.
	pool    *pmem.Pool
	recycle bool
	// txn state
	inTxn  bool
	copied map[uint64]uint64 // old page -> txn-local copy
	fresh  map[uint64]bool   // pages allocated in this txn (mutable in place)
	freed  []uint64          // pages to recycle at commit
	// freeHook, when set, receives the superseded pages of each commit
	// instead of them being recycled immediately (see SetFreeHook).
	freeHook func(gen uint64, pages []uint64)
}

// Open creates an empty store with the default page-pool capacity (or
// reattaches to one via root discovery; see Reopen).
func Open(t *atlas.Thread) (*DB, error) { return OpenSized(t, DefaultPoolPages) }

// OpenSized creates an empty store whose page pool holds up to pages
// pages and installs it as the heap's root object.
func OpenSized(t *atlas.Thread, pages int) (*DB, error) {
	db, err := Create(t, pages)
	if err != nil {
		return nil, err
	}
	t.Heap().SetRoot(db.meta)
	return db, nil
}

// Create builds an empty store without touching the heap's root pointer,
// so several stores can share one heap (a sharded service keeps each
// shard's MetaAddr in its own directory object). Use Attach to reopen.
func Create(t *atlas.Thread, pages int) (*DB, error) {
	meta, err := t.Heap().AllocLines(64)
	if err != nil {
		return nil, fmt.Errorf("mdb: %w", err)
	}
	pool, err := pmem.NewPool(t.Heap(), pageBlock, pages)
	if err != nil {
		return nil, fmt.Errorf("mdb: %w", err)
	}
	db := &DB{t: t, meta: meta, pool: pool, recycle: true}
	t.FASEBegin()
	t.Store64(meta, 0)              // empty tree
	t.Store64(meta+8, 0)            // generation
	t.Store64(meta+16, pool.Base()) // page pool
	t.FASEEnd()
	return db, nil
}

// Reopen attaches to the store previously created in the heap (after a
// restart and atlas.Recover).
func Reopen(t *atlas.Thread) (*DB, error) {
	meta := t.Heap().Root()
	if meta == 0 {
		return nil, fmt.Errorf("mdb: heap has no root; use Open")
	}
	return Attach(t, meta)
}

// Attach reopens the store whose meta page lives at meta (obtained from
// MetaAddr before the restart), for heaps holding more than one store.
func Attach(t *atlas.Thread, meta uint64) (*DB, error) {
	if meta == 0 {
		return nil, fmt.Errorf("mdb: zero meta address")
	}
	pool, err := pmem.OpenPool(t.Heap(), t.Heap().ReadUint64(meta+16))
	if err != nil {
		return nil, fmt.Errorf("mdb: reopening page pool: %w", err)
	}
	return &DB{t: t, meta: meta, pool: pool, recycle: true}, nil
}

// MetaAddr returns the persistent address of the store's meta page; store
// it in a root/directory object to Attach after a restart.
func (db *DB) MetaAddr() uint64 { return db.meta }

// Generation returns the committed transaction count.
func (db *DB) Generation() uint64 { return db.t.Load64(db.meta + 8) }

func (db *DB) alloc() (uint64, error) {
	p, err := db.pool.Alloc()
	if err != nil {
		if errors.Is(err, pmem.ErrPoolExhausted) {
			return 0, fmt.Errorf("%w (%d pages)", ErrPoolExhausted, db.pool.Capacity())
		}
		return 0, err
	}
	return p, nil
}

// page accessors (p is a page address).
func (db *DB) ptype(p uint64) uint64      { return db.t.Load64(p+hdrOff) >> 32 }
func (db *DB) nkeys(p uint64) int         { return int(uint32(db.t.Load64(p + hdrOff))) }
func (db *DB) key(p uint64, i int) uint64 { return db.t.Load64(p + keysOff + uint64(8*i)) }
func (db *DB) val(p uint64, i int) uint64 { return db.t.Load64(p + valsOff + uint64(8*i)) }

func (db *DB) setHdr(p uint64, typ uint64, n int) {
	db.t.Store64(p+hdrOff, typ<<32|uint64(uint32(n)))
}
func (db *DB) setKey(p uint64, i int, k uint64) { db.t.Store64(p+keysOff+uint64(8*i), k) }
func (db *DB) setVal(p uint64, i int, v uint64) { db.t.Store64(p+valsOff+uint64(8*i), v) }

// Begin opens a write transaction (one FASE).
func (db *DB) Begin() error {
	if db.inTxn {
		return fmt.Errorf("mdb: nested write transaction")
	}
	db.inTxn = true
	db.copied = make(map[uint64]uint64, 16)
	db.fresh = make(map[uint64]bool, 16)
	db.freed = db.freed[:0]
	db.t.FASEBegin()
	return nil
}

// Commit installs the new root (done by the ops as they run), bumps the
// generation and closes the FASE; old page versions become recyclable.
func (db *DB) Commit() error {
	if !db.inTxn {
		return fmt.Errorf("mdb: commit outside transaction")
	}
	db.t.Store64(db.meta+8, db.Generation()+1)
	db.t.FASEEnd()
	if db.recycle {
		if db.freeHook != nil {
			if len(db.freed) > 0 {
				pages := make([]uint64, len(db.freed))
				copy(pages, db.freed)
				db.freeHook(db.Generation(), pages)
			}
		} else {
			// The superseded page versions return to the persistent pool only
			// after the transaction is durable, so a crash can at worst leak
			// pages, never hand a live page out twice.
			for _, p := range db.freed {
				db.pool.Free(p)
			}
		}
	}
	db.inTxn = false
	db.copied, db.fresh = nil, nil
	return nil
}

// PendingCommit is a transaction published but not yet durable: the root
// and generation are installed and the FASE's epoch is in flight through
// the flush pipeline. Await makes it durable (and only then releases the
// superseded pages). Until Await returns, a crash rolls the transaction
// back, so its effects must not be acknowledged externally.
type PendingCommit struct {
	db     *DB
	ticket atlas.FASETicket
	gen    uint64
	freed  []uint64
}

// CommitPublish is the overlap-friendly half of Commit: it installs the new
// root, bumps the generation and publishes the FASE without waiting for
// persistence, so the caller can start the next transaction (whose stores
// and undo logging overlap this one's background drain) before calling
// Await. Without a pipelined runtime the publish degenerates to a
// synchronous FASE end and Await is a cheap no-op, so callers may use the
// split pair unconditionally.
func (db *DB) CommitPublish() (*PendingCommit, error) {
	if !db.inTxn {
		return nil, fmt.Errorf("mdb: commit outside transaction")
	}
	db.t.Store64(db.meta+8, db.Generation()+1)
	tk := db.t.FASEPublish()
	pc := &PendingCommit{db: db, ticket: tk, gen: db.Generation()}
	if db.recycle && len(db.freed) > 0 {
		pc.freed = append([]uint64(nil), db.freed...)
	}
	db.inTxn = false
	db.copied, db.fresh = nil, nil
	db.freed = db.freed[:0]
	return pc, nil
}

// Await blocks until the published transaction is durable, then recycles
// (or hands to the free hook) the page versions it superseded. Must be
// called from the store's single writer, before any later transaction's
// Await. It reports whether the transaction is durable: false only when a
// crash aborted the flush pipeline first, and recovery then rolls it back.
func (pc *PendingCommit) Await() (durable bool) {
	db := pc.db
	durable = db.t.FASEAwait(pc.ticket)
	if durable && db.recycle && len(pc.freed) > 0 {
		if db.freeHook != nil {
			db.freeHook(pc.gen, pc.freed)
		} else {
			for _, p := range pc.freed {
				db.pool.Free(p)
			}
		}
	}
	pc.freed = nil
	return durable
}

// Generation returns pc's committed generation.
func (pc *PendingCommit) Generation() uint64 { return pc.gen }

// Abort rolls the current transaction back: the FASE's undo entries are
// applied in reverse (restoring root, generation, and every touched page)
// and the pages allocated by the transaction are returned to the pool. The
// committed tree is untouched — exactly the state a crash mid-transaction
// plus recovery would yield, minus the page leak. Abort fails (with the
// store left as recovery would leave it) only when the undo log overflowed.
func (db *DB) Abort() error {
	if !db.inTxn {
		return fmt.Errorf("mdb: abort outside transaction")
	}
	err := db.t.FASEAbort()
	if err == nil {
		// All pages allocated in this txn (copies and fresh nodes) are
		// unreferenced by the restored tree; recycle them.
		for p := range db.fresh {
			db.pool.Free(p)
		}
	}
	db.inTxn = false
	db.copied, db.fresh = nil, nil
	db.freed = db.freed[:0]
	return err
}

// SetFreeHook redirects the superseded pages of every commit to fn instead
// of recycling them immediately. A service layer serving lock-free snapshot
// readers uses this to defer reuse until no snapshot older than gen is
// live, then returns the pages with RecyclePages. fn runs on the committing
// goroutine, after the transaction is durable. Passing nil restores
// immediate recycling.
func (db *DB) SetFreeHook(fn func(gen uint64, pages []uint64)) { db.freeHook = fn }

// RecyclePages returns pages previously handed to the free hook to the
// pool. Like all mutating methods it must be called from the store's single
// writer (the pool's free list is not safe for concurrent update).
func (db *DB) RecyclePages(pages []uint64) {
	for _, p := range pages {
		db.pool.Free(p)
	}
}

// PoolRemaining reports how many pages the store can still allocate.
func (db *DB) PoolRemaining() int { return db.pool.Remaining() }

// ResetForRebuild discards the whole tree: the page pool rewinds to empty
// and the root is cleared, leaving a fresh store at the same meta address.
// Checkpointed recovery uses it before reconstructing the tree from a
// checkpoint image, so it never has to trust (or leak) the crashed tree's
// pages. The reset is deliberately not transactional across the pool and
// the root — a crash mid-reset is recovered by the caller re-running the
// whole rebuild, which starts with another ResetForRebuild.
func (db *DB) ResetForRebuild() error {
	if db.inTxn {
		return fmt.Errorf("mdb: ResetForRebuild inside transaction")
	}
	db.pool.Reset()
	db.t.FASEBegin()
	db.t.Store64(db.meta, 0)
	db.t.FASEEnd()
	return nil
}

// ReclaimLeaked rebuilds the page pool's free list from the committed
// tree: every allocated page the tree does not reach becomes free again.
// Pool updates are not undo-logged, so a crash leaks the pages a
// rolled-back transaction had allocated, and a serving store also loses
// the superseded pages it had parked for snapshot readers. Recovery that
// keeps the crashed tree calls this so leaks do not accumulate across
// crashes. It returns the number of free pages; see pmem.Pool.Rebuild for
// its crash behaviour.
func (db *DB) ReclaimLeaked() (int, error) {
	if db.inTxn {
		return 0, fmt.Errorf("mdb: ReclaimLeaked inside transaction")
	}
	live := make(map[uint64]bool)
	var walk func(p uint64)
	walk = func(p uint64) {
		live[p] = true
		if db.ptype(p) == pageBranch {
			for i := 0; i < db.nkeys(p); i++ {
				walk(db.val(p, i))
			}
		}
	}
	if root := db.Snapshot(); root != 0 {
		walk(root)
	}
	return db.pool.Rebuild(func(p uint64) bool { return live[p] }), nil
}

// ForceGeneration overwrites the committed generation (one tiny FASE).
// Rebuild-from-checkpoint uses it to stamp the reconstructed tree with the
// generation the journal proves was durable at the crash, instead of the
// incidental count of rebuild transactions.
func (db *DB) ForceGeneration(gen uint64) error {
	if db.inTxn {
		return fmt.Errorf("mdb: ForceGeneration inside transaction")
	}
	db.t.FASEBegin()
	db.t.Store64(db.meta+8, gen)
	db.t.FASEEnd()
	return nil
}

// touch returns a mutable version of page p within the current
// transaction, copying it on first touch (copy-on-write).
func (db *DB) touch(p uint64) (uint64, error) {
	if db.fresh[p] {
		return p, nil
	}
	if c, ok := db.copied[p]; ok {
		return c, nil
	}
	c, err := db.alloc()
	if err != nil {
		return 0, err
	}
	// Copy the whole page word by word: the COW write burst the paper's
	// MDB exhibits.
	for off := uint64(0); off < pageBytes; off += 8 {
		db.t.Store64(c+off, db.t.Load64(p+off))
	}
	db.copied[p] = c
	db.fresh[c] = true
	db.freed = append(db.freed, p)
	return c, nil
}

func (db *DB) newPage(typ uint64) (uint64, error) {
	p, err := db.alloc()
	if err != nil {
		return 0, err
	}
	db.fresh[p] = true
	db.setHdr(p, typ, 0)
	return p, nil
}

// childIndex returns the branch slot whose subtree covers k: the largest i
// with key(i) ≤ k, or 0 when k precedes every separator.
func (db *DB) childIndex(p uint64, k uint64) int {
	n := db.nkeys(p)
	i := n - 1
	for i > 0 && db.key(p, i) > k {
		i--
	}
	return i
}

// Put inserts or updates a key inside the current transaction.
func (db *DB) Put(k, v uint64) error {
	if !db.inTxn {
		return fmt.Errorf("mdb: Put outside transaction")
	}
	root := db.t.Load64(db.meta)
	if root == 0 {
		leaf, err := db.newPage(pageLeaf)
		if err != nil {
			return err
		}
		db.setHdr(leaf, pageLeaf, 1)
		db.setKey(leaf, 0, k)
		db.setVal(leaf, 0, v)
		db.t.Store64(db.meta, leaf)
		return nil
	}
	newRoot, split, err := db.insert(root, k, v)
	if err != nil {
		return err
	}
	if split != 0 {
		// Root split: new branch with the two subtrees.
		nr, err := db.newPage(pageBranch)
		if err != nil {
			return err
		}
		db.setHdr(nr, pageBranch, 2)
		db.setKey(nr, 0, db.key(newRoot, 0))
		db.setVal(nr, 0, newRoot)
		db.setKey(nr, 1, db.key(split, 0))
		db.setVal(nr, 1, split)
		newRoot = nr
	}
	db.t.Store64(db.meta, newRoot)
	return nil
}

// insert adds k:v under page p, returning p's mutable replacement and, if
// p split, the new right sibling.
func (db *DB) insert(p uint64, k, v uint64) (replacement, split uint64, err error) {
	c, err := db.touch(p)
	if err != nil {
		return 0, 0, err
	}
	if db.ptype(c) == pageLeaf {
		return db.insertLeaf(c, k, v)
	}
	i := db.childIndex(c, k)
	childNew, childSplit, err := db.insert(db.val(c, i), k, v)
	if err != nil {
		return 0, 0, err
	}
	db.setVal(c, i, childNew)
	db.setKey(c, i, db.key(childNew, 0)) // min-key may have decreased
	if childSplit != 0 {
		return db.insertEntry(c, i+1, db.key(childSplit, 0), childSplit)
	}
	return c, 0, nil
}

func (db *DB) insertLeaf(c uint64, k, v uint64) (uint64, uint64, error) {
	n := db.nkeys(c)
	pos := 0
	for pos < n && db.key(c, pos) < k {
		pos++
	}
	if pos < n && db.key(c, pos) == k {
		db.setVal(c, pos, v) // update in place (page is a txn copy)
		return c, 0, nil
	}
	return db.insertEntry(c, pos, k, v)
}

// insertEntry inserts (k, v) at slot pos of page c, splitting if full.
func (db *DB) insertEntry(c uint64, pos int, k, v uint64) (uint64, uint64, error) {
	n := db.nkeys(c)
	typ := db.ptype(c)
	if n < order {
		for j := n; j > pos; j-- {
			db.setKey(c, j, db.key(c, j-1))
			db.setVal(c, j, db.val(c, j-1))
		}
		db.setKey(c, pos, k)
		db.setVal(c, pos, v)
		db.setHdr(c, typ, n+1)
		return c, 0, nil
	}
	// Split: left keeps the lower half, right gets the upper half; then
	// insert into the proper side.
	right, err := db.newPage(typ)
	if err != nil {
		return 0, 0, err
	}
	half := order / 2
	for j := half; j < order; j++ {
		db.setKey(right, j-half, db.key(c, j))
		db.setVal(right, j-half, db.val(c, j))
	}
	db.setHdr(right, typ, order-half)
	db.setHdr(c, typ, half)
	if pos <= half {
		if _, _, err := db.insertEntry(c, pos, k, v); err != nil {
			return 0, 0, err
		}
	} else {
		if _, _, err := db.insertEntry(right, pos-half, k, v); err != nil {
			return 0, 0, err
		}
	}
	return c, right, nil
}

// Get looks up a key against the current committed (or in-transaction)
// root.
func (db *DB) Get(k uint64) (uint64, bool) {
	p := db.t.Load64(db.meta)
	return db.getFrom(p, k)
}

// GetSnapshot looks up k in an explicit snapshot root (see Snapshot).
func (db *DB) GetSnapshot(root, k uint64) (uint64, bool) { return db.getFrom(root, k) }

// Snapshot returns the current root for later snapshot reads. Snapshots
// stay valid until a later transaction recycles their pages; concurrent
// long-lived readers should disable recycling (see DisableRecycling).
func (db *DB) Snapshot() uint64 { return db.t.Load64(db.meta) }

// DisableRecycling stops page reuse, giving persistent snapshot validity
// at the cost of pool growth.
func (db *DB) DisableRecycling() { db.recycle = false }

func (db *DB) getFrom(p uint64, k uint64) (uint64, bool) {
	for p != 0 {
		if db.ptype(p) == pageLeaf {
			n := db.nkeys(p)
			for i := 0; i < n; i++ {
				if db.key(p, i) == k {
					return db.val(p, i), true
				}
			}
			return 0, false
		}
		p = db.val(p, db.childIndex(p, k))
	}
	return 0, false
}

// Delete removes a key inside the current transaction; it reports whether
// the key was present.
func (db *DB) Delete(k uint64) (bool, error) {
	if !db.inTxn {
		return false, fmt.Errorf("mdb: Delete outside transaction")
	}
	root := db.t.Load64(db.meta)
	if root == 0 {
		return false, nil
	}
	// remove COW-copies the descent path even when the key is absent, so
	// the new root must be installed unconditionally: the old path pages
	// are already queued for recycling.
	newRoot, found, err := db.remove(root, k)
	if err != nil {
		return false, err
	}
	db.t.Store64(db.meta, newRoot)
	return found, nil
}

// remove deletes k under p; returns the mutable replacement (0 when the
// subtree became empty).
func (db *DB) remove(p uint64, k uint64) (uint64, bool, error) {
	c, err := db.touch(p)
	if err != nil {
		return 0, false, err
	}
	if db.ptype(c) == pageLeaf {
		n := db.nkeys(c)
		for i := 0; i < n; i++ {
			if db.key(c, i) == k {
				for j := i; j < n-1; j++ {
					db.setKey(c, j, db.key(c, j+1))
					db.setVal(c, j, db.val(c, j+1))
				}
				db.setHdr(c, pageLeaf, n-1)
				if n-1 == 0 {
					return 0, true, nil
				}
				return c, true, nil
			}
		}
		return c, false, nil
	}
	i := db.childIndex(c, k)
	childNew, found, err := db.remove(db.val(c, i), k)
	if err != nil {
		return 0, false, err
	}
	// The child was copied whether or not the key was found; it must be
	// re-linked either way, or this page would keep pointing at a page
	// already queued for recycling.
	if childNew == 0 {
		// Drop the emptied child entry.
		n := db.nkeys(c)
		for j := i; j < n-1; j++ {
			db.setKey(c, j, db.key(c, j+1))
			db.setVal(c, j, db.val(c, j+1))
		}
		db.setHdr(c, pageBranch, n-1)
		if n-1 == 0 {
			return 0, true, nil
		}
		return c, true, nil
	}
	db.setVal(c, i, childNew)
	db.setKey(c, i, db.key(childNew, 0))
	return c, found, nil
}

// Scan visits all key/value pairs in ascending key order from the current
// root (a read-only traversal; the paper's Mtest interleaves these with
// inserts and deletes).
func (db *DB) Scan(fn func(k, v uint64) bool) {
	db.scanFrom(db.t.Load64(db.meta), fn)
}

func (db *DB) scanFrom(p uint64, fn func(k, v uint64) bool) bool {
	if p == 0 {
		return true
	}
	n := db.nkeys(p)
	if db.ptype(p) == pageLeaf {
		for i := 0; i < n; i++ {
			if !fn(db.key(p, i), db.val(p, i)) {
				return false
			}
		}
		return true
	}
	for i := 0; i < n; i++ {
		if !db.scanFrom(db.val(p, i), fn) {
			return false
		}
	}
	return true
}

// Count returns the number of keys (full traversal).
func (db *DB) Count() int {
	n := 0
	db.Scan(func(_, _ uint64) bool { n++; return true })
	return n
}

// CheckInvariants validates tree structure: key ordering within pages,
// min-key separators matching child minima, and leaf depth uniformity.
func (db *DB) CheckInvariants() error {
	root := db.t.Load64(db.meta)
	if root == 0 {
		return nil
	}
	_, err := db.checkPage(root, 0)
	return err
}

func (db *DB) checkPage(p uint64, depth int) (leafDepth int, err error) {
	n := db.nkeys(p)
	if n <= 0 || n > order {
		return 0, fmt.Errorf("mdb: page %d has %d keys", p, n)
	}
	for i := 1; i < n; i++ {
		if db.key(p, i-1) >= db.key(p, i) {
			return 0, fmt.Errorf("mdb: page %d keys out of order at %d", p, i)
		}
	}
	if db.ptype(p) == pageLeaf {
		return depth, nil
	}
	want := -1
	for i := 0; i < n; i++ {
		child := db.val(p, i)
		if db.key(child, 0) != db.key(p, i) {
			return 0, fmt.Errorf("mdb: separator %d of page %d (key %d) != child min %d",
				i, p, db.key(p, i), db.key(child, 0))
		}
		d, err := db.checkPage(child, depth+1)
		if err != nil {
			return 0, err
		}
		if want == -1 {
			want = d
		} else if d != want {
			return 0, fmt.Errorf("mdb: uneven leaf depth under page %d", p)
		}
	}
	return want, nil
}

// PageLines returns the number of cache lines per page (for locality
// reasoning in tests and docs).
func PageLines() int { return (pageBytes + trace.LineSize - 1) / trace.LineSize }
