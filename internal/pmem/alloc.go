package pmem

import (
	"errors"
	"fmt"

	"nvmcache/internal/trace"
)

// ErrPoolExhausted is returned by Pool.Alloc when neither the free list nor
// the arena has a block left. Callers that can shed load (abort a
// transaction, reject a request) test for it with errors.Is and degrade
// instead of treating the condition as corruption.
var ErrPoolExhausted = errors.New("pool exhausted")

// Pool is a crash-consistent fixed-size block allocator over a Heap — a
// miniature of Makalu (Bhandari et al., OOPSLA'16), the recoverable
// allocator the Atlas system pairs with. The paper's workloads allocate
// persistent nodes and pages constantly; the bump allocator in Heap never
// reclaims, so long-running stores (the MDB case study recycles COW pages)
// need a free list that itself survives crashes.
//
// Layout (all in persistent memory):
//
//	pool+0:  block size
//	pool+8:  free-list head (block address, 0 = empty)
//	pool+16: arena cursor
//	pool+24: arena end
//
// A free block's first word links to the next free block. Every metadata
// update is persisted before the operation returns, and the update order
// (link first, then head) keeps the list consistent at any crash point:
// the worst outcome of a crash inside Alloc/Free is a leaked block, never
// a corrupt or doubly-owned one.
type Pool struct {
	heap *Heap
	base uint64
}

const (
	poolBlockOff  = 0
	poolHeadOff   = 8
	poolCursorOff = 16
	poolEndOff    = 24
	poolHdr       = trace.LineSize
)

// NewPool carves a pool of capacity blocks of blockSize bytes (rounded up
// to 8-byte multiples, minimum one word) out of the heap.
func NewPool(h *Heap, blockSize uint64, capacity int) (*Pool, error) {
	if blockSize < 8 {
		blockSize = 8
	}
	if r := blockSize % 8; r != 0 {
		blockSize += 8 - r
	}
	base, err := h.AllocLines(poolHdr + blockSize*uint64(capacity))
	if err != nil {
		return nil, fmt.Errorf("pmem: pool: %w", err)
	}
	arena := base + poolHdr
	h.WriteUint64(base+poolBlockOff, blockSize)
	h.WriteUint64(base+poolHeadOff, 0)
	h.WriteUint64(base+poolCursorOff, arena)
	h.WriteUint64(base+poolEndOff, arena+blockSize*uint64(capacity))
	h.Persist(base, poolHdr)
	return &Pool{heap: h, base: base}, nil
}

// OpenPool reattaches to a pool previously created at base (after a crash
// and heap recovery).
func OpenPool(h *Heap, base uint64) (*Pool, error) {
	p := &Pool{heap: h, base: base}
	if p.BlockSize() == 0 || p.BlockSize()%8 != 0 {
		return nil, fmt.Errorf("pmem: %d does not look like a pool", base)
	}
	return p, nil
}

// Base returns the pool's persistent address (store it in a root object to
// reattach after restart).
func (p *Pool) Base() uint64 { return p.base }

// BlockSize returns the block size in bytes.
func (p *Pool) BlockSize() uint64 { return p.heap.ReadUint64(p.base + poolBlockOff) }

// Alloc returns a free block, preferring the free list over fresh arena
// space. The returned block's contents are unspecified (callers initialize
// it before publishing, as with any allocator).
func (p *Pool) Alloc() (uint64, error) {
	if head := p.heap.ReadUint64(p.base + poolHeadOff); head != 0 {
		next := p.heap.ReadUint64(head)
		p.heap.WriteUint64(p.base+poolHeadOff, next)
		p.heap.Persist(p.base+poolHeadOff, 8)
		return head, nil
	}
	cur := p.heap.ReadUint64(p.base + poolCursorOff)
	end := p.heap.ReadUint64(p.base + poolEndOff)
	if cur+p.BlockSize() > end {
		return 0, fmt.Errorf("pmem: %w (%d-byte blocks)", ErrPoolExhausted, p.BlockSize())
	}
	p.heap.WriteUint64(p.base+poolCursorOff, cur+p.BlockSize())
	p.heap.Persist(p.base+poolCursorOff, 8)
	return cur, nil
}

// Free returns a block to the pool. The block must have come from Alloc on
// this pool; freeing foreign or already-free blocks corrupts the list (as
// with any allocator).
func (p *Pool) Free(block uint64) {
	head := p.heap.ReadUint64(p.base + poolHeadOff)
	// Link first, persist, then swing the head: a crash between the two
	// leaks the block but never breaks the list.
	p.heap.WriteUint64(block, head)
	p.heap.Persist(block, 8)
	p.heap.WriteUint64(p.base+poolHeadOff, block)
	p.heap.Persist(p.base+poolHeadOff, 8)
}

// Reset discards every allocation at once: the free list empties and the
// arena cursor rewinds to the start, as if the pool were fresh. Checkpointed
// recovery uses it to rebuild a store's pages from scratch without leaking
// the crashed tree's blocks. Reset is not atomic across its two words, but
// any crash ordering is safe: head is cleared first, so the worst a crash
// can leave is an empty free list with the old cursor — a valid (leaky)
// pool — and the rebuild that follows a crash re-runs Reset anyway.
func (p *Pool) Reset() {
	arena := p.base + poolHdr
	p.heap.WriteUint64(p.base+poolHeadOff, 0)
	p.heap.Persist(p.base+poolHeadOff, 8)
	p.heap.WriteUint64(p.base+poolCursorOff, arena)
	p.heap.Persist(p.base+poolCursorOff, 8)
}

// Rebuild replaces the free list with every block below the arena cursor
// that live reports false for — the recovery-time sweep that returns the
// blocks crashes leak (see mdb.DB.ReclaimLeaked). The head is cleared
// first, so a crash midway leaves an empty free list, a valid leaky pool,
// never a list through half-rewritten links; running the sweep again
// finishes the job. The new list is in ascending address order, so the
// result depends only on the pool and live. It returns the list's length.
func (p *Pool) Rebuild(live func(block uint64) bool) int {
	p.heap.WriteUint64(p.base+poolHeadOff, 0)
	p.heap.Persist(p.base+poolHeadOff, 8)
	arena, bs := p.base+poolHdr, p.BlockSize()
	head, n := uint64(0), 0
	for b := p.heap.ReadUint64(p.base + poolCursorOff); b > arena; {
		b -= bs
		if live(b) {
			continue
		}
		p.heap.WriteUint64(b, head)
		p.heap.Persist(b, 8)
		head = b
		n++
	}
	p.heap.WriteUint64(p.base+poolHeadOff, head)
	p.heap.Persist(p.base+poolHeadOff, 8)
	return n
}

// FreeCount walks the free list (diagnostics; O(free blocks)).
func (p *Pool) FreeCount() int {
	n := 0
	for b := p.heap.ReadUint64(p.base + poolHeadOff); b != 0; b = p.heap.ReadUint64(b) {
		n++
	}
	return n
}

// Capacity returns the total number of blocks the pool can hold.
func (p *Pool) Capacity() int {
	arena := p.base + poolHdr
	end := p.heap.ReadUint64(p.base + poolEndOff)
	return int((end - arena) / p.BlockSize())
}

// Remaining returns how many blocks are still allocatable (fresh arena
// plus free list).
func (p *Pool) Remaining() int {
	cur := p.heap.ReadUint64(p.base + poolCursorOff)
	end := p.heap.ReadUint64(p.base + poolEndOff)
	return int((end-cur)/p.BlockSize()) + p.FreeCount()
}
