package gcwork

import (
	"sync"
	"sync/atomic"

	"lxr/internal/mem"
)

// segSize is the segment length of address buffers.
const segSize = 1024

// AddrBuffer is an append-only buffer of addresses stored in fixed-size
// segments. Mutators fill private buffers between collections; at a
// pause the plan takes all segments at once. The zero value is ready to
// use.
type AddrBuffer struct {
	segs [][]mem.Address
	cur  []mem.Address
	n    int
}

// Push appends an address.
func (b *AddrBuffer) Push(a mem.Address) {
	if len(b.cur) == cap(b.cur) {
		if b.cur != nil {
			b.segs = append(b.segs, b.cur)
		}
		b.cur = make([]mem.Address, 0, segSize)
	}
	b.cur = append(b.cur, a)
	b.n++
}

// Len returns the number of buffered addresses.
func (b *AddrBuffer) Len() int { return b.n }

// Take removes and returns all buffered addresses as a flat slice.
func (b *AddrBuffer) Take() []mem.Address {
	out := make([]mem.Address, 0, b.n)
	for _, s := range b.segs {
		out = append(out, s...)
	}
	out = append(out, b.cur...)
	b.segs, b.cur, b.n = nil, nil, 0
	return out
}

// TakeInto appends all buffered addresses to dst and clears the buffer.
func (b *AddrBuffer) TakeInto(dst []mem.Address) []mem.Address {
	for _, s := range b.segs {
		dst = append(dst, s...)
	}
	dst = append(dst, b.cur...)
	b.segs, b.cur, b.n = nil, nil, 0
	return dst
}

// TakeSegs removes and returns the buffered addresses as their
// underlying segments, without flattening: the segments can be handed
// straight to Pool.DrainSegs as seed work.
func (b *AddrBuffer) TakeSegs() [][]mem.Address {
	out := b.segs
	if len(b.cur) > 0 {
		out = append(out, b.cur)
	}
	b.segs, b.cur, b.n = nil, nil, 0
	return out
}

// SharedAddrQueue is a queue of address segments shared between mutator
// flushes and collector threads, under one mutex. Appended slices are
// taken over by the queue as whole segments (no copy); the caller must
// not append to a slice after handing it over. Ordering is not
// preserved — all consumers (tracer inbox, RC queues) are order-
// insensitive. The count n is kept outside the lock, so Len and the
// empty check take none.
type SharedAddrQueue struct {
	mu   sync.Mutex
	segs [][]mem.Address
	cur  []mem.Address
	n    atomic.Int64
}

// Append hands a slice of addresses to the queue as one segment.
func (q *SharedAddrQueue) Append(as []mem.Address) {
	if len(as) == 0 {
		return
	}
	q.n.Add(int64(len(as)))
	q.mu.Lock()
	q.segs = append(q.segs, as)
	q.mu.Unlock()
}

// Push adds one address.
func (q *SharedAddrQueue) Push(a mem.Address) {
	q.n.Add(1)
	q.mu.Lock()
	if len(q.cur) == cap(q.cur) {
		if q.cur != nil {
			q.segs = append(q.segs, q.cur)
		}
		q.cur = make([]mem.Address, 0, segSize)
	}
	q.cur = append(q.cur, a)
	q.mu.Unlock()
}

// Take removes and returns everything queued as one flat slice.
func (q *SharedAddrQueue) Take() []mem.Address {
	var out []mem.Address
	for _, s := range q.TakeSegs() {
		out = append(out, s...)
	}
	return out
}

// PopSeg removes and returns one queued segment (nil when the queue is
// empty). Consumers that process work in bounded steps — the SATB
// tracer's owner-thread Step — use it to pull one segment at a time
// instead of flattening the whole queue with Take.
func (q *SharedAddrQueue) PopSeg() []mem.Address {
	if q.n.Load() == 0 {
		return nil
	}
	q.mu.Lock()
	var s []mem.Address
	if n := len(q.segs); n > 0 {
		s = q.segs[n-1]
		q.segs[n-1] = nil
		q.segs = q.segs[:n-1]
	} else {
		s, q.cur = q.cur, nil
	}
	q.mu.Unlock()
	q.n.Add(-int64(len(s)))
	return s
}

// TakeSegs removes and returns everything queued, segment-granular.
func (q *SharedAddrQueue) TakeSegs() [][]mem.Address {
	q.mu.Lock()
	out, cur := q.segs, q.cur
	q.segs, q.cur = nil, nil
	q.mu.Unlock()
	if len(cur) > 0 {
		out = append(out, cur)
	}
	taken := 0
	for _, s := range out {
		taken += len(s)
	}
	if taken > 0 {
		q.n.Add(-int64(taken))
	}
	return out
}

// Len returns the queued count with one atomic load.
func (q *SharedAddrQueue) Len() int { return int(q.n.Load()) }
