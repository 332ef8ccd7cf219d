package core

import (
	"context"
	"sync/atomic"
)

// HeapCounter is a monotonic counter whose waiter nodes are organized as a
// binary min-heap keyed on level, instead of the sorted linked list of the
// reference design. Check inserts in O(log L) rather than O(L) (L = number
// of distinct waited-on levels); Increment pops satisfied levels in
// O(k log L) for k satisfied levels. It is an ablation of the section 7
// design for the E11 experiment; the blocking machinery is the shared
// waitlist engine, so popped levels are woken after the engine mutex is
// released.
//
// The value doubles as the watermark fast path shared by every impl:
// Check/CheckContext on an already-satisfied level return after one
// atomic load, no mutex (safe because the value is monotonic — a stale
// read only under-estimates).
//
// The zero value is a valid counter with value zero.
type HeapCounter struct {
	wl    waitlist
	value atomic.Uint64 // mutated only under wl.mu; read lock-free as the watermark
	index heapIndex
	// fastChecks counts satisfied lock-free checks; folded into
	// Stats.ImmediateChecks alongside the engine's locked tally.
	fastChecks stripedUint64
}

// heapIndex organizes live waitNodes as a min-heap by level plus a map
// for waiter coalescing. Satisfied nodes are popped eagerly by
// Increment, so it never holds set nodes.
type heapIndex struct {
	heap    []*waitNode
	byLevel map[uint64]*waitNode // level -> live node, for coalescing waiters
}

func (h *heapIndex) acquire(w *waitlist, level uint64) (*waitNode, bool) {
	if n := h.byLevel[level]; n != nil {
		return n, false
	}
	if h.byLevel == nil {
		h.byLevel = make(map[uint64]*waitNode)
	}
	n := newWaitNode(w, level)
	h.byLevel[level] = n
	h.push(n)
	return n, true
}

// drop removes a node whose last waiter cancelled before satisfaction,
// so an abandoned level does not accumulate. The byLevel entry is
// removed only if it still points at n (a fresh node for the same level
// may have been created since).
func (h *heapIndex) drop(n *waitNode) {
	h.removeNode(n)
	if h.byLevel[n.level] == n {
		delete(h.byLevel, n.level)
	}
}

func (h *heapIndex) push(n *waitNode) {
	h.heap = append(h.heap, n)
	h.siftUp(len(h.heap) - 1)
}

func (h *heapIndex) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h.heap[parent].level <= h.heap[i].level {
			break
		}
		h.heap[parent], h.heap[i] = h.heap[i], h.heap[parent]
		i = parent
	}
}

func (h *heapIndex) popMin() *waitNode {
	n := h.heap[0]
	last := len(h.heap) - 1
	h.heap[0] = h.heap[last]
	h.heap[last] = nil
	h.heap = h.heap[:last]
	h.siftDown(0)
	return n
}

func (h *heapIndex) siftDown(i int) {
	for {
		l, r, min := 2*i+1, 2*i+2, i
		if l < len(h.heap) && h.heap[l].level < h.heap[min].level {
			min = l
		}
		if r < len(h.heap) && h.heap[r].level < h.heap[min].level {
			min = r
		}
		if min == i {
			return
		}
		h.heap[i], h.heap[min] = h.heap[min], h.heap[i]
		i = min
	}
}

// removeNode deletes n from an arbitrary heap position (cancellation path).
func (h *heapIndex) removeNode(n *waitNode) {
	for i, hn := range h.heap {
		if hn == n {
			last := len(h.heap) - 1
			h.heap[i] = h.heap[last]
			h.heap[last] = nil
			h.heap = h.heap[:last]
			if i < last {
				// The swapped-in element may belong above or below i.
				if i > 0 && h.heap[i].level < h.heap[(i-1)/2].level {
					h.siftUp(i)
				} else {
					h.siftDown(i)
				}
			}
			return
		}
	}
}

var _ levelIndex = (*heapIndex)(nil)

// NewHeap returns a HeapCounter with value zero.
func NewHeap() *HeapCounter { return new(HeapCounter) }

// Increment implements Interface. Increment(0) is a no-op and returns
// before touching the lock.
func (c *HeapCounter) Increment(amount uint64) {
	if amount == 0 {
		return
	}
	c.wl.lock()
	v := checkedAdd(c.value.Load(), amount)
	// Publish the watermark before any wake so a fast-path reader that
	// raced past the mutex observes the new value no later than woken
	// waiters do.
	c.value.Store(v)
	c.wl.stats.increments++
	// Chain the popped nodes through their (otherwise unused) next
	// pointers, ascending, so the out-of-lock wake needs no allocation.
	var head, tail *waitNode
	for len(c.index.heap) > 0 && c.index.heap[0].level <= v {
		n := c.index.popMin()
		delete(c.index.byLevel, n.level)
		c.wl.satisfyLocked(n)
		if tail == nil {
			head = n
		} else {
			tail.next = n
		}
		tail = n
	}
	c.wl.unlock()
	c.wl.emit(EventIncrement, amount)
	if head != nil {
		c.wl.wakeBatch(head)
	}
}

// Check implements Interface: CheckContext with a context that is never
// cancelled, repeating its two steps so the satisfied case pays no
// extra frame.
func (c *HeapCounter) Check(level uint64) {
	if !c.satisfied(level) {
		await(context.Background(), c, level)
	}
}

// CheckContext implements Interface. The satisfied case is one atomic
// watermark load — no mutex — consulted before the context so an
// already-satisfied level wins over an already-cancelled context;
// cancellation is a select on the node's ready channel, with no watcher
// goroutine, and the last cancelled waiter removes the level from the
// heap.
func (c *HeapCounter) CheckContext(ctx context.Context, level uint64) error {
	if c.satisfied(level) {
		return nil
	}
	return await(ctx, c, level)
}

// satisfied is the lock-free watermark look (enroller).
func (c *HeapCounter) satisfied(level uint64) bool {
	if level <= c.value.Load() {
		c.fastChecks.Add(1)
		return true
	}
	return false
}

// enroll implements enroller: the engine's locked re-check and join on
// the heap.
func (c *HeapCounter) enroll(level uint64, suspend bool) *waitNode {
	return c.wl.enroll(&c.index, &c.value, level, suspend)
}

// Reset implements Interface. Stats are cumulative and survive the
// reset.
func (c *HeapCounter) Reset() {
	c.wl.lock()
	defer c.wl.unlock()
	if c.wl.busyLocked() || len(c.index.heap) != 0 {
		panic("core: Reset called with goroutines waiting on the counter")
	}
	c.value.Store(0)
}

// Value implements Interface. Lock-free: the watermark is the value.
func (c *HeapCounter) Value() uint64 {
	return c.value.Load()
}

// PeakLevels reports the maximum number of distinct levels simultaneously
// waited on over the counter's lifetime (Stats().PeakLevels, kept as a
// named accessor for the E10 experiment).
func (c *HeapCounter) PeakLevels() int {
	c.wl.lock()
	defer c.wl.unlock()
	return c.wl.stats.peakLevels
}

// Stats implements StatsProvider with the engine's collector, folding in
// the lock-free fast-path checks.
func (c *HeapCounter) Stats() Stats {
	s := c.wl.readStats()
	s.ImmediateChecks += c.fastChecks.Load()
	return s
}

// LockAcquires implements LockCounter.
func (c *HeapCounter) LockAcquires() uint64 {
	return c.wl.lockAcquires.Load()
}

// SetProbe implements ProbeSetter.
func (c *HeapCounter) SetProbe(f func(Event)) { c.wl.SetProbe(f) }
