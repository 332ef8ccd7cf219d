package core

// HeapCounter is a monotonic counter whose waiter nodes are organized as a
// binary min-heap keyed on level, instead of the sorted linked list of the
// reference design. Check inserts in O(log L) rather than O(L) (L = number
// of distinct waited-on levels); Increment pops satisfied levels in
// O(k log L) for k satisfied levels. It is an ablation of the section 7
// design for the E11 experiment; the blocking machinery is the shared
// waitlist engine, so popped levels are woken after the engine mutex is
// released.
//
// The value is the watermark shared by every impl: Check/CheckContext on
// an already-satisfied level return after one atomic load, no mutex.
//
// The zero value is a valid counter with value zero.
type HeapCounter struct {
	indexed[heapIndex, *heapIndex]
}

// NewHeap returns a HeapCounter with value zero.
func NewHeap() *HeapCounter { return new(HeapCounter) }

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

// pop pops the satisfied levels in O(k log L), chaining them through
// their (otherwise unused) next pointers, ascending, so the out-of-lock
// wake needs no allocation.
func (h *heapIndex) pop(value uint64) (head *waitNode) {
	var tail *waitNode
	for len(h.heap) > 0 && h.heap[0].level <= value {
		n := h.heap[0]
		last := len(h.heap) - 1
		h.heap[0] = h.heap[last]
		h.heap[last] = nil
		h.heap = h.heap[:last]
		h.siftDown(0)
		delete(h.byLevel, n.level)
		if tail == nil {
			head = n
		} else {
			tail.next = n
		}
		tail = n
	}
	return head
}

func (h *heapIndex) empty() bool { return len(h.heap) == 0 }

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
