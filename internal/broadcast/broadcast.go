// Package broadcast implements the paper's section 5.3 pattern:
// single-writer multiple-reader broadcast of a sequence of items through a
// shared array, synchronized by one monotonic counter. Reading does not
// consume: every reader independently sees the entire sequence, and the
// writer's Increment broadcasts availability to all readers at once.
//
// Both of the paper's granularities are provided: per-item
// synchronization, and blocked synchronization where the writer and each
// reader choose their own block size (they need not agree).
//
// For contrast, BoundedBuffer is the multiple-writers multiple-readers
// bounded buffer of Morenoff and McLean, solved classically with
// semaphores — the problem the paper says semaphores fit and counters do
// not (and vice versa): a buffer *distributes* items (each consumed once
// by somebody), a broadcast *replicates* them (each seen by everybody).
package broadcast

import (
	"monotonic/internal/core"
	"monotonic/internal/sthreads"
	"monotonic/internal/sync2"
	"monotonic/internal/workload"
)

// GenerateItem produces item i deterministically, so readers can verify
// integrity end-to-end.
func GenerateItem(i int) uint64 {
	return workload.NewRNG(uint64(i) + 1).Uint64()
}

// Checksum folds a sequence of items order-sensitively; readers that saw
// exactly items 0..n-1 in order produce the same value.
func Checksum(acc, item uint64) uint64 {
	return acc*1099511628211 + item
}

// ExpectedChecksum returns the checksum of the full n-item sequence.
func ExpectedChecksum(n int) uint64 {
	var acc uint64
	for i := 0; i < n; i++ {
		acc = Checksum(acc, GenerateItem(i))
	}
	return acc
}

// Config describes one broadcast run.
type Config struct {
	Items        int                   // sequence length
	WriterBlock  int                   // writer publishes in blocks of this size (1 = per-item)
	ReaderBlocks []int                 // one entry per reader: that reader's granularity
	NewCounter   func() core.Monotonic // makes the shared counter
	WorkUnits    int                   // synthetic per-item work in writer and readers
	Mode         sthreads.Mode
}

// Result reports what each participant observed.
type Result struct {
	ReaderSums []uint64 // order-sensitive checksum per reader
	Stats      core.Stats
}

// Run executes the broadcast: one writer goroutine, len(ReaderBlocks)
// reader goroutines, one shared counter. It is the paper's listing with
// both granularities; the writer uses WriterBlock and reader r uses
// ReaderBlocks[r].
func Run(cfg Config) Result {
	n := cfg.Items
	if cfg.WriterBlock < 1 {
		cfg.WriterBlock = 1
	}
	data := make([]uint64, n)
	dataCount := cfg.NewCounter()
	numReaders := len(cfg.ReaderBlocks)
	sums := make([]uint64, numReaders)

	writer := func() {
		bs := cfg.WriterBlock
		for i := 0; i < n; i++ {
			data[i] = GenerateItem(i)
			if cfg.WorkUnits > 0 {
				workload.Spin(cfg.WorkUnits)
			}
			if (i+1)%bs == 0 {
				dataCount.Increment(uint64(bs))
			}
		}
		dataCount.Increment(uint64(n % bs))
	}
	reader := func(r int) {
		bs := cfg.ReaderBlocks[r]
		if bs < 1 {
			bs = 1
		}
		var acc uint64
		for i := 0; i < n; i++ {
			if i%bs == 0 {
				level := i + bs
				if level > n {
					level = n
				}
				dataCount.Check(uint64(level))
			}
			acc = Checksum(acc, data[i])
			if cfg.WorkUnits > 0 {
				workload.Spin(cfg.WorkUnits)
			}
		}
		sums[r] = acc
	}

	fns := make([]func(), 0, numReaders+1)
	fns = append(fns, writer)
	for r := 0; r < numReaders; r++ {
		r := r
		fns = append(fns, func() { reader(r) })
	}
	sthreads.Block(cfg.Mode, fns...)

	res := Result{ReaderSums: sums}
	if p, ok := dataCount.(core.StatsProvider); ok {
		res.Stats = p.Stats()
	}
	return res
}

// BoundedBuffer is the classical semaphore-based multiple-writers
// multiple-readers bounded buffer: Put blocks while the buffer is full,
// Get blocks while it is empty, and each item is consumed by exactly one
// getter.
type BoundedBuffer[T any] struct {
	items []T
	head  int
	tail  int
	lock  *sync2.Semaphore // binary, guards indices
	empty *sync2.Semaphore
	full  *sync2.Semaphore
}

// NewBoundedBuffer returns a buffer with the given capacity.
func NewBoundedBuffer[T any](capacity int) *BoundedBuffer[T] {
	if capacity < 1 {
		panic("broadcast: NewBoundedBuffer requires capacity >= 1")
	}
	return &BoundedBuffer[T]{
		items: make([]T, capacity),
		lock:  sync2.NewSemaphore(1),
		empty: sync2.NewSemaphore(capacity),
		full:  sync2.NewSemaphore(0),
	}
}

// Put inserts an item, blocking while the buffer is full.
func (b *BoundedBuffer[T]) Put(item T) {
	b.empty.P()
	b.lock.P()
	b.items[b.tail] = item
	b.tail = (b.tail + 1) % len(b.items)
	b.lock.V()
	b.full.V()
}

// Get removes and returns an item, blocking while the buffer is empty.
func (b *BoundedBuffer[T]) Get() T {
	b.full.P()
	b.lock.P()
	item := b.items[b.head]
	b.head = (b.head + 1) % len(b.items)
	b.lock.V()
	b.empty.V()
	return item
}
