package broadcast

import (
	"sync"
	"testing"
	"testing/quick"

	"monotonic/internal/core"
	"monotonic/internal/sthreads"
)

// TestPerItemBroadcast is the paper's first listing: synchronization on
// every item, several readers, all seeing the exact sequence (E7
// correctness).
func TestPerItemBroadcast(t *testing.T) {
	const n = 500
	want := ExpectedChecksum(n)
	res := Run(Config{Items: n, WriterBlock: 1, ReaderBlocks: []int{1, 1, 1, 1}, NewCounter: core.ImplList.New})
	for r, sum := range res.ReaderSums {
		if sum != want {
			t.Errorf("reader %d checksum %x, want %x", r, sum, want)
		}
	}
}

// TestBlockedBroadcastMixedGranularity is the paper's second listing:
// writer and each reader choose their own block size, including sizes that
// do not divide the item count.
func TestBlockedBroadcastMixedGranularity(t *testing.T) {
	const n = 1000
	want := ExpectedChecksum(n)
	cfgs := []Config{
		{Items: n, WriterBlock: 7, ReaderBlocks: []int{1, 3, 64, 1000}, NewCounter: core.ImplList.New},
		{Items: n, WriterBlock: 1000, ReaderBlocks: []int{1, 999}, NewCounter: core.ImplList.New},
		{Items: n, WriterBlock: 1, ReaderBlocks: []int{128}, NewCounter: core.ImplList.New},
		{Items: n, WriterBlock: 13, ReaderBlocks: []int{17, 19, 23}, NewCounter: core.ImplList.New},
	}
	for _, cfg := range cfgs {
		res := Run(cfg)
		for r, sum := range res.ReaderSums {
			if sum != want {
				t.Errorf("writerBlock=%d readerBlock=%d: checksum %x, want %x",
					cfg.WriterBlock, cfg.ReaderBlocks[r], sum, want)
			}
		}
	}
}

// TestBroadcastSequentialEquivalence: the broadcast program is one of the
// two the paper singles out as sequentially equivalent (E9): running the
// writer to completion and then each reader gives the same checksums.
func TestBroadcastSequentialEquivalence(t *testing.T) {
	const n = 200
	for _, mode := range sthreads.Modes {
		res := Run(Config{Items: n, WriterBlock: 3, ReaderBlocks: []int{1, 5}, NewCounter: core.ImplList.New, Mode: mode})
		want := ExpectedChecksum(n)
		for r, sum := range res.ReaderSums {
			t.Logf("mode=%v reader=%d", mode, r)
			if sum != want {
				t.Errorf("mode %v reader %d checksum mismatch", mode, r)
			}
		}
	}
}

// TestBroadcastAllImpls: every counter implementation carries the pattern.
func TestBroadcastAllImpls(t *testing.T) {
	const n = 300
	want := ExpectedChecksum(n)
	for _, impl := range core.Registry() {
		res := Run(Config{Items: n, WriterBlock: 4, ReaderBlocks: []int{1, 9}, NewCounter: impl.New})
		for r, sum := range res.ReaderSums {
			if sum != want {
				t.Errorf("impl %s reader %d checksum mismatch", impl, r)
			}
		}
	}
}

// TestQuickBroadcastBlockSizes: property test over arbitrary block sizes.
func TestQuickBroadcastBlockSizes(t *testing.T) {
	f := func(n8, wb8 uint8, rbs []uint8) bool {
		n := int(n8%200) + 1
		wb := int(wb8)%n + 1
		if len(rbs) > 4 {
			rbs = rbs[:4]
		}
		if len(rbs) == 0 {
			rbs = []uint8{1}
		}
		blocks := make([]int, len(rbs))
		for i, b := range rbs {
			blocks[i] = int(b)%(n+4) + 1 // may exceed n: Check clamps to n
		}
		res := Run(Config{Items: n, WriterBlock: wb, ReaderBlocks: blocks, NewCounter: core.ImplList.New})
		want := ExpectedChecksum(n)
		for _, sum := range res.ReaderSums {
			if sum != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestZeroItems: an empty sequence deadlock-free for all participants.
func TestZeroItems(t *testing.T) {
	res := Run(Config{Items: 0, WriterBlock: 5, ReaderBlocks: []int{1, 2}, NewCounter: core.ImplList.New})
	for r, sum := range res.ReaderSums {
		if sum != 0 {
			t.Errorf("reader %d nonzero checksum on empty sequence", r)
		}
	}
}

// TestSingleCounterManyQueues demonstrates the section 5.3 point that one
// counter serves readers waiting at many distinct levels: with per-item
// readers at staggered positions the reference counter's peak level count
// exceeds one.
func TestSingleCounterManyQueues(t *testing.T) {
	res := Run(Config{
		Items:        400,
		WriterBlock:  1,
		ReaderBlocks: []int{1, 2, 3, 5, 8},
		NewCounter:   core.ImplList.New,
		WorkUnits:    50,
	})
	if res.Stats.Increments == 0 {
		t.Fatal("stats not collected")
	}
	want := ExpectedChecksum(400)
	for r, sum := range res.ReaderSums {
		if sum != want {
			t.Errorf("reader %d checksum mismatch", r)
		}
	}
}

// TestBoundedBufferDistributes: the semaphore buffer hands each item to
// exactly one consumer — the opposite of broadcast replication.
func TestBoundedBufferDistributes(t *testing.T) {
	const n = 500
	const consumers = 4
	b := NewBoundedBuffer[int](8)
	var mu sync.Mutex
	seen := make(map[int]int)
	var wg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				v := b.Get()
				if v < 0 {
					return
				}
				mu.Lock()
				seen[v]++
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < n; i++ {
		b.Put(i)
	}
	for c := 0; c < consumers; c++ {
		b.Put(-1) // poison pill per consumer
	}
	wg.Wait()
	if len(seen) != n {
		t.Fatalf("consumed %d distinct items, want %d", len(seen), n)
	}
	for v, count := range seen {
		if count != 1 {
			t.Fatalf("item %d consumed %d times", v, count)
		}
	}
}

// TestBoundedBufferBlocksWhenFull: a producer cannot overrun capacity.
func TestBoundedBufferBlocksWhenFull(t *testing.T) {
	b := NewBoundedBuffer[int](2)
	b.Put(1)
	b.Put(2)
	done := make(chan struct{})
	go func() {
		b.Put(3) // must block until a Get
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("Put succeeded on a full buffer")
	default:
	}
	if got := b.Get(); got != 1 {
		t.Fatalf("Get = %d, want 1 (FIFO)", got)
	}
	<-done
	if got := b.Get(); got != 2 {
		t.Fatalf("Get = %d, want 2", got)
	}
	if got := b.Get(); got != 3 {
		t.Fatalf("Get = %d, want 3", got)
	}
}

func TestNewBoundedBufferPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("capacity 0 did not panic")
		}
	}()
	NewBoundedBuffer[int](0)
}
