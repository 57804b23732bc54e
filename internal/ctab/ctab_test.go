package ctab

import (
	"runtime"
	"sync"
	"testing"
)

func TestPutGetDense(t *testing.T) {
	var tab Table[int]
	const n = 3*ChunkSize + 17
	for i := int64(0); i < n; i++ {
		*tab.Slot(i) = int(i * 3)
	}
	for i := int64(0); i < n; i++ {
		got := tab.At(i)
		if got == nil || *got != int(i*3) {
			t.Fatalf("At(%d) = %v, want %d", i, got, i*3)
		}
	}
	if tab.At(-1) != nil || tab.At(1<<40) != nil {
		t.Fatal("At outside every chunk must return nil")
	}
	// The last chunk exists, so its unfilled slots read as zero values.
	if got := tab.At(n); got == nil || *got != 0 {
		t.Fatalf("At(%d) in an existing chunk = %v, want a zero slot", n, got)
	}
}

func TestZeroValueEmpty(t *testing.T) {
	var tab Table[string]
	if tab.At(0) != nil {
		t.Fatal("zero table must have no chunk")
	}
}

// TestOverwriteAndErase overwrites one slot in place and erases it by
// storing the zero value: At reads whatever the slot holds.
func TestOverwriteAndErase(t *testing.T) {
	var tab Table[int]
	*tab.Slot(5) = 1
	*tab.Slot(5) = 2
	if got := tab.At(5); got == nil || *got != 2 {
		t.Fatalf("overwrite lost: %v", got)
	}
	*tab.Slot(5) = 0
	if got := tab.At(5); got == nil || *got != 0 {
		t.Fatalf("erase failed: %v", got)
	}
}

// TestChunksDouble pins the chunk sizes: the first holds 16 slots and
// each next one twice as many up to ChunkSize, so a table of a few
// entries stays small, and every slot up to n is reachable.
func TestChunksDouble(t *testing.T) {
	var tab Table[int64]
	const n = 4*ChunkSize + 5
	for i := int64(0); i < n; i++ {
		*tab.Slot(i) = i
	}
	want := []int{16, 16, 32, 64, 128, ChunkSize, ChunkSize, ChunkSize, ChunkSize}
	sp := *tab.spine.Load()
	for c, size := range want {
		ch := sp[c].Load()
		if ch == nil || len(*ch) != size {
			t.Fatalf("chunk %d: %v, want %d slots", c, ch, size)
		}
	}
	for i := int64(0); i < n; i++ {
		if got := tab.At(i); got == nil || *got != i {
			t.Fatalf("At(%d) = %v, want %d", i, got, i)
		}
	}
}

// TestSlotStable pins that a slot never moves: a pointer taken before
// the spine grows and more chunks appear still reaches the slot At
// returns afterwards.
func TestSlotStable(t *testing.T) {
	var tab Table[int]
	p := tab.Slot(5)
	*p = 1
	for c := int64(1); c < 64; c++ {
		*tab.Slot(c * ChunkSize) = int(c)
	}
	*p = 2
	if got := tab.At(5); got != p || *got != 2 {
		t.Fatalf("slot 5 moved: At = %p (%v), taken %p", got, got, p)
	}
}

// TestConcurrentPutGet hammers the table from many goroutines filling
// disjoint dense ranges while they read back what they filled, the
// access pattern of Monitor thread registration. Run under -race this
// is the table's publication-safety proof.
func TestConcurrentPutGet(t *testing.T) {
	var tab Table[int64]
	workers := 4 * runtime.NumCPU()
	const per = 2 * ChunkSize
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := int64(w * per)
			for i := int64(0); i < per; i++ {
				*tab.Slot(base + i) = base + i
				// Read back something already filled by this worker.
				if got := tab.At(base + i/2); got == nil || *got != base+i/2 {
					t.Errorf("worker %d: At(%d) = %v", w, base+i/2, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for i := int64(0); i < int64(workers*per); i++ {
		if got := tab.At(i); got == nil || *got != i {
			t.Fatalf("At(%d) = %v after concurrent fill", i, got)
		}
	}
}

// TestSpineGrowthKeepsConcurrentChunks grows the spine from one
// goroutine while others create chunks inside it, then checks that
// every slot written is still reachable with its value. A growth that
// copied the spine outside the table's mutex would drop a chunk created
// between its copy and its publication.
func TestSpineGrowthKeepsConcurrentChunks(t *testing.T) {
	for round := 0; round < 20; round++ {
		var tab Table[int64]
		const chunks = 64
		workers := max(2, runtime.NumCPU())
		var wg sync.WaitGroup
		start := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			// One slot in chunks far beyond the workers' forces a spine
			// growth at every doubling while they create chunks.
			for c := int64(chunks); c < 64*chunks; c *= 2 {
				*tab.Slot(c*ChunkSize + 1) = -c
				runtime.Gosched()
			}
		}()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				for c := int64(w); c < chunks; c += int64(workers) {
					for i := c * ChunkSize; i < (c+1)*ChunkSize; i += ChunkSize / 8 {
						*tab.Slot(i) = i + 1
					}
				}
			}(w)
		}
		close(start)
		wg.Wait()
		for c := int64(0); c < chunks; c++ {
			for i := c * ChunkSize; i < (c+1)*ChunkSize; i += ChunkSize / 8 {
				if got := tab.At(i); got == nil || *got != i+1 {
					t.Fatalf("round %d: slot %d does not hold %d after concurrent growth", round, i, i+1)
				}
			}
		}
		for c := int64(chunks); c < 64*chunks; c *= 2 {
			if got := tab.At(c*ChunkSize + 1); got == nil || *got != -c {
				t.Fatalf("round %d: the grower's slot in chunk %d does not hold %d", round, c, -c)
			}
		}
	}
}
