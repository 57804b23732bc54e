// spinstrument:expect clean
//
// A mutex-protected histogram: eight workers bucket their share of a
// seeded input, taking one shared mutex around every increment. All
// sharing is lock-protected, so a happens-before detector and the
// lock-aware monitor both call it clean.
//
// Why it is in the benchmark: it is the lock-dense case. Every
// increment is an Acquire, a read, a write and a Release on the
// monitor, which loads the spsync.Mutex wrappers, the lock-set
// bookkeeping behind Acquire/Release, and the ALL-SETS per-location
// histories the lock-aware detector keeps.
//
// Usage: lockcount SEED
package main

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
)

const (
	workers = 8
	items   = 6000
	buckets = 16
)

var (
	mu   sync.Mutex
	hist [buckets]int
)

func main() {
	seed, err := strconv.ParseInt(os.Args[1], 10, 64)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lockcount: bad seed:", err)
		os.Exit(2)
	}
	rng := rand.New(rand.NewSource(seed))
	data := make([]int, items)
	for i := range data {
		data[i] = rng.Intn(1 << 20)
	}
	var wg sync.WaitGroup
	chunk := items / workers
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := w * chunk; j < (w+1)*chunk; j++ {
				b := data[j] % buckets
				mu.Lock()
				hist[b]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	fmt.Println("items", items, "histogram", hist)
}
