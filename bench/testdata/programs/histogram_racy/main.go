// spinstrument:expect racy
//
// lockcount without the mutex: eight workers bump a shared histogram
// unprotected, so every pair of parallel increments of one bucket is a
// race. The printed output is built only from each worker's private
// counts, so it is identical in every run even though the shared
// histogram loses updates.
//
// Why it is in the benchmark: it is the race-dense case. Nearly every
// announced access reports a race, so the live race log and the
// ALL-SETS histories grow with the run; it loads race emission and the
// memory it retains, which the clean programs never touch.
//
// Usage: histogram_racy SEED
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
	items   = 3600
	buckets = 16
)

var hist [buckets]int

func main() {
	seed, err := strconv.ParseInt(os.Args[1], 10, 64)
	if err != nil {
		fmt.Fprintln(os.Stderr, "histogram_racy: bad seed:", err)
		os.Exit(2)
	}
	rng := rand.New(rand.NewSource(seed))
	data := make([]int, items)
	for i := range data {
		data[i] = rng.Intn(1 << 20)
	}
	private := make([][buckets]int, workers)
	var wg sync.WaitGroup
	chunk := items / workers
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local [buckets]int
			for j := w * chunk; j < (w+1)*chunk; j++ {
				b := data[j] % buckets
				hist[b]++
				local[b]++
			}
			private[w] = local
		}()
	}
	wg.Wait()
	var total [buckets]int
	for w := 0; w < workers; w++ {
		for b := 0; b < buckets; b++ {
			total[b] += private[w][b]
		}
	}
	fmt.Println("items", items, "histogram", total)
}
