// spinstrument:expect clean
//
// Parallel mergesort: the paper's own divide-and-conquer shape. Each
// split sorts its left half on a new goroutine and joins it with a
// WaitGroup before merging, so every element access is ordered by a
// fork or a join and the program is race-free.
//
// Why it is in the benchmark: it is the fork/join-dense, access-dense
// case. It loads spsync.Go and WaitGroup (fork, join and the Done/Wait
// edges on sp-hybrid's order-maintenance tier) and, above all, the
// per-access path: every slice element read or written is announced
// through spsync.Read/Write, which pays goroutine identity and address
// interning before the lock-aware shadow-memory update.
//
// Usage: mergesort SEED
package main

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
)

const (
	size   = 512
	cutoff = 32
)

func main() {
	seed, err := strconv.ParseInt(os.Args[1], 10, 64)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mergesort: bad seed:", err)
		os.Exit(2)
	}
	rng := rand.New(rand.NewSource(seed))
	data := make([]int, size)
	for i := range data {
		data[i] = rng.Intn(1 << 20)
	}
	tmp := make([]int, size)
	sortPar(data, tmp)
	sum := 0
	for i := 1; i < size; i++ {
		if data[i-1] > data[i] {
			fmt.Println("not sorted at", i)
			os.Exit(1)
		}
		sum += data[i] % 1000
	}
	fmt.Println("sorted", size, "checksum", sum, "min", data[0], "max", data[size-1])
}

// sortPar sorts a, using tmp (same length) as merge scratch.
func sortPar(a, tmp []int) {
	if len(a) <= cutoff {
		insertion(a)
		return
	}
	mid := len(a) / 2
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sortPar(a[:mid], tmp[:mid])
	}()
	sortPar(a[mid:], tmp[mid:])
	wg.Wait()
	merge(a, tmp, mid)
}

// insertion sorts a short run in place. The inner loop keeps element
// accesses out of its condition: the instrumenter announces loop
// condition accesses again at the end of the body, after j--, where
// a[j-1] would index below the slice.
func insertion(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0; j-- {
			if a[j-1] <= a[j] {
				break
			}
			a[j-1], a[j] = a[j], a[j-1]
		}
	}
}

// merge merges the sorted halves a[:mid] and a[mid:] through tmp.
func merge(a, tmp []int, mid int) {
	i, j, k := 0, mid, 0
	for i < mid && j < len(a) {
		if a[i] <= a[j] {
			tmp[k] = a[i]
			i++
		} else {
			tmp[k] = a[j]
			j++
		}
		k++
	}
	for i < mid {
		tmp[k] = a[i]
		i++
		k++
	}
	for j < len(a) {
		tmp[k] = a[j]
		j++
		k++
	}
	copy(a, tmp)
}
