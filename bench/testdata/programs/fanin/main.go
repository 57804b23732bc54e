// spinstrument:expect clean
//
// Channel fan-in: hundreds of goroutines each write one cell of a
// shared slice and then send its index on one unbuffered channel, and
// main reads the cell only after receiving the index. No mutex orders
// the cell accesses; only the channel does, so the program is clean
// exactly when the detector honours channel edges.
//
// Why it is in the benchmark: it is the edge-dense case. Every send and
// receive is a Put/Get pair on the monitor, and main observes one new
// token per receive, so it loads the token-set maintenance behind
// Monitor.Get (pruning of the observed tokens) far more than any other
// program, and barely touches the fork/join or lock paths.
//
// Usage: fanin SEED
package main

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
)

const workers = 210

func main() {
	seed, err := strconv.ParseInt(os.Args[1], 10, 64)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fanin: bad seed:", err)
		os.Exit(2)
	}
	rng := rand.New(rand.NewSource(seed))
	inputs := make([]int, workers)
	for i := range inputs {
		inputs[i] = rng.Intn(1 << 16)
	}
	cells := make([]int, workers)
	ready := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := inputs[i]
			cells[i] = v*v%9973 + i
			ready <- i
		}()
	}
	sum := 0
	for k := 0; k < workers; k++ {
		i := <-ready
		sum += cells[i]
	}
	wg.Wait()
	fmt.Println("workers", workers, "sum", sum)
}
