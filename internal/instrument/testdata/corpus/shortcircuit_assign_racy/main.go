// spinstrument:expect racy
//
// The right operand of && and || outside a condition: the two
// assignments read a[i] while the spawned goroutine writes it. The
// rewriter used to announce only the left operands' reads, and this
// program passed as clean.
package main

import (
	"fmt"
	"sync"
)

func main() {
	a := []int{3, 1, 4}
	n, i := len(a), 1
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		a[1] = 0
	}()
	ok := i < n && a[i] > 0
	bad := i >= n || a[i] < 0
	wg.Wait()
	fmt.Println("ok:", ok, "bad:", bad)
}
