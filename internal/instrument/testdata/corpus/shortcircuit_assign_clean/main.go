// spinstrument:expect clean
//
// The race-free twin of shortcircuit_assign_racy: i == n, so neither
// assignment evaluates a[i]. The announcement of a[i] must sit under
// the left operand's guard; unguarded, it would index out of range.
package main

import (
	"fmt"
	"sync"
)

func main() {
	a := []int{3, 1, 4}
	n, i := len(a), 3
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
