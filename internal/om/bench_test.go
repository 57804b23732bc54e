package om

import (
	"math/rand"
	"testing"
)

// Microbenchmarks of the order-maintenance structure underlying every
// SP-order-based backend: O(1) amortized insert, O(1) query, and the
// concurrent list's lock-free queries racing a rebalancing inserter.

func BenchmarkOM_InsertAppend(b *testing.B) {
	l := NewList()
	x := l.InsertFirst()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x = l.InsertAfter(x)
	}
}

func BenchmarkOM_InsertAdversarialSameSpot(b *testing.B) {
	l := NewList()
	x := l.InsertFirst()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.InsertAfter(x)
	}
	b.ReportMetric(float64(l.Relabels)/float64(b.N), "relabels/op")
}

func BenchmarkOM_Precedes(b *testing.B) {
	l := NewList()
	items := []*Item{l.InsertFirst()}
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 100000; i++ {
		items = append(items, l.InsertAfter(items[rng.Intn(len(items))]))
	}
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		x := items[rng.Intn(len(items))]
		y := items[rng.Intn(len(items))]
		if l.Precedes(x, y) {
			sink++
		}
	}
	_ = sink
}

// BenchmarkSection4_LockFreeQueries measures global-tier query
// throughput while an adversarial inserter forces rebalances
// (retries/op is bucket B5 of Theorem 10).
func BenchmarkSection4_LockFreeQueries(b *testing.B) {
	c := NewConcurrent()
	items := []*CItem{c.InsertFirst()}
	for i := 0; i < 1024; i++ {
		items = append(items, c.InsertAfter(items[len(items)-1]))
	}
	stop := make(chan struct{})
	go func() {
		hot := items[len(items)/2]
		for {
			select {
			case <-stop:
				return
			default:
				c.InsertAfter(hot)
			}
		}
	}()
	defer close(stop)
	rng := rand.New(rand.NewSource(5))
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		x := items[rng.Intn(len(items))]
		y := items[rng.Intn(len(items))]
		if c.Precedes(x, y) {
			sink++
		}
	}
	b.ReportMetric(float64(c.QueryRetries.Load())/float64(b.N), "retries/op")
	_ = sink
}
