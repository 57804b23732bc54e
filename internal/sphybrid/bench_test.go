package sphybrid

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/spt"
	"repro/internal/workload"
)

// BenchmarkAblation_CASLocalTier compares SP-hybrid's analyzed rank-only
// local tier against the Section 7 conjecture (CAS path compression) on a
// find-heavy parallel detection workload.
func BenchmarkAblation_CASLocalTier(b *testing.B) {
	tr := workload.ReadOnlyAccesses(spt.FibTree(15, 1), 8, 128, rand.New(rand.NewSource(9)))
	for _, cas := range []bool{false, true} {
		name := "RankOnly"
		if cas {
			name = "CASCompression"
		}
		b.Run(name, func(b *testing.B) {
			var finds int64
			for i := 0; i < b.N; i++ {
				var h *SPHybrid
				h = NewWithOptions(tr, func(w int, u *spt.Node) {
					for range u.Steps {
						_ = h.FindTrace(u)
					}
					runtime.Gosched()
				}, Options{CASLocalTier: cas})
				stats := h.Run(4, int64(i))
				finds += stats.LocalFinds
			}
			b.ReportMetric(float64(finds)/float64(b.N), "finds/run")
		})
	}
}
