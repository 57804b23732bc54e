package spsync

import "sync"

// table is a map from uintptr keys, split over shards so that
// goroutines working on different keys rarely wait on one lock. It
// backs both registries: goroutine key → *gstate and raw address →
// dense location id.
type table[V any] struct {
	shards [64]tableShard[V]
}

type tableShard[V any] struct {
	mu sync.Mutex
	m  map[uintptr]V
}

// shard picks k's shard. Heap objects of one size class lie a fixed
// stride apart, so their low bits repeat; the xorshift folds the higher
// bits in before the modulus.
func (t *table[V]) shard(k uintptr) *tableShard[V] {
	h := uint64(k)
	h ^= h >> 6
	h ^= h >> 12
	return &t.shards[h%uint64(len(t.shards))]
}

// get returns k's value, or the zero value if k is absent.
func (t *table[V]) get(k uintptr) V {
	sh := t.shard(k)
	sh.mu.Lock()
	v := sh.m[k]
	sh.mu.Unlock()
	return v
}

// put maps k to v.
func (t *table[V]) put(k uintptr, v V) {
	sh := t.shard(k)
	sh.mu.Lock()
	if sh.m == nil {
		sh.m = map[uintptr]V{}
	}
	sh.m[k] = v
	sh.mu.Unlock()
}

// del removes k.
func (t *table[V]) del(k uintptr) {
	sh := t.shard(k)
	sh.mu.Lock()
	delete(sh.m, k)
	sh.mu.Unlock()
}

// getOrPut returns k's value, first mapping k to mk() if k is absent.
// mk runs under k's shard lock, so it runs once per key.
func (t *table[V]) getOrPut(k uintptr, mk func() V) V {
	sh := t.shard(k)
	sh.mu.Lock()
	v, ok := sh.m[k]
	if !ok {
		if sh.m == nil {
			sh.m = map[uintptr]V{}
		}
		v = mk()
		sh.m[k] = v
	}
	sh.mu.Unlock()
	return v
}
