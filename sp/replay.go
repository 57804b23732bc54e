package sp

import (
	"fmt"
	"sync"

	"repro/internal/spt"
)

// This file rebuilds the tree-replay path as an adapter over the event
// API: an SP parse tree (package spt) is translated into the fork, join,
// access, and lock events a live program would emit, so the detectors,
// benchmarks, and oracle-equivalence tests drive exactly the same
// Monitor surface as live code.
//
// The translation follows the tree's structure: an S-node replays its
// left subtree then its right on the same event thread (a maximal serial
// block may span several parse-tree leaves); a P-node forks, replays the
// branches, and joins the branch terminals; a leaf replays its synthetic
// steps. The serial Replay emits events in the depth-first English
// order, which is the order the serial backends require.

// ReplayIDs maps parse-tree node IDs to the event thread that executed
// them (NoThread for internal nodes). Consecutive leaves composed in
// series share one event thread. A leaf containing Put steps maps to
// its terminal thread — the continuation the last Put created — since
// that is the thread later serial composition and joins see.
type ReplayIDs []ThreadID

// Leaf returns the event thread that executed leaf n.
func (ids ReplayIDs) Leaf(n *spt.Node) ThreadID { return ids[n.ID] }

// Replay drives monitor m through the serial left-to-right unfolding of
// tree t, starting from m.Main(), and returns the leaf-to-thread map.
// The monitor must be fresh (its main thread still live); locks held at
// the end of a leaf are released implicitly, as in the lock-aware
// detector's model.
func Replay(t *spt.Tree, m *Monitor) ReplayIDs {
	return ReplayObserved(t, m, nil)
}

// ReplayObserved is Replay with a callback invoked after each leaf's
// steps have been replayed (while the leaf's thread is still current),
// e.g. to issue SP queries mid-run.
func ReplayObserved(t *spt.Tree, m *Monitor, obs func(leaf *spt.Node, id ThreadID)) ReplayIDs {
	return replayTree(t, m, 1, obs)
}

// ReplayParallel replays tree t with real concurrency: each P-node's
// spawned branch runs on its own goroutine when one of the (workers-1)
// extra slots is free, and inline otherwise. Events therefore reach the
// monitor in an arbitrary creation-respecting order, so the backend must
// have AnyOrder capability ("sp-order", which the Monitor serializes, or
// the internally synchronized "sp-hybrid"). On one worker the walk is
// Replay's serial one, where a Get before its Put panics.
func ReplayParallel(t *spt.Tree, m *Monitor, workers int) ReplayIDs {
	if !m.Backend().AnyOrder {
		panic(fmt.Sprintf("sp: ReplayParallel requires an any-order backend (%s requires the serial event order)", m.Backend().Name))
	}
	return replayTree(t, m, workers, nil)
}

// replayTree is the one walker behind the replays. With workers > 1 a
// P-node's spawned branch runs on its own goroutine while one of the
// workers-1 extra slots is free, and a Get waits for its Put; otherwise
// the walk is serial, with no channel operation, and a Get before its
// Put panics. obs, if not nil, sees each leaf after its steps.
func replayTree(t *spt.Tree, m *Monitor, workers int, obs func(leaf *spt.Node, id ThreadID)) ReplayIDs {
	ids := newReplayIDs(t)
	fut := &futures{wait: workers > 1, m: map[int]*futureCell{}}
	var slots chan struct{}
	if workers > 1 {
		slots = make(chan struct{}, workers-1)
	}
	var rec func(n *spt.Node, cur ThreadID) ThreadID
	rec = func(n *spt.Node, cur ThreadID) ThreadID {
		switch n.Kind() {
		case spt.Leaf:
			cur = replayLeaf(m, cur, n, fut)
			ids[n.ID] = cur
			if obs != nil {
				obs(n, cur)
			}
			return cur
		case spt.SNode:
			return rec(n.Right(), rec(n.Left(), cur))
		}
		l, r := m.Fork(cur)
		if slots != nil {
			select {
			case slots <- struct{}{}:
				ch := make(chan ThreadID, 1)
				go func() {
					ch <- rec(n.Left(), l)
					<-slots
				}()
				b := rec(n.Right(), r)
				return m.Join(<-ch, b)
			default:
			}
		}
		a := rec(n.Left(), l)
		return m.Join(a, rec(n.Right(), r))
	}
	rec(t.Root(), m.Main())
	return ids
}

func newReplayIDs(t *spt.Tree) ReplayIDs {
	ids := make(ReplayIDs, t.Len())
	for i := range ids {
		ids[i] = NoThread
	}
	return ids
}

// futures is the replay-time store backing Put/Get steps: one
// single-assignment cell per future key, holding the put-token (the
// thread the Put retired). In parallel mode a Get blocks until the
// matching Put has executed — exactly what a real future or channel
// receive does — so the emitted event order stays creation-respecting.
// In serial mode the tree's English order must already sequence the Put
// first; a violation is a bug in the workload, reported by panic.
type futures struct {
	wait bool // block Gets until the Put (parallel replay)
	mu   sync.Mutex
	m    map[int]*futureCell
}

type futureCell struct {
	done chan struct{} // closed by the Put; nil in serial mode
	put  bool
	tok  ThreadID
}

// cell returns key's cell; the caller holds f.mu.
func (f *futures) cell(key int) *futureCell {
	c := f.m[key]
	if c == nil {
		c = &futureCell{}
		if f.wait {
			c.done = make(chan struct{})
		}
		f.m[key] = c
	}
	return c
}

func (f *futures) put(key int, tok ThreadID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	c := f.cell(key)
	if c.put {
		panic(fmt.Sprintf("sp: replay: future f%d put twice", key))
	}
	c.tok, c.put = tok, true
	if c.done != nil {
		close(c.done)
	}
}

func (f *futures) get(key int) ThreadID {
	f.mu.Lock()
	c := f.cell(key)
	put := c.put
	f.mu.Unlock()
	if !put {
		if c.done == nil {
			panic(fmt.Sprintf("sp: replay: get of future f%d before its put in serial order", key))
		}
		<-c.done
	}
	return c.tok
}

// replayLeaf emits leaf n's synthetic steps as events of thread cur,
// with the leaf attached as the access site so race reports can name the
// parse-tree thread, and returns the thread current when the leaf ends —
// each Put step retires the current thread and continues on the
// diamond's continuation. Locks the leaf still holds at its end are
// released implicitly (by balance) on the terminal thread; the Monitor
// transfers held locks across a Put, so a critical section may span one.
func replayLeaf(m *Monitor, cur ThreadID, n *spt.Node, fut *futures) ThreadID {
	th := m.Thread(cur) // one cached handle between thread switches
	th.Begin()
	var held map[int]int
	for _, st := range n.Steps {
		switch st.Op {
		case spt.Read:
			th.ReadAt(uint64(st.Loc), n)
		case spt.Write:
			th.WriteAt(uint64(st.Loc), n)
		case spt.Acquire:
			th.Acquire(st.Loc)
			if held == nil {
				held = map[int]int{}
			}
			held[st.Loc]++
		case spt.Release:
			th.Release(st.Loc)
			if held[st.Loc] > 0 {
				held[st.Loc]--
			}
		case spt.Put:
			tok := th.ID()
			th = th.Put()
			cur = th.ID()
			fut.put(st.Loc, tok)
		case spt.Get:
			th.Get(fut.get(st.Loc))
		}
	}
	for lock, n := range held {
		for ; n > 0; n-- {
			th.Release(lock)
		}
	}
	return cur
}
