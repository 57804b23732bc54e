package race

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/sched"
	"repro/internal/shadow"
	"repro/internal/spt"
	"repro/sp"
)

// This file implements the ablation baseline of Section 3: the naive
// parallelization of SP-order in which every processor shares one
// SP-order structure and takes a single global lock around every
// OM-INSERT and OM-PRECEDES. It is correct but its apparent work can
// blow up to Θ(P·T1) under contention — the failure mode SP-hybrid's
// two-tier design exists to avoid. The Theorem 10 benchmark runs this
// detector head-to-head against DetectParallel.
//
// The shared structure is the registered sp-order backend itself, driven
// as a bare sp.Maintainer from the scheduler's hooks: a P-node's
// SpawnChild (or a Steal of its continuation, whichever runs first) forks
// the frame's current event thread into the spawned child (left) and the
// continuation (right), Steal hands the continuation thread to the
// thief's frame, and JoinComplete joins the two branch terminals into
// the post-join thread. Leaves in series within one frame share an event
// thread, exactly as sp.Replay emits them.

// naiveThread is an event thread with its sp-order query handle, bound
// where the thread is created, under mu. sp-order's handles answer the
// English and Hebrew orders exactly, which the two-reader shadow
// protocol needs to stay complete off the serial depth-first access
// order — exactly the regime this detector runs in.
type naiveThread struct {
	id  sp.ThreadID
	rel sp.CurrentRelative
}

// naiveFrame is a frame's client payload: the event thread its code is
// currently executing.
type naiveFrame struct{ cur naiveThread }

func frameCur(f *sched.Frame) *naiveFrame { return f.Data.(*naiveFrame) }

// naiveFork records, per P-node, its two branch threads and the spawned
// child's frame (whose final thread is the left terminal at the join).
type naiveFork struct {
	done        bool
	left, right naiveThread
	child       *sched.Frame
}

// naiveClient drives the work-stealing scheduler while maintaining the
// shared sp-order maintainer; mu guards the maintainer, the thread
// counter, and the fork records, and counts its acquisitions.
type naiveClient struct {
	mu    sync.Mutex
	m     sp.Maintainer
	next  sp.ThreadID
	forks []naiveFork // indexed by P-node ID
	locks int64

	sh    *shadow.Memory[sp.ThreadID]
	yield bool

	raceMu   sync.Mutex
	races    []Race
	accesses atomic.Int64
	queries  atomic.Int64
}

func newNaiveClient(t *spt.Tree, yield bool) *naiveClient {
	m, _, err := sp.NewMaintainer("sp-order")
	if err != nil {
		panic(err)
	}
	return &naiveClient{
		m:     m,
		forks: make([]naiveFork, t.Len()),
		sh:    shadow.NewMemory[sp.ThreadID](64),
		yield: yield,
	}
}

// lock takes the global lock and counts the acquisition.
func (c *naiveClient) lock() {
	c.mu.Lock()
	c.locks++
}

// newThread allocates the next event thread; mu must be held.
func (c *naiveClient) newThread() sp.ThreadID {
	t := c.next
	c.next++
	return t
}

// bind pairs t, which the maintainer has registered, with its handle;
// mu must be held.
func (c *naiveClient) bind(t sp.ThreadID) naiveThread {
	return naiveThread{id: t, rel: c.m.ThreadRelative(t)}
}

func (c *naiveClient) RootFrame() *sched.Frame {
	c.lock()
	defer c.mu.Unlock()
	main := c.newThread()
	c.m.Start(main)
	return &sched.Frame{Data: &naiveFrame{cur: c.bind(main)}}
}

// forkOf performs pnode's fork on first use, from frame f's current
// thread, and moves f on to the continuation. The first use is usually
// SpawnChild, but the scheduler publishes the continuation task before
// calling SpawnChild, so a thief may get there first. mu must be held.
func (c *naiveClient) forkOf(pnode *spt.Node, f *sched.Frame) *naiveFork {
	fk := &c.forks[pnode.ID]
	if !fk.done {
		pf := frameCur(f)
		left, right := c.newThread(), c.newThread()
		c.m.Fork(pf.cur.id, left, right)
		fk.left, fk.right = c.bind(left), c.bind(right)
		pf.cur = fk.right // the continuation, if it is not stolen
		fk.done = true
	}
	return fk
}

func (c *naiveClient) SpawnChild(w int, parent *sched.Frame, pnode *spt.Node) *sched.Frame {
	c.lock()
	defer c.mu.Unlock()
	fk := c.forkOf(pnode, parent)
	fk.child = &sched.Frame{Data: &naiveFrame{cur: fk.left}}
	return fk.child
}

func (c *naiveClient) ReturnChild(w int, parent, child *sched.Frame, pnode *spt.Node) {}

// Steal starts the thief's frame on the continuation thread and
// publishes that frame to the join, whose right terminal it will hold.
func (c *naiveClient) Steal(thief int, t *sched.Task) *sched.Frame {
	c.lock()
	defer c.mu.Unlock()
	f := &sched.Frame{Data: &naiveFrame{cur: c.forkOf(t.Join().PNode(), t.Frame()).right}}
	t.Join().Data = f
	return f
}

func (c *naiveClient) JoinComplete(w int, j *sched.Join) {
	c.lock()
	defer c.mu.Unlock()
	right := j.Frame()
	if thief, ok := j.Data.(*sched.Frame); ok {
		right = thief
	}
	cont := c.newThread()
	c.m.Join(frameCur(c.forks[j.PNode().ID].child).cur.id, frameCur(right).cur.id, cont)
	frameCur(j.Frame()).cur = c.bind(cont)
}

// naiveRel answers shadow queries against the current thread through
// its sp-order handle, taking the global lock around each query.
type naiveRel struct {
	c *naiveClient
	h sp.CurrentRelative
}

func (r naiveRel) PrecedesCurrent(u sp.ThreadID) bool {
	r.c.lock()
	defer r.c.mu.Unlock()
	return r.h.PrecedesCurrent(u)
}

func (r naiveRel) ParallelCurrent(u sp.ThreadID) bool {
	r.c.lock()
	defer r.c.mu.Unlock()
	return r.h.ParallelCurrent(u)
}

func (r naiveRel) EnglishBeforeCurrent(u sp.ThreadID) bool {
	r.c.lock()
	defer r.c.mu.Unlock()
	return r.h.EnglishBeforeCurrent(u)
}

func (r naiveRel) HebrewBeforeCurrent(u sp.ThreadID) bool {
	r.c.lock()
	defer r.c.mu.Unlock()
	return r.h.HebrewBeforeCurrent(u)
}

// ExecThread replays the leaf's accesses on the frame's current thread
// (sp-order needs no Begin event). The leaf rides along as the access
// site, so reports name parse-tree threads.
func (c *naiveClient) ExecThread(w int, f *sched.Frame, leaf *spt.Node) {
	cur := frameCur(f).cur
	rel := naiveRel{c: c, h: cur.rel}
	for _, st := range leaf.Steps {
		if st.Op != spt.Read && st.Op != spt.Write {
			continue
		}
		c.accesses.Add(1)
		var q int64
		found, ok := c.sh.AccessOrdered(uint64(st.Loc), rel, cur.id, leaf, st.Op == spt.Write, &q)
		c.queries.Add(q)
		if ok {
			c.raceMu.Lock()
			c.races = append(c.races, Race{Loc: st.Loc, Kind: found.Kind, First: found.PrevSite.(*spt.Node), Second: leaf})
			c.raceMu.Unlock()
		}
	}
	if c.yield {
		runtime.Gosched()
	}
}

// DetectParallelNaive replays tree t under the work-stealing scheduler
// with the globally locked sp-order structure of Section 3, returning
// the report and the number of global-lock acquisitions. The tree must
// be canonical. Compare its lock-acquisition count and wall time against
// DetectParallel's to reproduce the paper's argument for the two-tier
// design.
func DetectParallelNaive(t *spt.Tree, workers int, seed int64, yield bool) (Report, int64) {
	c := newNaiveClient(t, yield)
	sched.New(workers, c, seed).Run(t)
	return buildReport(c.races, c.accesses.Load(), c.queries.Load()), c.locks
}

var _ sched.Client = (*naiveClient)(nil)
