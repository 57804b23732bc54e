package om

// Test-only accessors for internal invariants.

// CheckInvariants exposes the serial list's structural validation.
func (l *List) CheckInvariants() error { return l.checkInvariants() }

// DebugString exposes the serial list's layout.
func (l *List) DebugString() string { return l.debugString() }

// CheckInvariants exposes the concurrent list's validation.
func (c *Concurrent) CheckInvariants() error { return c.checkInvariants() }

// BucketCap exposes the bottom-level capacity to tests.
const BucketCap = bucketCap
