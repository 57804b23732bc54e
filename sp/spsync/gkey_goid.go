//go:build !amd64 && !arm64

package spsync

// gkey returns the calling goroutine's registry key: its runtime id,
// where no getg stub exists.
func gkey() uintptr { return uintptr(goid()) }
