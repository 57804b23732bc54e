//go:build amd64 || arm64

package spsync

// getg returns the address of the calling goroutine's runtime g
// (getg_amd64.s, getg_arm64.s).
func getg() uintptr

// gkey returns the calling goroutine's registry key: its g.
func gkey() uintptr { return getg() }
