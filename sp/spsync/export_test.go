package spsync

import "repro/sp"

// swapEngine installs a private engine for one test and returns a
// restore function. Tests run sequentially against the package-level
// default because instrumented code reaches the engine through the
// exported package functions.
func swapEngine(opt Options) (*engine, func(), error) {
	e, err := newEngine(opt)
	if err != nil {
		return nil, nil, err
	}
	prev := defaultEng.Swap(e)
	// Bind the test goroutine as the program's main goroutine.
	k := gkey()
	e.goroutines.put(k, &gstate{th: e.mon.Thread(e.mon.Main())})
	return e, func() {
		e.goroutines.del(k)
		defaultEng.Store(prev)
	}, nil
}

// reportOf finalizes the engine's monitor and returns the raw report
// (tests assert on it directly instead of going through JSON).
func (e *engine) reportOf() sp.Report { return e.mon.Report() }
