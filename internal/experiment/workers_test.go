package experiment

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestResolveWorkersTracksGOMAXPROCS pins the fix for the stale-default
// bug: the worker default must follow runtime.GOMAXPROCS changes made
// after package init, resolving at each call.
func TestResolveWorkersTracksGOMAXPROCS(t *testing.T) {
	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)

	runtime.GOMAXPROCS(2)
	if got := resolveWorkers(100, 0); got != 2 {
		t.Errorf("after GOMAXPROCS(2): resolveWorkers(100, 0) = %d, want 2", got)
	}
	runtime.GOMAXPROCS(3)
	if got := resolveWorkers(100, 0); got != 3 {
		t.Errorf("after GOMAXPROCS(3): resolveWorkers(100, 0) = %d, want 3", got)
	}

	if got := resolveWorkers(2, 0); got > 2 {
		t.Errorf("resolveWorkers(2, 0) = %d, want <= 2 (never exceeds n)", got)
	}
	if got := resolveWorkers(5, 8); got != 5 {
		t.Errorf("resolveWorkers(5, 8) = %d, want 5", got)
	}
	if got := resolveWorkers(5, 3); got != 3 {
		t.Errorf("resolveWorkers(5, 3) = %d, want 3 (explicit value wins)", got)
	}
	if got := resolveWorkers(0, 0); got != 1 {
		t.Errorf("resolveWorkers(0, 0) = %d, want 1", got)
	}
}

// TestParallelForBound checks the pool honours the resolved bound: with
// workers=3, no more than 3 items are ever in flight.
func TestParallelForBound(t *testing.T) {
	var inFlight, peak int64
	var mu sync.Mutex
	ParallelFor(64, 3, func(i int) {
		n := atomic.AddInt64(&inFlight, 1)
		mu.Lock()
		if n > peak {
			peak = n
		}
		mu.Unlock()
		atomic.AddInt64(&inFlight, -1)
	})
	if peak > 3 {
		t.Errorf("observed %d concurrent items, want <= 3", peak)
	}
	if peak < 1 {
		t.Error("pool ran nothing")
	}
}
