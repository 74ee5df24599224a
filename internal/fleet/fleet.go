// Package fleet runs a sweep as independent cells (experiment.Cell)
// through experiment.ExecuteCells and caches their results in a
// content-addressed store keyed by the canonical run fingerprint (Store),
// so re-running a sweep is pure cache hits and adding cells re-runs only
// the new ones.
//
// Determinism contract: every cell's result is the one
// experiment.ExecuteCell gives it alone — the single-process path the
// golden corpus pins — and lands at its input index, so the assembled
// results are byte-identical for any pool size, completion order, seed
// grouping or cache state.
package fleet

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/experiment"
)

// Options configure Run. The zero value runs on GOMAXPROCS goroutines
// with no store and no progress output.
type Options struct {
	// Store, when non-nil, serves the cells it already holds and
	// receives every executed result.
	Store *Store
	// Workers bounds the pool that executes the cells the store misses;
	// <= 0 means GOMAXPROCS.
	Workers int
	// Progress, when non-nil, receives one line per executed cell.
	Progress io.Writer
}

// executeCells runs the cells the store misses; tests swap it to make
// cells fail during execution, which no valid cell does.
var executeCells = experiment.ExecuteCells

// Report summarizes one Run for progress output and the fleet-smoke
// gate. It carries the nondeterministic facts (timing, cache behaviour)
// that must stay out of CellResult.
type Report struct {
	Cells     int     `json:"cells"`
	CacheHits int     `json:"cache_hits"`
	Executed  int     `json:"executed"`
	WallSec   float64 `json:"wall_sec"`
}

// Run executes cells and returns their results in input order. It
// fingerprints every cell before executing any, so a malformed cell
// fails before anything runs; serves the cells the store holds; executes
// the rest with experiment.ExecuteCells, which shares one warmup among
// the seeds of a group and starts the costliest groups first; and stores
// each executed result. If cells fail, Run returns the error of the
// lowest failing index, whatever the pool size.
func Run(cells []experiment.Cell, opt Options) ([]*experiment.CellResult, Report, error) {
	t0 := time.Now()
	rep := Report{Cells: len(cells)}
	finish := func() Report {
		rep.WallSec = time.Since(t0).Seconds()
		return rep
	}
	logf := func(format string, args ...any) {
		if opt.Progress != nil {
			fmt.Fprintf(opt.Progress, "fleet: "+format+"\n", args...)
		}
	}

	results := make([]*experiment.CellResult, len(cells))
	var misses []int // indices of the cells in pending
	var pending []experiment.Cell
	for i, c := range cells {
		fp, err := c.Fingerprint()
		if err != nil {
			return nil, finish(), fmt.Errorf("fleet: cell %d: %w", i, err)
		}
		if opt.Store != nil {
			if res, ok := opt.Store.Get(fp); ok {
				results[i] = res
				rep.CacheHits++
				continue
			}
		}
		misses, pending = append(misses, i), append(pending, c)
	}
	if rep.CacheHits > 0 {
		logf("%d/%d cells already in store", rep.CacheHits, len(cells))
	}

	errs := make([]error, len(cells))
	var mu sync.Mutex
	executeCells(pending, opt.Workers, func(k int, res *experiment.CellResult, err error) {
		i := misses[k]
		if err != nil {
			errs[i] = fmt.Errorf("fleet: cell %d (%s): %w", i, cells[i], err)
			return
		}
		var putErr error
		if opt.Store != nil {
			putErr = opt.Store.Put(res)
		}
		results[i] = res
		mu.Lock()
		defer mu.Unlock()
		if putErr != nil {
			logf("store put failed (continuing): %v", putErr)
		}
		rep.Executed++
		s := res.Summary
		logf("[%d/%d] %s: generated=%d delivered=%d forwarded=%d",
			rep.CacheHits+rep.Executed, len(cells), res.Cell, s.Generated, s.Delivered, s.Forwarding)
	})
	for _, err := range errs {
		if err != nil {
			return nil, finish(), err
		}
	}
	return results, finish(), nil
}
