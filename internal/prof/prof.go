// Package prof starts the standard Go performance collectors — CPU
// profile, end-of-run heap profile, execution trace, blocking and mutex
// contention profiles — behind the command-line flags the dtnflow binaries
// expose. It exists so profiling a real run (rather than a go-test
// benchmark) needs no code changes:
//
//	dtnflow-scale -mult 10 -cpuprofile cpu.pb.gz
//	go tool pprof cpu.pb.gz
//
//	dtnflow-scale -mult 10 -blockprofile block.pb.gz -mutexprofile mutex.pb.gz
//	go tool pprof block.pb.gz
package prof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
)

// Config names the output path of each collector; empty paths are skipped.
type Config struct {
	CPU   string // pprof CPU profile
	Mem   string // end-of-run heap profile (after a final GC)
	Trace string // execution trace (go tool trace)
	Block string // goroutine blocking profile (channels, WaitGroup waits)
	Mutex string // mutex contention profile
}

// Start begins the configured collectors and returns a stop function that
// must run before the process exits: it stops the CPU profile and execution
// trace, snapshots the block/mutex profiles, and writes the heap profile
// after a final GC. On error every collector already started is stopped
// again.
func (c Config) Start() (func(), error) {
	var stops []func()
	unwind := func(err error) (func(), error) {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
		return nil, err
	}
	if c.CPU != "" {
		f, err := os.Create(c.CPU)
		if err != nil {
			return unwind(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return unwind(fmt.Errorf("cpu profile: %w", err))
		}
		stops = append(stops, func() {
			pprof.StopCPUProfile()
			f.Close()
		})
	}
	if c.Trace != "" {
		f, err := os.Create(c.Trace)
		if err != nil {
			return unwind(err)
		}
		if err := rtrace.Start(f); err != nil {
			f.Close()
			return unwind(fmt.Errorf("execution trace: %w", err))
		}
		stops = append(stops, func() {
			rtrace.Stop()
			f.Close()
		})
	}
	if c.Block != "" {
		// Rate 1 records every blocking event — the runs being profiled are
		// short and the question ("where does the pipeline wait") needs the
		// full population, not a sample.
		runtime.SetBlockProfileRate(1)
		path := c.Block
		stops = append(stops, func() {
			writeLookupProfile("block", path)
			runtime.SetBlockProfileRate(0)
		})
	}
	if c.Mutex != "" {
		runtime.SetMutexProfileFraction(1)
		path := c.Mutex
		stops = append(stops, func() {
			writeLookupProfile("mutex", path)
			runtime.SetMutexProfileFraction(0)
		})
	}
	stop := func() {
		// The heap profile is written first, while the trace/CPU collectors
		// are still running: WriteHeapProfile only snapshots allocation
		// state, and this way the profile reflects the run's end state
		// before any collector teardown.
		if c.Mem != "" {
			writeHeapProfile(c.Mem)
		}
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}
	return stop, nil
}

func writeHeapProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "prof: heap profile:", err)
		return
	}
	defer f.Close()
	runtime.GC() // materialise the final live set
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "prof: heap profile:", err)
	}
}

// writeLookupProfile snapshots a named runtime profile (block, mutex) in
// the binary pprof format.
func writeLookupProfile(name, path string) {
	p := pprof.Lookup(name)
	if p == nil {
		fmt.Fprintf(os.Stderr, "prof: no %s profile in this runtime\n", name)
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "prof: %s profile: %v\n", name, err)
		return
	}
	defer f.Close()
	if err := p.WriteTo(f, 0); err != nil {
		fmt.Fprintf(os.Stderr, "prof: %s profile: %v\n", name, err)
	}
}
