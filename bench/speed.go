package main

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Host-speed sampling. On a shared host the speed a process gets from
// the memory system drifts by up to 2x within minutes, with the load of
// other tenants, and every wall time drifts with it: on a 2-vCPU VM the
// same pass of the same code read 4.6 s and 7.4 s two minutes apart. The benchmark
// therefore samples the host's speed all through a run: a goroutine on its
// own OS thread wakes every samplePeriod, follows a fixed number of hops
// through a random cycle larger than the last-level cache, and takes the
// thread CPU time the hops needed. CPU time leaves out the time the thread
// waits for a processor, so a sample depends on the host, not on how busy
// the workload keeps the processors. A timed window (one pass with its
// set-up, or the set-ups before the passes) is scaled by refKernelCPU over
// the mean sample within it: a reported time is the time the work would
// take on a host where one sample takes refKernelCPU. The kernel is the
// benchmark's own code, so a change to the program moves reported times
// by the same share as raw ones. The raw pass times and the factors are on
// the provenance line.

// refKernelCPU is a typical sample on the 2-vCPU host the benchmark was
// tuned on, so factors there stay near 1.
const refKernelCPU = 1500 * time.Microsecond

const samplePeriod = 50 * time.Millisecond

// chaseLen is the length of the sampler's pointer cycle: 8M entries, 32 MiB,
// more than a server's last-level cache share, so most hops go to memory.
const chaseLen = 1 << 23

// newChase builds one random cycle through chaseLen slots. The table is
// mapped outside the Go heap, so the heap metrics do not see it.
func newChase() (mem []byte, next []uint32, err error) {
	mem, err = syscall.Mmap(-1, 0, chaseLen*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, nil, err
	}
	next = unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), chaseLen)
	// Sattolo's shuffle of the identity gives a single cycle.
	for i := range next {
		next[i] = uint32(i)
	}
	x := uint64(0x9E3779B97F4A7C15)
	for i := len(next) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		next[i], next[j] = next[j], next[i]
	}
	return mem, next, nil
}

// speedKernel follows the cycle for a fixed number of hops from p.
func speedKernel(next []uint32, p uint32) uint32 {
	for i := 0; i < 4000; i++ {
		p = next[p]
	}
	return p
}

// threadCPU is the calling thread's CPU time.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

type speedSampler struct {
	ready, stop, done chan struct{}
	mu                sync.Mutex
	samples           []time.Duration // kernel CPU time, in sampling order
	mem               []byte
	next              []uint32
	pos               uint32
}

func startSampler() (*speedSampler, error) {
	s := &speedSampler{ready: make(chan struct{}), stop: make(chan struct{}), done: make(chan struct{})}
	var err error
	if s.mem, s.next, err = newChase(); err != nil {
		return nil, fmt.Errorf("speed sampler: %w", err)
	}
	go s.loop()
	<-s.ready
	return s, nil
}

func (s *speedSampler) loop() {
	defer close(s.done)
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	tick := time.NewTicker(samplePeriod)
	defer tick.Stop()
	for {
		c0 := threadCPU()
		s.pos = speedKernel(s.next, s.pos)
		d := threadCPU() - c0
		s.mu.Lock()
		s.samples = append(s.samples, d)
		if len(s.samples) == 1 {
			close(s.ready)
		}
		s.mu.Unlock()
		select {
		case <-s.stop:
			return
		case <-tick.C:
		}
	}
}

// end stops sampling and waits for the sampler to exit.
func (s *speedSampler) end() {
	close(s.stop)
	<-s.done
	syscall.Munmap(s.mem)
}

// mark is the number of samples taken so far; it opens a window.
func (s *speedSampler) mark() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.samples)
}

// factor scales raw times of the window opened at mark to the reference
// core speed: refKernelCPU over the window's mean sample. A window too
// short to hold a sample takes the latest one.
func (s *speedSampler) factor(mark int) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.samples[min(mark, len(s.samples)-1):]
	var sum time.Duration
	for _, d := range w {
		sum += d
	}
	return float64(refKernelCPU) * float64(len(w)) / float64(sum)
}
