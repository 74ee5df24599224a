package fleet

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/experiment"
	"repro/internal/sim"
)

// Options configure a Coordinator. The zero value is usable: listen on
// an ephemeral localhost port, no store, default failure handling.
type Options struct {
	// Addr is the listen address ("" = 127.0.0.1:0). Workers dial it.
	Addr string
	// Store, when non-nil, is consulted before dispatch (hits skip
	// execution entirely) and receives every executed result.
	Store *Store
	// HeartbeatTimeout is how long a dispatched cell may stay silent —
	// no heartbeat, no result — before its worker is declared dead and
	// the cell re-dispatched. <= 0 means 10s.
	HeartbeatTimeout time.Duration
	// RetryBackoff is the delay before a failed cell re-enters the
	// queue, doubling per failure of that cell. <= 0 means 100ms.
	RetryBackoff time.Duration
	// WorkerWait is the grace period after Run starts: if no worker has
	// connected when it elapses, the coordinator degrades to in-process
	// execution (it also degrades whenever every connected worker has
	// died). <= 0 means 3s.
	WorkerWait time.Duration
	// Progress, when non-nil, receives one line per completed cell plus
	// scheduling events.
	Progress io.Writer
}

// maxRetries bounds re-dispatches per cell after worker failures; one
// more failure aborts the run.
const maxRetries = 3

func (o Options) heartbeatTimeout() time.Duration {
	if o.HeartbeatTimeout <= 0 {
		return 10 * time.Second
	}
	return o.HeartbeatTimeout
}

func (o Options) retryBackoff() time.Duration {
	if o.RetryBackoff <= 0 {
		return 100 * time.Millisecond
	}
	return o.RetryBackoff
}

func (o Options) workerWait() time.Duration {
	if o.WorkerWait <= 0 {
		return 3 * time.Second
	}
	return o.WorkerWait
}

// Report summarizes one coordinator run for progress output and the
// fleet-smoke CI gate. It carries the nondeterministic facts (timing,
// scheduling, cache behaviour) that must stay out of CellResult.
type Report struct {
	Cells       int     `json:"cells"`
	CacheHits   int     `json:"cache_hits"`
	Executed    int     `json:"executed"`
	RemoteCells int     `json:"remote_cells"`
	LocalCells  int     `json:"local_cells"`
	Retries     int     `json:"retries"`
	WorkersSeen int     `json:"workers_seen"`
	Rejected    int     `json:"workers_rejected"`
	WallSec     float64 `json:"wall_sec"`
	Addr        string  `json:"addr,omitempty"`
}

// Coordinator owns one sweep: it hands cells to connected workers (or
// executes them in-process), collects results index-aligned with the
// input cells, and survives worker death by re-dispatching the lost
// cell. Create with NewCoordinator, optionally Listen, then Run once.
type Coordinator struct {
	opt Options
	ln  net.Listener

	mu   sync.Mutex
	cond *sync.Cond

	started      bool
	cells        []experiment.Cell
	fps          []string
	results      []*experiment.CellResult
	tries        []int
	queue        []int
	remaining    int
	failure      error
	connected    int
	localStarted bool
	seq          int64
	rep          Report
}

// NewCoordinator returns a coordinator with no listener; call Listen to
// accept workers, or skip it for pure in-process execution.
func NewCoordinator(opt Options) *Coordinator {
	c := &Coordinator{opt: opt}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Listen binds the coordinator's TCP endpoint and starts accepting
// workers. It returns the resolved address to hand to workers.
func (c *Coordinator) Listen() (string, error) {
	addr := c.opt.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("fleet: listen: %w", err)
	}
	c.ln = ln
	c.mu.Lock()
	c.rep.Addr = ln.Addr().String()
	c.mu.Unlock()
	go c.accept()
	return ln.Addr().String(), nil
}

func (c *Coordinator) accept() {
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		go c.serve(conn)
	}
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.opt.Progress != nil {
		fmt.Fprintf(c.opt.Progress, "fleet: "+format+"\n", args...)
	}
}

// Run executes the cells and returns their results in input order — the
// assembly depends only on the cell list, never on worker count or
// completion order. It blocks until every cell has a result (from the
// store, a worker, or in-process execution) or until a cell exhausts its
// retries. Run may be called once per Coordinator.
func (c *Coordinator) Run(cells []experiment.Cell) ([]*experiment.CellResult, Report, error) {
	t0 := time.Now()
	c.mu.Lock()
	if c.started {
		c.mu.Unlock()
		return nil, c.rep, fmt.Errorf("fleet: coordinator already ran")
	}
	n := len(cells)
	c.cells = cells
	c.fps = make([]string, n)
	c.results = make([]*experiment.CellResult, n)
	c.tries = make([]int, n)
	c.remaining = n
	c.rep.Cells = n
	for i, cell := range cells {
		fp, err := cell.Fingerprint()
		if err != nil {
			c.failure = fmt.Errorf("fleet: cell %d: %w", i, err)
			break
		}
		c.fps[i] = fp
	}
	if c.failure == nil && c.opt.Store != nil {
		for i := range cells {
			if res, ok := c.opt.Store.Get(c.fps[i]); ok {
				c.results[i] = res
				c.remaining--
				c.rep.CacheHits++
			}
		}
	}
	if c.failure == nil {
		for i := range cells {
			if c.results[i] == nil {
				c.queue = append(c.queue, i)
			}
		}
		// Longest-first dispatch: with heterogeneous cells (a 32× scale run
		// next to a tiny golden cell) FIFO order lets one expensive straggler
		// start last and dominate the makespan. Ordering by estimated cost
		// keeps the big cells at the front where idle workers pick them up
		// first; results are index-aligned, so scheduling order never changes
		// the assembled output.
		orderQueue(c.queue, cells)
	}
	c.started = true
	hits := c.rep.CacheHits
	failed := c.failure
	inProcess := c.ln == nil
	c.cond.Broadcast()
	c.mu.Unlock()

	if failed != nil {
		if c.ln != nil {
			c.ln.Close()
		}
		return nil, c.snapshotReport(t0), failed
	}
	if hits > 0 {
		c.logf("%d/%d cells already in store", hits, n)
	}
	if inProcess {
		c.localDrain("in-process")
	} else {
		go c.watchdog()
	}

	c.mu.Lock()
	for c.remaining > 0 && c.failure == nil {
		c.cond.Wait()
	}
	err := c.failure
	results := c.results
	c.mu.Unlock()
	if c.ln != nil {
		c.ln.Close()
	}
	rep := c.snapshotReport(t0)
	if err != nil {
		return nil, rep, err
	}
	return results, rep, nil
}

func (c *Coordinator) snapshotReport(t0 time.Time) Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	rep := c.rep
	rep.WallSec = time.Since(t0).Seconds()
	return rep
}

// next blocks until a cell is available and claims it. ok is false when
// the run is over (all cells done, or aborted).
func (c *Coordinator) next() (idx int, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.failure != nil || (c.started && c.remaining == 0) {
			return 0, false
		}
		if c.started && len(c.queue) > 0 {
			idx = c.queue[0]
			c.queue = c.queue[1:]
			return idx, true
		}
		c.cond.Wait()
	}
}

// complete records a finished cell. The store write happens before the
// bookkeeping so a crash can lose at most the in-flight entry.
func (c *Coordinator) complete(idx int, res *experiment.CellResult, wallSec float64, who string, local bool) {
	if c.opt.Store != nil {
		if err := c.opt.Store.Put(res); err != nil {
			c.logf("store put failed (continuing): %v", err)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.results[idx] != nil {
		return
	}
	c.results[idx] = res
	c.remaining--
	c.rep.Executed++
	if local {
		c.rep.LocalCells++
	} else {
		c.rep.RemoteCells++
	}
	done := len(c.cells) - c.remaining
	s := res.Summary
	c.logf("[%d/%d] %s ← %s in %.2fs: generated=%d delivered=%d forwarded=%d",
		done, len(c.cells), res.Cell, who, wallSec, s.Generated, s.Delivered, s.Forwarding)
	c.cond.Broadcast()
}

// requeue returns a cell lost to a worker failure to the queue after a
// per-cell exponential backoff; exhausting the retry budget aborts the
// run.
func (c *Coordinator) requeue(idx int, cause error) {
	c.mu.Lock()
	if c.results[idx] != nil || c.failure != nil {
		c.mu.Unlock()
		return
	}
	c.tries[idx]++
	c.rep.Retries++
	tries := c.tries[idx]
	if tries > maxRetries {
		c.failure = fmt.Errorf("fleet: cell %d (%s) failed %d dispatches, giving up: %w",
			idx, c.cells[idx], tries, cause)
		c.cond.Broadcast()
		c.mu.Unlock()
		return
	}
	backoff := c.opt.retryBackoff() << (tries - 1)
	c.mu.Unlock()
	c.logf("cell %d (%s) lost (%v); re-dispatch %d/%d in %s",
		idx, c.cells[idx], cause, tries, maxRetries, backoff)
	go func() {
		time.Sleep(backoff)
		c.mu.Lock()
		if c.results[idx] == nil && c.failure == nil {
			c.queue = append(c.queue, idx)
		}
		c.cond.Broadcast()
		c.mu.Unlock()
	}()
}

// fail aborts the run (deterministic cell error — retrying would fail
// identically).
func (c *Coordinator) fail(err error) {
	c.mu.Lock()
	if c.failure == nil {
		c.failure = err
	}
	c.cond.Broadcast()
	c.mu.Unlock()
}

// watchdog triggers the in-process fallback when the grace period
// expires with no worker ever connected. Later total worker loss is
// handled by dropWorker.
func (c *Coordinator) watchdog() {
	time.Sleep(c.opt.workerWait())
	c.mu.Lock()
	start := c.remaining > 0 && c.failure == nil && c.connected == 0 && !c.localStarted
	if start {
		c.localStarted = true
	}
	c.mu.Unlock()
	if start {
		c.logf("no workers after %s; degrading to in-process execution", c.opt.workerWait())
		c.localDrain("local")
	}
}

func (c *Coordinator) addWorker() {
	c.mu.Lock()
	c.connected++
	c.rep.WorkersSeen++
	c.mu.Unlock()
}

func (c *Coordinator) dropWorker() {
	c.mu.Lock()
	c.connected--
	start := c.connected == 0 && c.remaining > 0 && c.failure == nil && !c.localStarted
	if start {
		c.localStarted = true
	}
	c.mu.Unlock()
	if start {
		c.logf("all workers gone; degrading to in-process execution")
		go c.localDrain("local")
	}
}

// localDrain executes queued cells in this process until the run is
// over. It uses the same claim/complete protocol as a remote worker, so
// it can share the queue with workers that connect mid-drain.
func (c *Coordinator) localDrain(who string) {
	for {
		idx, ok := c.next()
		if !ok {
			return
		}
		t0 := time.Now()
		res, err := experiment.ExecuteCell(c.cellAt(idx))
		if err != nil {
			c.fail(fmt.Errorf("fleet: cell %d (%s): %w", idx, c.cellAt(idx), err))
			return
		}
		c.complete(idx, res, time.Since(t0).Seconds(), who, true)
	}
}

func (c *Coordinator) cellAt(idx int) experiment.Cell {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cells[idx]
}

// serve owns one worker connection: handshake, then a dispatch loop that
// declares the worker dead — and re-dispatches its cell — after
// HeartbeatTimeout of silence.
func (c *Coordinator) serve(conn net.Conn) {
	defer conn.Close()
	hbt := c.opt.heartbeatTimeout()
	conn.SetReadDeadline(time.Now().Add(hbt))
	env, err := readMsg(conn)
	if err != nil || env.Type != MsgHello || env.Hello == nil {
		return
	}
	h := env.Hello
	if h.Proto != ProtoVersion || h.Engine != sim.EngineVersion {
		c.mu.Lock()
		c.rep.Rejected++
		c.mu.Unlock()
		reason := fmt.Sprintf("want proto %d engine %s, got proto %d engine %s",
			ProtoVersion, sim.EngineVersion, h.Proto, h.Engine)
		c.logf("rejecting worker %s: %s", h.Name, reason)
		conn.SetWriteDeadline(time.Now().Add(hbt))
		writeMsg(conn, &Envelope{Type: MsgReject, Reject: &Reject{Reason: reason}})
		return
	}
	c.addWorker()
	defer c.dropWorker()
	c.logf("worker %s connected", h.Name)

	for {
		idx, ok := c.next()
		if !ok {
			conn.SetWriteDeadline(time.Now().Add(hbt))
			writeMsg(conn, &Envelope{Type: MsgBye})
			return
		}
		c.mu.Lock()
		c.seq++
		seq := c.seq
		cell := c.cells[idx]
		fp := c.fps[idx]
		c.mu.Unlock()
		conn.SetWriteDeadline(time.Now().Add(hbt))
		if err := writeMsg(conn, &Envelope{Type: MsgJob, Job: &Job{Seq: seq, Cell: cell}}); err != nil {
			c.requeue(idx, err)
			return
		}
		for done := false; !done; {
			conn.SetReadDeadline(time.Now().Add(hbt))
			env, err := readMsg(conn)
			if err != nil {
				c.requeue(idx, err)
				return
			}
			switch env.Type {
			case MsgHeartbeat:
				// Liveness only; the read deadline was just pushed out.
			case MsgResult:
				r := env.Result
				if r == nil || r.Seq != seq {
					c.requeue(idx, fmt.Errorf("fleet: result out of sequence"))
					return
				}
				if r.Err != "" {
					// A worker-reported execution error is deterministic:
					// the cell would fail anywhere, so abort instead of
					// burning retries.
					c.fail(fmt.Errorf("fleet: cell %d (%s) failed on worker %s: %s", idx, cell, h.Name, r.Err))
					return
				}
				if r.Res == nil || r.Res.Fingerprint != fp {
					c.requeue(idx, fmt.Errorf("fleet: result fingerprint mismatch"))
					return
				}
				c.complete(idx, r.Res, r.WallSec, "worker "+h.Name, false)
				done = true
			default:
				c.requeue(idx, fmt.Errorf("fleet: unexpected %s during job", env.Type))
				return
			}
		}
	}
}
