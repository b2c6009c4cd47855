package netsim

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ShardGroup runs several schedulers in lock-step conservative-lookahead
// windows, one goroutine per shard. The synchronization protocol is
// null-message-free: every shard may freely execute events strictly
// before the published window bound, because the bound never exceeds
// the globally earliest pending event plus the minimum cross-shard link
// delay — no event another shard could still emit can land inside the
// window. Cross-shard packet handoffs are staged in per-pair outboxes
// during the window and inserted at the barrier; the scheduler's
// (at, schedAt, ord) event order makes the insertion order irrelevant,
// so the merge is deterministic by construction.
//
// The caller's goroutine acts as the coordinator and runs shard 0
// inline; shards 1..n-1 get worker goroutines for the duration of one
// Run call. Between windows the workers are parked at the barrier, so
// the coordinator may touch any shard's scheduler (computing the next
// bound, draining handoffs, applying staged controls) without locks —
// ownership transfers through the epoch/arrived atomics, which also
// carry the happens-before edges the race detector checks.
type ShardGroup struct {
	scheds []*Scheduler
	net    *Network

	// quantum is the conservative lookahead: the smallest guaranteed
	// delay of any packet that crosses a shard boundary.
	quantum    time.Duration
	quantumSet bool

	epoch   atomic.Uint64
	bound   atomic.Int64
	arrived atomic.Int64
	slots   []paddedNext

	// controls staged by shard goroutines during a window, applied by
	// the coordinator at the next barrier in shard-index order. Each
	// inner slice is written only by its own shard's goroutine.
	controls [][]func()

	workerErr atomic.Pointer[error]
}

type paddedNext struct {
	next atomic.Int64
	_    [56]byte
}

const (
	boundIdle = int64(-1)
	boundExit = int64(-2)
)

// NewShardGroup returns n schedulers prepared to run as one group.
func NewShardGroup(n int) *ShardGroup {
	if n < 1 {
		panic("netsim: shard group needs at least one shard")
	}
	g := &ShardGroup{
		scheds:   make([]*Scheduler, n),
		slots:    make([]paddedNext, n),
		controls: make([][]func(), n),
	}
	for i := range g.scheds {
		g.scheds[i] = NewScheduler()
		g.scheds[i].setShardTag(i)
	}
	g.bound.Store(boundIdle)
	return g
}

// N returns the number of shards.
func (g *ShardGroup) N() int { return len(g.scheds) }

// Shard returns shard i's scheduler. Outside a running window it may be
// used freely (setup, timers, reading state); during a Run only events
// executing on that shard may touch it.
func (g *ShardGroup) Shard(i int) *Scheduler { return g.scheds[i] }

// Now returns the most advanced shard clock. Call only between Runs.
func (g *ShardGroup) Now() time.Duration {
	var max time.Duration
	for _, s := range g.scheds {
		if s.Now() > max {
			max = s.Now()
		}
	}
	return max
}

// Fired returns the total number of events executed across all shards.
func (g *ShardGroup) Fired() uint64 {
	var n uint64
	for _, s := range g.scheds {
		n += s.Fired()
	}
	return n
}

// Stats sums the per-shard scheduler counters; Now reports the most
// advanced shard clock. Call only between Runs.
func (g *ShardGroup) Stats() SchedStats {
	var agg SchedStats
	for _, s := range g.scheds {
		st := s.Stats()
		if st.Now > agg.Now {
			agg.Now = st.Now
		}
		agg.Fired += st.Fired
		agg.Scheduled += st.Scheduled
		agg.Cancelled += st.Cancelled
		agg.Pending += st.Pending
		agg.WheelItems += st.WheelItems
		agg.OverflowDepth += st.OverflowDepth
	}
	return agg
}

// Control schedules fn to run with every shard quiescent. With one
// shard it runs immediately (every host lives on the caller's
// goroutine, so any callback may touch any host); with several it is
// staged and applied by the coordinator at the next window barrier, in
// shard-index then FIFO order. from is the shard index of the calling
// event's scheduler, which keys the stage so concurrent staging from
// different shards needs no lock.
func (g *ShardGroup) Control(from int, fn func()) {
	if len(g.scheds) == 1 {
		fn()
		return
	}
	g.controls[from] = append(g.controls[from], fn)
}

// ErrNoLookahead reports a sharded topology whose minimum cross-shard
// link delay is not positive: conservative synchronization cannot make
// progress, and the offending hosts must share a shard instead.
var ErrNoLookahead = errors.New("netsim: cross-shard link with non-positive lookahead")

// Run executes events on all shards until virtual time exceeds until
// (events exactly at until still run, like Scheduler.Run).
func (g *ShardGroup) Run(until time.Duration) error {
	n := len(g.scheds)
	if n == 1 {
		_, err := g.scheds[0].Run(until)
		return err
	}
	if !g.quantumSet {
		q, err := g.net.lookaheadQuantum()
		if err != nil {
			return err
		}
		g.quantum, g.quantumSet = q, true
	}

	// The baseline epoch must be sampled before the workers spawn: a
	// worker that loaded it itself could start late and see the first
	// window's increment already applied, then wait forever for a
	// change while the coordinator waits for its arrival.
	base := g.epoch.Load()
	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		wg.Add(1)
		go g.runWorker(i, base, &wg)
	}
	defer func() {
		g.bound.Store(boundExit)
		g.epoch.Add(1)
		wg.Wait()
		g.bound.Store(boundIdle)
	}()

	for {
		// Drain before measuring: sends from the setup phase (before
		// Run) and from barrier controls stage handoffs while no window
		// is open, and minNext only sees events already in a scheduler.
		g.net.drainHandoffs()
		low, any := g.minNext()
		if !any || low > until {
			break
		}
		bound := g.windowEnd(low, until)
		g.arrived.Store(0)
		g.bound.Store(int64(bound))
		g.epoch.Add(1)
		if _, _, err := g.scheds[0].RunBefore(bound); err != nil {
			return err
		}
		for g.arrived.Load() < int64(n-1) {
			runtime.Gosched()
		}
		if perr := g.workerErr.Load(); perr != nil {
			return *perr
		}
		g.net.drainHandoffs()
		g.applyControls()
	}
	for _, s := range g.scheds {
		s.AdvanceTo(until)
	}
	return nil
}

func (g *ShardGroup) runWorker(i int, seen uint64, wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		for g.epoch.Load() == seen {
			runtime.Gosched()
		}
		seen = g.epoch.Load()
		b := g.bound.Load()
		if b == boundExit {
			return
		}
		next, has, err := g.scheds[i].RunBefore(time.Duration(b))
		if err != nil {
			g.workerErr.Store(&err)
		}
		if has {
			g.slots[i].next.Store(int64(next))
		} else {
			g.slots[i].next.Store(-1)
		}
		g.arrived.Add(1)
	}
}

// minNext scans every shard for the earliest pending event. Only the
// coordinator calls it, between windows, when it owns all shards.
func (g *ShardGroup) minNext() (time.Duration, bool) {
	var low time.Duration
	any := false
	for _, s := range g.scheds {
		if at, ok := s.NextEventAt(); ok && (!any || at < low) {
			low, any = at, true
		}
	}
	return low, any
}

// windowEnd picks the exclusive bound for a window starting at the
// globally earliest event low. A window starting exactly on a whole
// second is clipped to one nanosecond: per-second housekeeping events
// (the monitor sampler, the PBX CPU meter) fire at whole seconds and
// read counters written by other shards, so those instants execute with
// every shard synchronized at exactly that boundary. Other windows are
// capped at low plus the lookahead quantum (rounded down to the quantum
// grid, which keeps window ends aligned and still strictly after low)
// and at the next whole second, so a whole-second instant is never
// strictly inside any window; finally until+1ns lets events exactly at
// the horizon run.
func (g *ShardGroup) windowEnd(low, until time.Duration) time.Duration {
	var b time.Duration
	if low%time.Second == 0 {
		b = low + 1
	} else {
		q := g.quantum
		b = low - low%q + q
		if ws := low - low%time.Second + time.Second; ws < b {
			b = ws
		}
	}
	if lim := until + 1; b > lim {
		b = lim
	}
	return b
}

func (g *ShardGroup) applyControls() {
	for i := range g.controls {
		fns := g.controls[i]
		if len(fns) == 0 {
			continue
		}
		g.controls[i] = g.controls[i][:0]
		for _, fn := range fns {
			fn()
		}
	}
}

// AssignShards maps host groups onto n shards: groups are sorted by
// their first member (after sorting each group's members), the starting
// shard is rotated by the seed, and groups are dealt round-robin. The
// result is a pure function of (seed, groups, n) — independent of map
// iteration, GOMAXPROCS and scheduling — which the property tests pin.
func AssignShards(seed uint64, groups [][]string, n int) map[string]int {
	sorted := make([][]string, len(groups))
	for i, grp := range groups {
		cp := append([]string(nil), grp...)
		sort.Strings(cp)
		sorted[i] = cp
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i][0] < sorted[j][0] })
	assign := make(map[string]int, len(groups))
	for i, grp := range sorted {
		shard := int((seed + uint64(i)) % uint64(n))
		for _, host := range grp {
			if prev, dup := assign[host]; dup && prev != shard {
				panic(fmt.Sprintf("netsim: host %q in two groups", host))
			}
			assign[host] = shard
		}
	}
	return assign
}
