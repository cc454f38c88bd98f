package server

import (
	"errors"
	"sync"
	"time"

	"superfast/internal/telemetry"
)

// Admission outcomes. errDraining rejects work that had not been admitted
// when shutdown began; errDeadline rejects work whose admission wait
// exceeded the configured per-request deadline.
var (
	errDraining = errors.New("server: draining, request rejected")
	errDeadline = errors.New("server: admission deadline exceeded")
)

// admission is the shared controller every data request passes through
// before touching the device. It enforces the global in-flight cap and — in
// sequenced replay mode — grants slots in strict ticket (Seq) order, so a
// later ticket can never starve an earlier one of the last slot (the
// deadlock a naive cap would allow when tickets are spread across
// connections). Callers block in acquire; because the caller is a
// connection's only goroutine, a full server stops reading sockets instead
// of buffering requests, and TCP backpressure propagates to the clients.
type admission struct {
	mu   sync.Mutex
	cond *sync.Cond

	cap      int // global in-flight cap
	inFlight int
	seqNext  uint64              // next ticket to grant, sequenced mode only
	skipped  map[uint64]struct{} // rejected tickets ahead of seqNext
	draining bool

	// Per-tenant in-flight quotas (setTenantCaps): tenant t (1-based)
	// blocks while tenIn[t-1] >= tenCap[t-1]. A cap of 0 means unlimited.
	tenCap []int
	tenIn  []int

	gauge    *telemetry.Gauge   // optional "srv.inflight" mirror
	tenGauge []*telemetry.Gauge // optional per-tenant in-flight mirrors
}

// setTenantCaps installs the per-tenant in-flight quotas. Call before
// serving traffic.
func (a *admission) setTenantCaps(caps []int) {
	a.mu.Lock()
	a.tenCap = caps
	a.tenIn = make([]int, len(caps))
	a.tenGauge = make([]*telemetry.Gauge, len(caps))
	a.mu.Unlock()
}

func newAdmission(capacity int) *admission {
	a := &admission{cap: capacity, skipped: make(map[uint64]struct{})}
	a.cond = sync.NewCond(&a.mu)
	return a
}

// acquire blocks until a slot frees (and, when sequenced, until seq is the
// next ticket; and, for a quota'd tenant, until the tenant is under its
// cap), the deadline passes, or the server drains. A zero deadline waits
// forever. tenant is the 1-based tenant id, 0 for untenanted requests.
func (a *admission) acquire(seq uint64, sequenced bool, deadline time.Time, tenant int) error {
	var timer *time.Timer
	if !deadline.IsZero() {
		// cond.Wait has no timeout; a timer broadcast wakes the waiters so
		// they can observe the expired deadline themselves.
		timer = time.AfterFunc(time.Until(deadline), func() {
			a.mu.Lock()
			a.cond.Broadcast()
			a.mu.Unlock()
		})
		defer timer.Stop()
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for {
		if a.draining {
			if sequenced {
				a.retireSeq(seq)
			}
			return errDraining
		}
		blocked := a.inFlight >= a.cap || (sequenced && seq != a.seqNext)
		if !blocked && tenant > 0 && tenant <= len(a.tenCap) && a.tenCap[tenant-1] > 0 {
			blocked = a.tenIn[tenant-1] >= a.tenCap[tenant-1]
		}
		if !blocked {
			break
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			if sequenced {
				a.retireSeq(seq)
			}
			return errDeadline
		}
		a.cond.Wait()
	}
	a.inFlight++
	if tenant > 0 && tenant <= len(a.tenIn) {
		a.tenIn[tenant-1]++
		if g := a.tenGauge[tenant-1]; g != nil {
			g.Add(1)
		}
	}
	if sequenced {
		a.seqNext = seq + 1
		a.advanceSkipped()
		// Order changed, not just occupancy: wake everyone so the next
		// ticket's waiter (who may not be the longest sleeper) re-checks.
		a.cond.Broadcast()
	}
	if a.gauge != nil {
		a.gauge.Add(1)
	}
	return nil
}

// retireSeq consumes a rejected ticket's position in the grant order so the
// replay chain does not wedge behind it: the head ticket advances the cursor
// directly, a ticket still ahead of the cursor is remembered and skipped
// when the cursor reaches it. Caller holds a.mu, and must also retire the
// ticket at the device (an empty SubmitBatchTicket).
func (a *admission) retireSeq(seq uint64) {
	if seq == a.seqNext {
		a.seqNext = seq + 1
		a.advanceSkipped()
		a.cond.Broadcast()
	} else if seq > a.seqNext {
		a.skipped[seq] = struct{}{}
	}
}

// advanceSkipped walks the cursor over tickets rejected before their turn.
// Caller holds a.mu.
func (a *admission) advanceSkipped() {
	for {
		if _, ok := a.skipped[a.seqNext]; !ok {
			return
		}
		delete(a.skipped, a.seqNext)
		a.seqNext++
	}
}

// release frees one slot. tenant is the 1-based tenant id the slot was
// acquired under, 0 for untenanted requests.
func (a *admission) release(tenant int) {
	a.mu.Lock()
	a.inFlight--
	if tenant > 0 && tenant <= len(a.tenIn) {
		a.tenIn[tenant-1]--
		if g := a.tenGauge[tenant-1]; g != nil {
			g.Add(-1)
		}
	}
	if a.gauge != nil {
		a.gauge.Add(-1)
	}
	a.cond.Broadcast()
	a.mu.Unlock()
}

// retire consumes a rejected sequenced ticket's position in the grant order
// without ever admitting it (pre-admission rejects: bad tenant, LPN out of
// range). The caller must also retire the ticket at the device.
func (a *admission) retire(seq uint64) {
	a.mu.Lock()
	a.retireSeq(seq)
	a.mu.Unlock()
}

// drain flips the controller into rejection mode: blocked and future
// acquires fail with errDraining; slots already granted are unaffected.
func (a *admission) drain() {
	a.mu.Lock()
	a.draining = true
	a.cond.Broadcast()
	a.mu.Unlock()
}

// load returns the current in-flight count.
func (a *admission) load() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inFlight
}
