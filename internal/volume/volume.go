package volume

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"superfast/internal/ftl"
	"superfast/internal/server"
	"superfast/internal/server/client"
	"superfast/internal/stats"
	"superfast/internal/telemetry"
)

// Config shapes a volume.
type Config struct {
	// Stripe is the pages per stripe unit — the placement granularity.
	// Defaults to 64.
	Stripe int64
	// Replicas is the copies kept of every stripe unit, on distinct
	// backends. Defaults to 1 (plain striping).
	Replicas int
	// Sequenced selects deterministic replay mode: callers stamp every data
	// op with a dense global Seq ticket, the volume admits tickets in order
	// and forwards per-backend dense tickets, and the backends must run
	// sequenced too. Read retries, read verification and rebalancing are
	// disabled — any of them would perturb the deterministic stream.
	Sequenced bool
	// VerifyReads reads every replica, serves the primary copy, and
	// rewrites replicas that diverge from it (read-repair). Requires
	// Replicas ≥ 2 and not Sequenced.
	VerifyReads bool
}

// ErrBackendDown marks an operation that could not reach a backend because
// it was killed (KillBackend) and not yet restarted.
var ErrBackendDown = errors.New("volume: backend down")

// backend is one attached block-service connection plus its shard-local
// telemetry. Latency digests are per-backend so the cluster view can merge
// them without retaining samples.
type backend struct {
	addr   string
	c      *client.Client
	seq    uint64 // next dense sequenced ticket for this backend
	traced bool   // the backend advertised server.TraceCap at dial time
	down   bool   // killed and awaiting restart (guarded by Volume.mu)
	queued bool   // c holds legs queued but not pushed (guarded by Volume.mu)

	lmu      sync.Mutex
	readLat  stats.LatencyDigest
	writeLat stats.LatencyDigest
}

func (b *backend) observe(op server.Op, latUS float64) {
	b.lmu.Lock()
	if op == server.OpRead {
		b.readLat.Observe(latUS)
	} else {
		b.writeLat.Observe(latUS)
	}
	b.lmu.Unlock()
}

// Volume shards one logical LPN space across N block-service backends with
// deterministic striped placement, optional K-way replication with
// read-repair, and live backend add/remove. Safe for concurrent use.
type Volume struct {
	cfg      Config
	pageSize int
	epoch    time.Time // origin of Call.t0: an offset is a third the size of a time.Time

	mu      sync.Mutex
	cond    *sync.Cond
	place   *Placement
	bks     []*backend // index-aligned with the placement backend table
	cursor  uint64     // next global seq admitted (Sequenced mode)
	copying map[int64]bool
	closed  bool

	cmu      sync.Mutex
	counters Counters

	led *telemetry.Ledger // hop ledger, nil = disabled (read under mu)
}

// TraceRef carries the trace context of one volume operation: the
// cluster-wide trace ID and the hop that handed the request to the volume
// (HopClient when a client library calls directly, HopNone at the root). A
// zero TraceRef disables tracing for the op.
type TraceRef struct {
	ID     uint64
	Parent telemetry.Hop
}

// SetLedger attaches (or, with nil, detaches) a hop ledger. Every traced
// operation then records one HopProxy entry per replica leg: the backend's
// reported simulated latency plus the leg's wall-clock round trip. Call
// before issuing traced operations.
func (v *Volume) SetLedger(l *telemetry.Ledger) {
	v.mu.Lock()
	v.led = l
	v.mu.Unlock()
}

// Counters is the volume-level op accounting.
type Counters struct {
	Reads     uint64 `json:"reads"`
	Writes    uint64 `json:"writes"`
	Trims     uint64 `json:"trims"`
	Flushes   uint64 `json:"flushes"`
	Retries   uint64 `json:"read_retries"` // reads retried on another replica
	Repairs   uint64 `json:"read_repairs"` // divergent replicas rewritten
	UnitMoves uint64 `json:"unit_moves"`   // stripe units relocated by rebalance
	DownSkips uint64 `json:"down_skips"`   // replica legs skipped on a down backend
}

// Dial connects to every backend address, probes capacities, and builds the
// initial striped layout. All backends must agree on page size.
func Dial(addrs []string, cfg Config) (*Volume, error) {
	if cfg.Stripe == 0 {
		cfg.Stripe = 64
	}
	if cfg.Replicas == 0 {
		cfg.Replicas = 1
	}
	if cfg.VerifyReads && (cfg.Replicas < 2 || cfg.Sequenced) {
		return nil, fmt.Errorf("volume: VerifyReads needs ≥2 replicas and unsequenced mode")
	}
	if len(addrs) == 0 {
		return nil, fmt.Errorf("volume: no backends")
	}
	v := &Volume{cfg: cfg, epoch: time.Now(), copying: make(map[int64]bool)}
	v.cond = sync.NewCond(&v.mu)
	slots := make([]int64, 0, len(addrs))
	minSlots := int64(-1)
	for _, addr := range addrs {
		c, err := client.Dial(addr)
		if err != nil {
			v.closeAll()
			return nil, fmt.Errorf("volume: backend %s: %w", addr, err)
		}
		b := &backend{addr: addr, c: c}
		snap, err := c.Stat()
		if err != nil {
			c.Close()
			v.closeAll()
			return nil, fmt.Errorf("volume: stat %s: %w", addr, err)
		}
		if v.pageSize == 0 {
			v.pageSize = snap.PageSize
		} else if snap.PageSize != v.pageSize {
			c.Close()
			v.closeAll()
			return nil, fmt.Errorf("volume: %s page size %d, cluster uses %d", addr, snap.PageSize, v.pageSize)
		}
		// Capability probe: stamp the trace extension only toward backends
		// that advertised it, so plain v1 backends keep seeing v1 bytes.
		if ok, err := c.SupportsTrace(); err == nil {
			b.traced = ok
		}
		s := snap.Capacity / cfg.Stripe
		if minSlots < 0 || s < minSlots {
			minSlots = s
		}
		slots = append(slots, s)
		v.bks = append(v.bks, b)
	}
	// The RAID-0 seed layout loads every backend with exactly
	// replicas×(units/n) slots when units is a multiple of n, so size the
	// space off the smallest backend and it always fits.
	units := int64(len(addrs)) * (minSlots / int64(cfg.Replicas))
	if units < 1 {
		v.closeAll()
		return nil, fmt.Errorf("volume: smallest backend holds %d slots, need ≥ %d", minSlots, cfg.Replicas)
	}
	place, err := NewPlacement(units*cfg.Stripe, cfg.Stripe, slots, cfg.Replicas)
	if err != nil {
		v.closeAll()
		return nil, err
	}
	v.place = place
	return v, nil
}

func (v *Volume) closeAll() {
	for _, b := range v.bks {
		if b != nil && b.c != nil {
			b.c.Close()
		}
	}
}

// Close tears down every backend connection.
func (v *Volume) Close() {
	v.mu.Lock()
	v.closed = true
	v.cond.Broadcast()
	v.mu.Unlock()
	v.closeAll()
}

// Space returns the logical page count.
func (v *Volume) Space() int64 { v.mu.Lock(); defer v.mu.Unlock(); return v.place.Space() }

// PageSize returns the cluster page size in bytes.
func (v *Volume) PageSize() int { return v.pageSize }

// Backends returns the backend table size, including removed entries.
func (v *Volume) Backends() int { v.mu.Lock(); defer v.mu.Unlock(); return len(v.bks) }

func (v *Volume) count(f func(*Counters)) {
	v.cmu.Lock()
	f(&v.counters)
	v.cmu.Unlock()
}

// rcall is one replica leg of an in-flight volume op. It pins the backend
// pointer at submission time: the v.bks table may grow concurrently under
// AddBackend, but a *backend never moves once attached.
type rcall struct {
	bk   *backend
	call *client.Call
	leg  uint8 // replica index within the op's fan-out: the leg is placed at Call.locs[leg]
}

// backend returns the pinned entry for index i under the volume lock.
func (v *Volume) backend(i int) *backend {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.bks[i]
}

// liveBackend returns the pinned entry for index i, or nil if it is down.
func (v *Volume) liveBackend(i int) *backend {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.bks[i].down {
		return nil
	}
	return v.bks[i]
}

// completer takes an op started for the proxy once every leg has resolved —
// on a backend connection's reader, so complete must not block.
type completer interface {
	complete(ca *Call)
}

// Call is one in-flight volume operation; Wait resolves it.
type Call struct {
	v    *Volume
	lpn  int64
	seq  uint64 // global sequenced ticket (0 unsequenced)
	tr   TraceRef
	led  *telemetry.Ledger // pinned at submission under v.mu
	t0   time.Duration     // wall clock at fan-out since v.epoch, for the HopProxy records (traced ops only)
	locs []Loc             // full replica set at submission time
	legs []rcall

	// An op started for the proxy (sink != nil) is not waited for. Every leg
	// carries hook, which takes one off owed — perhaps before the fan-out is
	// over — and the submitter adds the leg count once it has let go of v.mu:
	// whoever brings owed back to zero hands the op to sink.
	sink   completer
	id     uint64 // the client's frame ID
	hook   client.Hook
	owed   atomic.Int32
	op     server.Op
	locBuf [4]Loc // locs and legs live here up to four replicas
	legBuf [4]rcall
}

// recordLeg appends one HopProxy record for a resolved replica leg: the
// backend's simulated latency (what the scatter/gather saw) plus the wall
// clock from the op's fan-out to the leg's response.
func (ca *Call) recordLeg(leg rcall, r server.Response) {
	if ca.led == nil || ca.tr.ID == 0 {
		return
	}
	ca.led.Record(telemetry.HopRecord{
		Trace: ca.tr.ID, Hop: telemetry.HopProxy, Parent: ca.tr.Parent,
		Leg: leg.leg, Seq: ca.seq, LPN: ca.locs[leg.leg].SLPN, Status: byte(r.Status),
		SimTS: -1, SimUS: r.Latency, WallNS: (time.Since(ca.v.epoch) - ca.t0).Nanoseconds(),
	})
}

// settle moves owed by n and, at zero, hands the op to the sink.
func (ca *Call) settle(n int32) {
	if ca.owed.Add(n) != 0 {
		return
	}
	// With every leg resolved Wait cannot block — except for a read that
	// must retry or repair, with round trips only the reader running this
	// hook can answer.
	if _, err := ca.legs[0].call.Wait(); ca.op == server.OpRead && (err != nil || ca.v.cfg.VerifyReads) {
		go ca.sink.complete(ca)
		return
	}
	ca.sink.complete(ca)
}

func legDone(owner any) { owner.(*Call).settle(-1) }

// startLocked fans one data op out to the replica set, queueing each leg on
// its backend connection for a later push. Caller holds v.mu — that is what
// keeps per-backend frames (and their dense sequenced tickets) in submission
// order on each connection.
func (v *Volume) startLocked(ca *Call, payload []byte, hint ftl.Hint, arrival float64) error {
	if v.closed {
		return client.ErrClosed
	}
	var err error
	if ca.locs, err = v.place.Locate(ca.lpn, ca.locBuf[:0]); err != nil {
		return err
	}
	ca.v, ca.led, ca.legs = v, v.led, ca.legBuf[:0]
	var hook *client.Hook
	if ca.sink != nil {
		ca.hook.Fn, ca.hook.Owner, hook = legDone, ca, &ca.hook
	}
	if ca.led != nil && ca.tr.ID != 0 {
		ca.t0 = time.Since(v.epoch)
	}
	plainRead := ca.op == server.OpRead && !v.cfg.VerifyReads
	var lastErr error
	for i, l := range ca.locs {
		b := v.bks[l.Backend]
		if b.down {
			// A killed backend drops out of the fan-out: reads fall through
			// to the next replica, writes and trims skip the leg (the copy is
			// stale until read-repair or rebalance heals it). Sequenced mode
			// never gets here — KillBackend refuses it.
			if plainRead {
				v.count(func(c *Counters) { c.Retries++ })
			} else {
				v.count(func(c *Counters) { c.DownSkips++ })
			}
			lastErr = fmt.Errorf("%w: backend %d (%s)", ErrBackendDown, l.Backend, b.addr)
			continue
		}
		f := server.Frame{Op: ca.op, LPN: l.SLPN, Hint: hint, Arrival: arrival}
		if ca.op == server.OpWrite {
			f.Payload = payload
		}
		if v.cfg.Sequenced {
			f.Flags = server.FlagSequenced
			f.Seq = b.seq
		}
		if ca.tr.ID != 0 && b.traced {
			// Propagate the trace context downstream: the volume is the
			// proxy hop, so server-side records point back at it.
			f.Flags |= server.FlagTrace
			f.Trace = ca.tr.ID
			f.ParentHop = telemetry.HopProxy
			f.Leg = uint8(i)
		}
		call, err := b.c.Queue(f, hook)
		if err != nil {
			// An idempotent read whose replica connection is already dead
			// falls through to the next copy; anything else fails the op.
			if plainRead && !v.cfg.Sequenced && errors.Is(err, client.ErrConnLost) && i < len(ca.locs)-1 {
				v.count(func(c *Counters) { c.Retries++ })
				lastErr = err
				continue
			}
			return fmt.Errorf("volume: backend %d (%s): %w", l.Backend, b.addr, err)
		}
		b.queued = true
		if v.cfg.Sequenced {
			b.seq++
		}
		ca.legs = append(ca.legs, rcall{bk: b, call: call, leg: uint8(i)})
		if plainRead {
			break // plain reads hit one healthy replica
		}
	}
	if len(ca.legs) == 0 {
		return fmt.Errorf("volume: no healthy replica for lpn %d: %w", ca.lpn, lastErr)
	}
	return nil
}

// pushQueued writes the queued legs of every backend to its socket — what a
// reader batching ops does before anything that can block. The writes happen
// outside v.mu: the lock never spans a syscall.
func (v *Volume) pushQueued() {
	var buf [8]*client.Client
	cs := buf[:0]
	v.mu.Lock()
	for _, b := range v.bks {
		if b.queued {
			b.queued = false
			cs = append(cs, b.c)
		}
	}
	v.mu.Unlock()
	for _, c := range cs {
		c.Push() // a failed push fails the connection, and through it every leg queued there
	}
}

// waitLocked blocks while blocked() holds and the volume is open, pushing the
// queued legs first if it has to wait at all.
func (v *Volume) waitLocked(blocked func() bool) {
	if blocked() && !v.closed {
		v.mu.Unlock()
		v.pushQueued()
		v.mu.Lock()
	}
	for blocked() && !v.closed {
		v.cond.Wait()
	}
}

// start admits one data op. In Sequenced mode it blocks until the global
// cursor reaches seq, then advances it whether or not the op was accepted —
// the ticket is consumed either way, exactly like the server's admission.
func (v *Volume) start(ca *Call, payload []byte, hint ftl.Hint, arrival float64) (*Call, error) {
	v.count(func(c *Counters) {
		switch ca.op {
		case server.OpRead:
			c.Reads++
		case server.OpWrite:
			c.Writes++
		default:
			c.Trims++
		}
	})
	v.mu.Lock()
	if v.cfg.Sequenced {
		v.waitLocked(func() bool { return ca.seq != v.cursor })
	} else {
		u := ca.lpn / v.cfg.Stripe
		v.waitLocked(func() bool { return v.copying[u] })
	}
	err := v.startLocked(ca, payload, hint, arrival)
	if v.cfg.Sequenced {
		v.cursor++
		v.cond.Broadcast()
	}
	v.mu.Unlock()
	if ca.sink == nil {
		v.pushQueued() // a caller that will Wait has no reader batching for it
	} else if err == nil {
		ca.settle(int32(len(ca.legs)))
	}
	if err != nil {
		return nil, err
	}
	return ca, nil
}

// SkipSeq consumes one global sequenced ticket without issuing an op — the
// escape hatch for frames rejected above the volume (a draining proxy), so
// the tickets behind them cannot wedge. No-op when the volume is not
// sequenced.
func (v *Volume) SkipSeq(seq uint64) {
	if !v.cfg.Sequenced {
		return
	}
	v.mu.Lock()
	v.waitLocked(func() bool { return seq != v.cursor })
	if seq == v.cursor {
		v.cursor++
		v.cond.Broadcast()
	}
	v.mu.Unlock()
}

// StartRead begins an asynchronous read of one logical page. seq is the
// global replay ticket, ignored unless the volume is sequenced; tr is the
// trace context (zero = untraced).
func (v *Volume) StartRead(lpn int64, seq uint64, arrival float64, tr TraceRef) (*Call, error) {
	return v.start(&Call{op: server.OpRead, lpn: lpn, seq: seq, tr: tr}, nil, ftl.HintNone, arrival)
}

// StartWrite begins an asynchronous write fanned out to every replica.
func (v *Volume) StartWrite(lpn int64, data []byte, hint ftl.Hint, seq uint64, arrival float64, tr TraceRef) (*Call, error) {
	return v.start(&Call{op: server.OpWrite, lpn: lpn, seq: seq, tr: tr}, data, hint, arrival)
}

// StartTrim begins an asynchronous trim fanned out to every replica.
func (v *Volume) StartTrim(lpn int64, seq uint64, arrival float64, tr TraceRef) (*Call, error) {
	return v.start(&Call{op: server.OpTrim, lpn: lpn, seq: seq, tr: tr}, nil, ftl.HintNone, arrival)
}

// Wait resolves the operation. The returned Response carries the combined
// outcome: a read serves the primary copy (retrying healthy replicas if the
// primary's connection died); a write or trim succeeds only when every
// replica did, reporting the worst status and the slowest replica's latency.
// The error is transport-level only — op-level failures ride in the status.
func (ca *Call) Wait() (server.Response, error) {
	if ca.op == server.OpRead {
		return ca.waitRead()
	}
	var out server.Response
	out.Status = server.StatusOK
	var firstErr error
	for _, leg := range ca.legs {
		r, err := leg.call.Wait()
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		leg.bk.observe(ca.op, r.Latency)
		ca.recordLeg(leg, r)
		if r.Latency > out.Latency {
			out.Latency = r.Latency
		}
		if r.Status != server.StatusOK && out.Status == server.StatusOK {
			out.Status = r.Status
			out.Payload = r.Payload
		}
	}
	if firstErr != nil {
		return server.Response{}, firstErr
	}
	return out, nil
}

func (ca *Call) waitRead() (server.Response, error) {
	v := ca.v
	if v.cfg.VerifyReads {
		return ca.waitVerifiedRead()
	}
	r, err := ca.legs[0].call.Wait()
	if err == nil {
		ca.legs[0].bk.observe(server.OpRead, r.Latency)
		ca.recordLeg(ca.legs[0], r)
		return r, nil
	}
	if v.cfg.Sequenced || !errors.Is(err, client.ErrConnLost) {
		return server.Response{}, err
	}
	// The replica's connection died under an idempotent read: retry the
	// remaining copies in placement order.
	tried := ca.locs[ca.legs[0].leg].Backend
	for i, l := range ca.locs {
		if l.Backend == tried {
			continue
		}
		v.count(func(c *Counters) { c.Retries++ })
		rb := v.liveBackend(l.Backend)
		if rb == nil {
			err = fmt.Errorf("%w: backend %d", ErrBackendDown, l.Backend)
			continue
		}
		f := server.Frame{Op: server.OpRead, LPN: l.SLPN}
		if ca.tr.ID != 0 && rb.traced {
			f.Flags |= server.FlagTrace
			f.Trace = ca.tr.ID
			f.ParentHop = telemetry.HopProxy
			f.Leg = uint8(i)
		}
		r, rerr := rb.c.Do(f)
		if rerr == nil {
			rb.observe(server.OpRead, r.Latency)
			ca.recordLeg(rcall{bk: rb, leg: uint8(i)}, r)
			return r, nil
		}
		err = rerr
	}
	return server.Response{}, err
}

// waitVerifiedRead reads every replica, serves the primary copy, and
// rewrites replicas whose payload diverges from it (read-repair). A replica
// on a dead connection is skipped; a dead primary falls back to the first
// healthy copy.
func (ca *Call) waitVerifiedRead() (server.Response, error) {
	v := ca.v
	resps := make([]server.Response, len(ca.legs))
	errs := make([]error, len(ca.legs))
	for i, leg := range ca.legs {
		resps[i], errs[i] = leg.call.Wait()
		if errs[i] == nil {
			leg.bk.observe(server.OpRead, resps[i].Latency)
			ca.recordLeg(leg, resps[i])
		}
	}
	primary := -1
	for i := range ca.legs {
		if errs[i] == nil {
			primary = i
			break
		}
	}
	if primary < 0 {
		return server.Response{}, errs[0]
	}
	out := resps[primary]
	for i := range ca.legs {
		if i == primary || errs[i] != nil {
			continue
		}
		if resps[i].Latency > out.Latency {
			out.Latency = resps[i].Latency
		}
		divergent := out.Status == server.StatusOK &&
			(resps[i].Status != server.StatusOK || string(resps[i].Payload) != string(out.Payload))
		if !divergent {
			continue
		}
		v.count(func(c *Counters) { c.Repairs++ })
		leg := ca.legs[i]
		if wr, werr := leg.bk.c.Write(ca.locs[leg.leg].SLPN, out.Payload, ftl.HintNone); werr == nil {
			leg.bk.observe(server.OpWrite, wr.Latency)
		}
	}
	return out, nil
}

// Read fetches one logical page synchronously.
func (v *Volume) Read(lpn int64) (server.Response, error) {
	ca, err := v.StartRead(lpn, 0, 0, TraceRef{})
	if err != nil {
		return server.Response{}, err
	}
	return ca.Wait()
}

// Write stores one logical page synchronously on every replica.
func (v *Volume) Write(lpn int64, data []byte, hint ftl.Hint) (server.Response, error) {
	ca, err := v.StartWrite(lpn, data, hint, 0, 0, TraceRef{})
	if err != nil {
		return server.Response{}, err
	}
	return ca.Wait()
}

// Trim discards one logical page synchronously on every replica.
func (v *Volume) Trim(lpn int64) (server.Response, error) {
	ca, err := v.StartTrim(lpn, 0, 0, TraceRef{})
	if err != nil {
		return server.Response{}, err
	}
	return ca.Wait()
}

// Flush is the cluster pipeline barrier: it resolves once every request sent
// before it on every backend connection has been answered. Flush consumes no
// sequenced tickets (the backends answer it outside admission).
func (v *Volume) Flush() error {
	v.count(func(c *Counters) { c.Flushes++ })
	v.mu.Lock()
	var cs []*client.Client
	for i, b := range v.bks {
		if v.place.Active(i) && !b.down {
			cs = append(cs, b.c)
		}
	}
	v.mu.Unlock()
	var wg sync.WaitGroup
	errs := make([]error, len(cs))
	for i, c := range cs {
		wg.Add(1)
		go func(i int, c *client.Client) {
			defer wg.Done()
			errs[i] = c.Flush()
		}(i, c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// AddBackend dials addr, attaches it as a new backend, and rebalances stripe
// units onto it while traffic keeps flowing: only the unit being copied
// blocks its writers, and each unit cuts over atomically once its copy
// lands. Returns the new backend index.
func (v *Volume) AddBackend(addr string) (int, error) {
	if v.cfg.Sequenced {
		return 0, fmt.Errorf("volume: rebalance disabled in sequenced mode")
	}
	c, err := client.Dial(addr)
	if err != nil {
		return 0, err
	}
	snap, err := c.Stat()
	if err != nil {
		c.Close()
		return 0, err
	}
	if snap.PageSize != v.pageSize {
		c.Close()
		return 0, fmt.Errorf("volume: %s page size %d, cluster uses %d", addr, snap.PageSize, v.pageSize)
	}
	traced := false
	if ok, perr := c.SupportsTrace(); perr == nil {
		traced = ok
	}
	v.mu.Lock()
	nb, moves, err := v.place.BeginAdd(snap.Capacity / v.cfg.Stripe)
	if err != nil {
		v.mu.Unlock()
		c.Close()
		return 0, err
	}
	v.bks = append(v.bks, &backend{addr: addr, c: c, traced: traced})
	v.mu.Unlock()
	return nb, v.migrate(moves)
}

// RemoveBackend drains backend b: every stripe unit it holds is copied to a
// surviving backend, then its connection closes. Traffic keeps flowing; only
// the unit being copied blocks its writers.
func (v *Volume) RemoveBackend(b int) error {
	if v.cfg.Sequenced {
		return fmt.Errorf("volume: rebalance disabled in sequenced mode")
	}
	v.mu.Lock()
	moves, err := v.place.BeginRemove(b)
	if err != nil {
		v.mu.Unlock()
		return err
	}
	v.mu.Unlock()
	if err := v.migrate(moves); err != nil {
		return err
	}
	v.backend(b).c.Close()
	return nil
}

// KillBackend severs backend b as a fault campaign would: its connection is
// closed and the backend is marked down, so reads fail over to surviving
// replicas and writes skip the leg (counted in Counters.DownSkips) until
// RestartBackend revives it. The placement table is untouched — unlike
// RemoveBackend nothing is migrated, mirroring a crashed process rather than
// a drained one. Refused in sequenced mode, where the per-backend dense
// ticket chain cannot survive a lost connection.
func (v *Volume) KillBackend(b int) error {
	if v.cfg.Sequenced {
		return fmt.Errorf("volume: kill/restart disabled in sequenced mode")
	}
	v.mu.Lock()
	if b < 0 || b >= len(v.bks) {
		v.mu.Unlock()
		return fmt.Errorf("volume: no backend %d", b)
	}
	bk := v.bks[b]
	if bk.down {
		v.mu.Unlock()
		return fmt.Errorf("volume: backend %d already down", b)
	}
	bk.down = true
	c := bk.c
	v.mu.Unlock()
	c.Close()
	return nil
}

// SetBackendDown marks backend b down (or revives it) without touching its
// connection — the deterministic counterpart of KillBackend/RestartBackend
// for campaign engines running sequenced replays. Call only while the volume
// is quiescent (no ops in flight): the down-skip changes which replica legs
// are issued, so flipping it mid-stream would perturb a deterministic
// schedule. The per-backend dense ticket chain survives because a skipped
// leg never consumes a ticket.
func (v *Volume) SetBackendDown(b int, down bool) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if b < 0 || b >= len(v.bks) {
		return fmt.Errorf("volume: no backend %d", b)
	}
	v.bks[b].down = down
	return nil
}

// RestartBackend re-attaches a killed backend: dial addr (empty = the
// backend's original address), verify the page size, and swap the connection
// in. Writes that were skipped while the backend was down are NOT replayed —
// the restarted replica serves whatever its process restored (checkpoint or
// scratch); VerifyReads read-repair or a rebalance heals the divergence.
func (v *Volume) RestartBackend(b int, addr string) error {
	if v.cfg.Sequenced {
		return fmt.Errorf("volume: kill/restart disabled in sequenced mode")
	}
	v.mu.Lock()
	if b < 0 || b >= len(v.bks) {
		v.mu.Unlock()
		return fmt.Errorf("volume: no backend %d", b)
	}
	bk := v.bks[b]
	if !bk.down {
		v.mu.Unlock()
		return fmt.Errorf("volume: backend %d is not down", b)
	}
	if addr == "" {
		addr = bk.addr
	}
	v.mu.Unlock()

	c, err := client.Dial(addr)
	if err != nil {
		return fmt.Errorf("volume: restart backend %d: %w", b, err)
	}
	snap, err := c.Stat()
	if err != nil {
		c.Close()
		return fmt.Errorf("volume: restart stat %s: %w", addr, err)
	}
	if snap.PageSize != v.pageSize {
		c.Close()
		return fmt.Errorf("volume: %s page size %d, cluster uses %d", addr, snap.PageSize, v.pageSize)
	}
	traced := false
	if ok, perr := c.SupportsTrace(); perr == nil {
		traced = ok
	}
	v.mu.Lock()
	bk.addr, bk.c, bk.traced, bk.down = addr, c, traced, false
	v.mu.Unlock()
	return nil
}

// migrate copies each planned move's shard range and commits it. For each
// unit: block new writers, drain the source connection's in-flight pipeline,
// copy the pages, cut over, unblock.
func (v *Volume) migrate(moves []Move) error {
	for _, m := range moves {
		v.mu.Lock()
		v.copying[m.Unit] = true
		from, to := v.bks[m.From].c, v.bks[m.To].c
		stripe := v.cfg.Stripe
		v.mu.Unlock()

		// The source connection carries all of this volume's traffic to that
		// backend, so its flush barrier drains any write still in flight
		// toward the unit we are about to copy.
		err := from.Flush()
		for off := int64(0); err == nil && off < stripe; off++ {
			src, dst := m.FromSlot*stripe+off, m.ToSlot*stripe+off
			var r server.Response
			r, err = from.Do(server.Frame{Op: server.OpRead, LPN: src})
			if err != nil {
				break
			}
			switch r.Status {
			case server.StatusOK:
				_, err = to.Write(dst, r.Payload, ftl.HintNone)
			case server.StatusBadRequest:
				// Source page unmapped; make sure a stale tenant of this
				// destination slot cannot shine through.
				if tr, terr := to.Trim(dst); terr != nil && tr.Status != server.StatusBadRequest {
					err = terr
				}
			default:
				err = fmt.Errorf("volume: migrating unit %d: read %v", m.Unit, r.Status)
			}
		}

		v.mu.Lock()
		if err == nil {
			err = v.place.Commit(m)
		}
		delete(v.copying, m.Unit)
		v.cond.Broadcast()
		v.mu.Unlock()
		if err != nil {
			return err
		}
		v.count(func(c *Counters) { c.UnitMoves++ })
	}
	return nil
}

// BackendStat is one backend's slice of the cluster view.
type BackendStat struct {
	Backend int                 `json:"backend"`
	Addr    string              `json:"addr"`
	Active  bool                `json:"active"`
	Down    bool                `json:"down,omitempty"`
	Slots   int64               `json:"slots_used"`
	Error   string              `json:"error,omitempty"`
	Reads   stats.DigestSummary `json:"read_latency_us"`
	Writes  stats.DigestSummary `json:"write_latency_us"`
	Snap    server.StatSnapshot `json:"stat"`
}

// ClusterSnapshot merges every backend's statistics into one view. The
// embedded StatSnapshot carries the cluster totals under the same JSON keys
// a single server reports, so an unmodified client.Stat() against the proxy
// decodes it; Backends and Volume add the per-shard breakdown.
type ClusterSnapshot struct {
	server.StatSnapshot
	Stripe   int64               `json:"stripe_pages"`
	Replicas int                 `json:"replicas"`
	Volume   Counters            `json:"volume"`
	ReadLat  stats.DigestSummary `json:"read_latency_us"`
	WriteLat stats.DigestSummary `json:"write_latency_us"`
	Backends []BackendStat       `json:"backends"`
}

// ClusterStat polls every backend's STAT endpoint and merges the device and
// server counters; per-backend latency digests merge into the cluster-wide
// quantiles. Backends that fail to answer are reported with an error string
// and excluded from the sums.
func (v *Volume) ClusterStat() ClusterSnapshot {
	v.mu.Lock()
	type probe struct {
		i      int
		b      *backend
		active bool
		down   bool
		slots  int64
	}
	var ps []probe
	for i, b := range v.bks {
		ps = append(ps, probe{i: i, b: b, active: v.place.Active(i), down: b.down, slots: v.place.SlotsUsed(i)})
	}
	out := ClusterSnapshot{
		Stripe:   v.cfg.Stripe,
		Replicas: v.cfg.Replicas,
	}
	out.Capacity = v.place.Space()
	v.mu.Unlock()
	out.PageSize = v.pageSize
	v.cmu.Lock()
	out.Volume = v.counters
	v.cmu.Unlock()

	readDs := make([]*stats.LatencyDigest, 0, len(ps))
	writeDs := make([]*stats.LatencyDigest, 0, len(ps))
	var hostWrites, flashWrites uint64
	for _, p := range ps {
		bs := BackendStat{Backend: p.i, Addr: p.b.addr, Active: p.active, Down: p.down, Slots: p.slots}
		p.b.lmu.Lock()
		rd, wd := p.b.readLat, p.b.writeLat
		p.b.lmu.Unlock()
		bs.Reads, bs.Writes = rd.Summary(), wd.Summary()
		readDs = append(readDs, &rd)
		writeDs = append(writeDs, &wd)
		if !p.active || p.down {
			out.Backends = append(out.Backends, bs)
			continue
		}
		snap, err := p.b.c.Stat()
		if err != nil {
			bs.Error = err.Error()
			out.Backends = append(out.Backends, bs)
			continue
		}
		snap.Device.Latencies = nil // per-request arrays stay shard-local
		bs.Snap = snap
		out.Backends = append(out.Backends, bs)

		out.Device.Requests += snap.Device.Requests
		out.Device.Reads += snap.Device.Reads
		out.Device.Writes += snap.Device.Writes
		out.Device.Trims += snap.Device.Trims
		out.Server.Conns += snap.Server.Conns
		out.Server.ConnsEver += snap.Server.ConnsEver
		out.Server.Accepted += snap.Server.Accepted
		out.Server.Responses += snap.Server.Responses
		out.Server.Rejected += snap.Server.Rejected
		out.Server.InFlight += snap.Server.InFlight
		out.Server.BytesIn += snap.Server.BytesIn
		out.Server.BytesOut += snap.Server.BytesOut
		out.FTL.HostWrites += snap.FTL.HostWrites
		out.FTL.HostReads += snap.FTL.HostReads
		out.FTL.GCWrites += snap.FTL.GCWrites
		out.FTL.GCRuns += snap.FTL.GCRuns
		out.FTL.GCLatency += snap.FTL.GCLatency
		out.FTL.GCSteps += snap.FTL.GCSteps
		out.FTL.GCStalls += snap.FTL.GCStalls
		hostWrites += snap.FTL.HostWrites
		flashWrites += snap.FTL.HostWrites + snap.FTL.GCWrites
	}
	if hostWrites > 0 {
		out.WAF = float64(flashWrites) / float64(hostWrites)
	}
	out.ReadLat = stats.MergeDigests(readDs...).Summary()
	out.WriteLat = stats.MergeDigests(writeDs...).Summary()
	return out
}
