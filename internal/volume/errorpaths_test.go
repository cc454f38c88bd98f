package volume

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"superfast/internal/ftl"
	"superfast/internal/server"
	"superfast/internal/server/client"
)

// TestProxyReplicatedWriteBackendDeath: a backend whose transport dies
// mid-scatter — after the write fanned out, before its leg answered — fails
// the replicated write with a typed INTERNAL response through the proxy (no
// hang, no vanished request), and the frontend connection survives to serve
// the next op.
func TestProxyReplicatedWriteBackendDeath(t *testing.T) {
	// Pace holds every backend response for ~90ms of wall time (buffered
	// writes complete in ~0.009 simulated µs), so the severing below
	// deterministically lands between scatter and gather.
	v, _ := startCluster(t, 3, server.Config{Pace: 1e7}, Config{Stripe: 2, Replicas: 2})
	_, addr := startProxy(t, v)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const lpn = int64(1)
	v.mu.Lock()
	locs, lerr := v.place.Locate(lpn, nil)
	v.mu.Unlock()
	if lerr != nil {
		t.Fatal(lerr)
	}
	if len(locs) != 2 {
		t.Fatalf("%d replicas placed, want 2", len(locs))
	}

	call, err := c.Start(server.Frame{Op: server.OpWrite, LPN: lpn, Payload: []byte("mid-scatter")})
	if err != nil {
		t.Fatal(err)
	}
	// Let the proxy scatter the write to both backends (their paced
	// responses are still at least ~75ms away), then kill the secondary
	// leg's transport.
	time.Sleep(25 * time.Millisecond)
	v.backend(locs[1].Backend).c.Close()

	r, err := call.Wait()
	if err != nil {
		t.Fatalf("write through proxy must answer, not kill the conn: %v", err)
	}
	if r.Status != server.StatusInternal {
		t.Fatalf("write with a dying replica answered %v, want INTERNAL", r.Status)
	}
	if len(r.Payload) == 0 {
		t.Fatal("error response carries no diagnostic payload")
	}
	// The frontend connection is still healthy, and the read fails over to
	// the surviving primary — which committed its leg before the gather
	// failed (replication is not transactional).
	if err := c.Ping(); err != nil {
		t.Fatalf("proxy conn dead after failed scatter: %v", err)
	}
	rr, err := c.Read(lpn)
	if err != nil || rr.Status != server.StatusOK {
		t.Fatalf("failover read through proxy: %v %v", err, rr.Status)
	}
	if !strings.HasPrefix(string(rr.Payload), "mid-scatter") {
		t.Fatalf("surviving replica holds %q", rr.Payload[:11])
	}
}

// TestProxyStartTimeTransportFailure: an op that cannot even be started
// because a replica's transport is gone is the cluster's failure, not the
// caller's — INTERNAL like the mid-scatter case above, never BAD_REQUEST, and
// not counted as a rejected request. Only an LPN outside the volume is.
func TestProxyStartTimeTransportFailure(t *testing.T) {
	v, _ := startCluster(t, 2, server.Config{}, Config{Stripe: 2})
	p, addr := startProxy(t, v)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// A connection severed under the volume (client.ErrClosed at Queue).
	onDead, onDown := lpnOn(t, v, 0), lpnOn(t, v, 1)
	v.backend(0).c.Close()
	// A backend marked down (ErrBackendDown: no healthy replica).
	if err := v.KillBackend(1); err != nil {
		t.Fatal(err)
	}
	for _, f := range []server.Frame{
		{Op: server.OpWrite, LPN: onDead, Payload: []byte("nowhere")},
		{Op: server.OpRead, LPN: onDead},
		{Op: server.OpWrite, LPN: onDown, Payload: []byte("nowhere")},
		{Op: server.OpRead, LPN: onDown},
	} {
		r, err := c.Do(f)
		if err != nil {
			t.Fatalf("%v lpn %d must answer, not kill the conn: %v", f.Op, f.LPN, err)
		}
		if r.Status != server.StatusInternal || len(r.Payload) == 0 {
			t.Fatalf("%v lpn %d with its backend gone answered %v %q, want INTERNAL and a diagnostic", f.Op, f.LPN, r.Status, r.Payload)
		}
	}
	if st := p.Stats(); st.Rejected != 0 {
		t.Fatalf("%d transport failures counted as rejected requests", st.Rejected)
	}
	if r, err := c.Do(server.Frame{Op: server.OpRead, LPN: v.Space()}); err != nil || r.Status != server.StatusBadRequest {
		t.Fatalf("out-of-range: %v %v, want BAD_REQUEST", err, r.Status)
	}
	if st := p.Stats(); st.Rejected != 1 || st.Accepted != st.Responses {
		t.Fatalf("proxy stats %+v", st)
	}
}

// TestProxyScatterWorstStatus: when every leg answers but one answers badly,
// the merged response reports the worst status while still carrying the
// slowest successful leg's latency — a replicated op is only as good as its
// weakest replica. The bad leg here is a backend in sequenced mode, which
// rejects the volume's unsequenced frames as BAD_REQUEST.
func TestProxyScatterWorstStatus(t *testing.T) {
	bks := []*testBackend{
		startBackend(t, server.Config{}),
		startBackend(t, server.Config{}),
		startBackend(t, server.Config{Sequenced: true}),
	}
	v, err := Dial([]string{bks[0].addr, bks[1].addr, bks[2].addr}, Config{Stripe: 2, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(v.Close)
	_, addr := startProxy(t, v)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Find one page replicated onto the mismatched backend and one kept off
	// it entirely.
	onBad, offBad := int64(-1), int64(-1)
	for lpn := int64(0); lpn < v.Space() && (onBad < 0 || offBad < 0); lpn++ {
		v.mu.Lock()
		locs, lerr := v.place.Locate(lpn, nil)
		v.mu.Unlock()
		if lerr != nil {
			t.Fatal(lerr)
		}
		hits := false
		for _, l := range locs {
			if l.Backend == 2 {
				hits = true
			}
		}
		if hits && onBad < 0 {
			onBad = lpn
		}
		if !hits && offBad < 0 {
			offBad = lpn
		}
	}
	if onBad < 0 || offBad < 0 {
		t.Fatalf("placement never produced the needed pages (onBad=%d offBad=%d)", onBad, offBad)
	}

	r, err := c.Do(server.Frame{Op: server.OpWrite, LPN: onBad, Payload: []byte("half-good")})
	if err != nil {
		t.Fatalf("scatter with one bad leg must answer: %v", err)
	}
	if r.Status != server.StatusBadRequest {
		t.Fatalf("merged status %v, want BAD_REQUEST from the worst leg", r.Status)
	}
	if r.Latency <= 0 {
		t.Fatal("merged response lost the successful leg's latency")
	}
	if len(r.Payload) == 0 {
		t.Fatal("merged response lost the bad leg's diagnostic payload")
	}
	// A page placed entirely on healthy backends still writes clean.
	if r, err := c.Write(offBad, []byte("all-good"), ftl.HintNone); err != nil || r.Status != server.StatusOK {
		t.Fatalf("healthy-placement write: %v %v", err, r.Status)
	}
}

// TestProxyUnencodableResponse: a response whose payload exceeds MaxPayload —
// the merged STAT of a large enough cluster — cannot go on the wire. Its ID is
// answered INTERNAL with the size error, as a backend does, and the
// connection serves on; it used to drop that response and every later one.
func TestProxyUnencodableResponse(t *testing.T) {
	v, _ := startCluster(t, 2, server.Config{}, Config{Stripe: 2})
	p, addr := startProxy(t, v)
	c := dialRaw(t, addr)
	c.send(server.Frame{Op: server.OpPing, ID: 1})
	if r := c.recv(); r.ID != 1 || r.Status != server.StatusOK {
		t.Fatalf("ping: response %d %v", r.ID, r.Status)
	}
	// The reader is idle, so this stands in for a frame it accepted.
	pc := proxyConnOf(t, p)
	p.accepted.Add(1)
	pc.slots <- struct{}{}
	pc.respond(server.Response{Status: server.StatusOK, ID: 2, Payload: make([]byte, server.MaxPayload+1)})
	if r := c.recv(); r.ID != 2 || r.Status != server.StatusInternal || !strings.Contains(string(r.Payload), "out of bounds") {
		t.Fatalf("oversized response answered %d %v %q, want 2 INTERNAL and the size error", r.ID, r.Status, r.Payload)
	}
	c.send(server.Frame{Op: server.OpPing, ID: 3})
	if r := c.recv(); r.ID != 3 || r.Status != server.StatusOK {
		t.Fatalf("ping after it: response %d %v", r.ID, r.Status)
	}
}

// TestProxyStatWithDeadBackend: STAT through the proxy keeps answering when
// a backend is down — the merged snapshot simply carries the dead shard's
// error and sums only the live ones.
func TestProxyStatWithDeadBackend(t *testing.T) {
	v, bks := startCluster(t, 3, server.Config{}, Config{Stripe: 2})
	_, addr := startProxy(t, v)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if r, err := c.Write(0, []byte("pre-death"), ftl.HintNone); err != nil || r.Status != server.StatusOK {
		t.Fatalf("write: %v %v", err, r.Status)
	}
	before, err := c.Stat()
	if err != nil {
		t.Fatalf("stat with all backends up: %v", err)
	}
	if before.Device.Writes != 1 {
		t.Fatalf("merged writes %d, want 1", before.Device.Writes)
	}

	bks[2].stop()

	// The unmodified client still decodes the merged snapshot.
	snap, err := c.Stat()
	if err != nil {
		t.Fatalf("stat with a dead backend: %v", err)
	}
	if snap.Capacity != v.Space() || snap.PageSize != v.PageSize() {
		t.Fatalf("merged snapshot %d/%d, want %d/%d", snap.Capacity, snap.PageSize, v.Space(), v.PageSize())
	}

	// The cluster view marks exactly the dead shard.
	cs := v.ClusterStat()
	dead := 0
	for _, b := range cs.Backends {
		if b.Backend == 2 {
			if b.Error == "" {
				t.Fatal("dead backend reports no probe error")
			}
			dead++
		} else if b.Error != "" {
			t.Fatalf("live backend %d reports error %q", b.Backend, b.Error)
		}
	}
	if dead != 1 {
		t.Fatalf("%d dead backends in snapshot, want 1", dead)
	}
	// The cluster snapshot is still valid JSON end to end (what /cluster and
	// the STAT payload serve).
	if _, err := json.Marshal(cs); err != nil {
		t.Fatalf("cluster snapshot not serializable: %v", err)
	}
}
