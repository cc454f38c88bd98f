package volume

import (
	"bufio"
	"context"
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"superfast/internal/server"
	"superfast/internal/server/client"
)

// rawConn speaks the wire protocol by hand, so a test decides what shares a
// segment and whether responses are ever read.
type rawConn struct {
	t  *testing.T
	nc net.Conn
	br *bufio.Reader
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return &rawConn{t: t, nc: nc, br: bufio.NewReader(nc)}
}

// send writes the frames in one Write: one segment on loopback.
func (c *rawConn) send(fs ...server.Frame) {
	c.t.Helper()
	var buf []byte
	for _, f := range fs {
		var err error
		if buf, err = server.AppendFrame(buf, f); err != nil {
			c.t.Fatal(err)
		}
	}
	if _, err := c.nc.Write(buf); err != nil {
		c.t.Fatal(err)
	}
}

// recv reads the next response, giving up after five seconds.
func (c *rawConn) recv() server.Response {
	c.t.Helper()
	c.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	r, _, err := server.ReadResponse(c.br)
	if err != nil {
		c.t.Fatalf("no response: %v", err)
	}
	return r
}

// waitFor polls cond for up to five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for end := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(end) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// lpnOn returns the first logical page whose primary copy sits on backend b.
func lpnOn(t *testing.T, v *Volume, b int) int64 {
	t.Helper()
	v.mu.Lock()
	defer v.mu.Unlock()
	for lpn := int64(0); lpn < v.place.Space(); lpn++ {
		if locs, err := v.place.Locate(lpn, nil); err == nil && locs[0].Backend == b {
			return lpn
		}
	}
	t.Fatalf("no page placed on backend %d", b)
	return 0
}

// TestProxyStalledClientStallsOnlyItself: ops complete on the backend
// connections' readers, which every client of the volume shares. A client that
// pipelines reads and never reads a response fills its own response queue and
// stalls its own reader; it must cost a second connection nothing, and a
// Shutdown whose context expires must tear it down.
func TestProxyStalledClientStallsOnlyItself(t *testing.T) {
	v, _ := startCluster(t, 2, server.Config{}, Config{Stripe: 2, Replicas: 2})
	p := NewProxy(v, ProxyConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- p.Serve(ln) }()
	good, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	if r, err := good.Write(7, make([]byte, v.PageSize()), 0); err != nil || r.Status != server.StatusOK {
		t.Fatalf("write: %v %v", err, r.Status)
	}

	hostile := dialRaw(t, ln.Addr().String())
	hostile.nc.(*net.TCPConn).SetReadBuffer(4 << 10)
	const reads = 1 << 16
	go func() {
		// Far more page-sized responses than the socket buffers between the
		// two ends can hold; the write blocks once the proxy stops reading.
		var buf []byte
		for i := uint64(0); i < reads; i++ {
			buf, _ = server.AppendFrame(buf[:0], server.Frame{Op: server.OpRead, ID: i, LPN: 7})
			if _, err := hostile.nc.Write(buf); err != nil {
				return
			}
		}
	}()
	// Stalled: the response count has stopped moving, short of the total and
	// for long enough that it is not just a slow machine.
	last, still := p.Stats().Responses, 0
	waitFor(t, "the hostile connection to stall", func() bool {
		time.Sleep(50 * time.Millisecond)
		now := p.Stats().Responses
		if now == last && now > 1 {
			still++
		} else {
			still = 0
		}
		last = now
		return still == 3
	})
	if last > reads {
		t.Fatal("every read was answered: the socket buffers never filled")
	}

	done := make(chan error, 1)
	go func() {
		for i := 0; i < 200; i++ {
			if r, err := good.Read(7); err != nil || r.Status != server.StatusOK {
				done <- errors.Join(err, r.Err())
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("read beside a stalled connection: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a stalled connection stalled its neighbour")
	}
	if got := p.Stats().Responses; got != last+200 {
		t.Fatalf("the stalled connection moved: %d responses, want %d", got, last+200)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := p.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want the context's deadline", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if st := p.Stats(); st.Conns != 0 || st.Accepted != st.Responses {
		t.Fatalf("after forced shutdown: %+v", st)
	}
}

// TestProxyPeerDisconnectsWithOpsInFlight: a peer that goes away with ops
// still out on the backends gets every one of them counted and leaves no
// goroutine and no slot behind; the volume serves on.
func TestProxyPeerDisconnectsWithOpsInFlight(t *testing.T) {
	// Both backends take every write; enough of them flush super word lines,
	// which carry real program latency — hundreds of wall milliseconds paced.
	v, _ := startCluster(t, 2, server.Config{Pace: 50}, Config{Stripe: 2, Replicas: 2})
	p, addr := startProxy(t, v)
	base := runtime.NumGoroutine()
	c := dialRaw(t, addr)
	const writes = 48
	fs := make([]server.Frame, writes)
	for i := range fs {
		fs[i] = server.Frame{Op: server.OpWrite, ID: uint64(i), LPN: int64(i), Payload: []byte("paced page")}
	}
	c.send(fs...)
	waitFor(t, "the writes to be accepted", func() bool { return p.Stats().Accepted == writes })
	if st := p.Stats(); st.Responses == st.Accepted {
		t.Fatal("nothing in flight at disconnect; raise Pace")
	}
	c.nc.Close()
	waitFor(t, "the connection to close", func() bool { return p.Stats().Conns == 0 })
	if st := p.Stats(); st.Accepted != st.Responses {
		t.Errorf("accepted %d, responses %d", st.Accepted, st.Responses)
	}
	waitFor(t, "connection goroutines to exit", func() bool { return runtime.NumGoroutine() <= base })
	if r, err := v.Read(0); err != nil || r.Status != server.StatusOK {
		t.Fatalf("volume unusable after the disconnect: %v %v", err, r.Status)
	}
}

// TestProxyCompletesOutOfOrder: responses leave in completion order, so an op
// waiting on a slow backend does not hold back a later op of the same
// connection that a fast backend has already answered.
func TestProxyCompletesOutOfOrder(t *testing.T) {
	// Pace holds the slow backend's response for ~90ms (see
	// TestProxyReplicatedWriteBackendDeath).
	slow, fast := startBackend(t, server.Config{Pace: 1e7}), startBackend(t, server.Config{})
	v, err := Dial([]string{slow.addr, fast.addr}, Config{Stripe: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(v.Close)
	_, addr := startProxy(t, v)
	c := dialRaw(t, addr)
	c.send(
		server.Frame{Op: server.OpWrite, ID: 1, LPN: lpnOn(t, v, 0), Payload: []byte("slow")},
		server.Frame{Op: server.OpWrite, ID: 2, LPN: lpnOn(t, v, 1), Payload: []byte("fast")},
	)
	for _, want := range []uint64{2, 1} {
		if r := c.recv(); r.ID != want || r.Status != server.StatusOK {
			t.Fatalf("response %d %v, want %d OK", r.ID, r.Status, want)
		}
	}
}

// TestQueuedLegsFlushBeforeBlocking: legs are queued while input is buffered,
// and pushed before the reader waits for anything. Connection A sends tickets
// 0 and 2 in one segment; its reader queues ticket 0's leg, finds ticket 2
// buffered and waits for the cursor. Ticket 1 comes from B only once A has
// seen response 0 — which it never does if that leg is still in a buffer.
func TestQueuedLegsFlushBeforeBlocking(t *testing.T) {
	v, _ := startCluster(t, 2, server.Config{Sequenced: true}, Config{Stripe: 2, Sequenced: true})
	_, addr := startProxy(t, v)
	// Runs before the proxy's cleanup: if this test fails, a reader is still
	// waiting for the cursor, and only closing the volume lets it go.
	t.Cleanup(v.Close)
	a, b := dialRaw(t, addr), dialRaw(t, addr)
	write := func(seq uint64) server.Frame {
		return server.Frame{Op: server.OpWrite, ID: seq, LPN: int64(seq), Payload: []byte("ticket"), Flags: server.FlagSequenced, Seq: seq}
	}
	a.send(write(0), write(2))
	if r := a.recv(); r.ID != 0 || r.Status != server.StatusOK {
		t.Fatalf("ticket 0: response %d %v", r.ID, r.Status)
	}
	b.send(write(1))
	if r := b.recv(); r.ID != 1 || r.Status != server.StatusOK {
		t.Fatalf("ticket 1: response %d %v", r.ID, r.Status)
	}
	if r := a.recv(); r.ID != 2 || r.Status != server.StatusOK {
		t.Fatalf("ticket 2: response %d %v", r.ID, r.Status)
	}
}

// TestProxyLetsGoOfFrameBeforeBlocking: a WRITE's payload stays in the read
// buffer while the frame is served, and a held frame counts as buffered input.
// The reader must discard it before it asks whether more input is buffered —
// or, at depth 1, it takes its own frame for the next one, skips the push and
// blocks on the socket with the write's legs still queued. (Shown to hang with
// the Discard moved below the test in proxyConn.reader.)
func TestProxyLetsGoOfFrameBeforeBlocking(t *testing.T) {
	v, _ := startCluster(t, 2, server.Config{}, Config{Stripe: 2, Replicas: 2})
	_, addr := startProxy(t, v)
	c := dialRaw(t, addr)
	for id := uint64(0); id < 3; id++ {
		c.send(server.Frame{Op: server.OpWrite, ID: id, LPN: 1, Payload: make([]byte, v.PageSize())})
		if r := c.recv(); r.ID != id || r.Status != server.StatusOK {
			t.Fatalf("write %d: response %d %v", id, r.ID, r.Status)
		}
	}
}
