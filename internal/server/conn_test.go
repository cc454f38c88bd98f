package server

import (
	"bufio"
	"context"
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"superfast/internal/ssd"
	"superfast/internal/workload"
)

// frameFor maps a device request onto its unsequenced wire frame.
func frameFor(id uint64, r ssd.Request) Frame {
	f := Frame{ID: id, LPN: r.LPN, Arrival: r.Arrival}
	switch r.Kind {
	case ssd.OpRead:
		f.Op = OpRead
	case ssd.OpWrite:
		f.Op, f.Payload, f.Hint = OpWrite, r.Data, r.Hint
	case ssd.OpTrim:
		f.Op = OpTrim
	}
	return f
}

// serveStream plays reqs over one connection to a fresh server on a fresh
// device, keeping depth requests in flight, and returns each request's
// status and simulated latency.
func serveStream(t *testing.T, reqs []ssd.Request, depth int) ([]Status, []float64) {
	t.Helper()
	_, addr := startServer(t, testDevice(t), Config{})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	window := make(chan struct{}, depth)
	go func() {
		var buf []byte
		for i, r := range reqs {
			window <- struct{}{}
			buf, _ = AppendFrame(buf[:0], frameFor(uint64(i), r))
			if _, err := nc.Write(buf); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	status := make([]Status, len(reqs))
	lat := make([]float64, len(reqs))
	br := bufio.NewReader(nc)
	for range reqs {
		r, _, err := ReadResponse(br)
		if err != nil {
			t.Fatal(err)
		}
		status[r.ID], lat[r.ID] = r.Status, r.Latency
		<-window
	}
	return status, lat
}

// TestWireOrderIsDeviceOrder pins what serving inline buys: one connection's
// unsequenced requests enter the device in the order they were written to
// the socket, so a pipelined run reports, request for request, the simulated
// latencies of submitting the same stream directly and in order — and
// reports them again on the next run.
func TestWireOrderIsDeviceOrder(t *testing.T) {
	direct := testDevice(t)
	reqs := workload.Collect(&workload.Paced{
		Gen:       &workload.Mixed{Space: direct.FTL().Capacity(), Count: 600, ReadFrac: 0.5, PageLen: 24, Seed: 21},
		MeanGapUS: 40,
		Seed:      22,
	})
	for i := 1; i < len(reqs); i++ {
		if reqs[i].Arrival < reqs[i-1].Arrival {
			t.Fatalf("arrival %d descends", i)
		}
	}
	status, lat := serveStream(t, reqs, 32)
	for i, r := range reqs {
		comp, err := direct.Submit(r)
		if status[i] != StatusFor(err) || lat[i] != comp.Latency {
			t.Fatalf("request %d: served %v %v µs, direct %v %v µs", i, status[i], lat[i], StatusFor(err), comp.Latency)
		}
	}
	status2, lat2 := serveStream(t, reqs, 32)
	for i := range reqs {
		if status2[i] != status[i] || lat2[i] != lat[i] {
			t.Fatalf("request %d: second run %v %v µs, first %v %v µs", i, status2[i], lat2[i], status[i], lat[i])
		}
	}
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

// checkSettled asserts what a server owes after its connections are gone:
// every accepted frame answered, no admission slot held, and no goroutine
// beyond the base count left behind.
func checkSettled(t *testing.T, srv *Server, base int) {
	t.Helper()
	waitFor(t, "connections to close", func() bool { return srv.Stats().Conns == 0 })
	st := srv.Stats()
	if st.Accepted != st.Responses {
		t.Errorf("accepted %d, responses %d", st.Accepted, st.Responses)
	}
	if n := srv.adm.load(); n != 0 {
		t.Errorf("%d admission slots still held", n)
	}
	waitFor(t, "connection goroutines to exit", func() bool { return runtime.NumGoroutine() <= base })
}

// TestStalledClientStallsOnlyItself: the connection goroutine writes
// responses itself, so a client that pipelines reads and never reads a
// response ends up blocking it in a socket write. That must cost the other
// connections nothing — not even with a single admission slot to share —
// and a Shutdown whose context expires must tear the stalled one down.
func TestStalledClientStallsOnlyItself(t *testing.T) {
	dev := testDevice(t)
	srv := New(dev, Config{MaxInFlight: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	good := dialRaw(t, ln.Addr().String())
	page := make([]byte, dev.PageSize())
	if r := good.call(Frame{Op: OpWrite, ID: 1, LPN: 7, Payload: page}); r.Status != StatusOK {
		t.Fatalf("write: %v", r.Status)
	}

	hostile, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer hostile.Close()
	hostile.(*net.TCPConn).SetReadBuffer(4 << 10)
	const reads = 1 << 16
	go func() {
		// Far more page-sized responses than the socket buffers between the
		// two ends can hold; the write blocks once the server stops reading.
		var buf []byte
		for i := uint64(0); i < reads; i++ {
			buf, _ = AppendFrame(buf[:0], Frame{Op: OpRead, ID: i, LPN: 7})
			if _, err := hostile.Write(buf); err != nil {
				return
			}
		}
	}()
	// Stalled: the response count has stopped moving, short of the total and
	// for long enough that it is not just a slow machine.
	last, still := srv.Stats().Responses, 0
	waitFor(t, "the hostile connection to stall", func() bool {
		time.Sleep(50 * time.Millisecond)
		now := srv.Stats().Responses
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
	if n := srv.adm.load(); n != 0 {
		t.Fatalf("stalled connection holds %d admission slots", n)
	}

	good.nc.SetDeadline(time.Now().Add(5 * time.Second))
	for i := uint64(2); i < 200; i++ {
		if r := good.call(Frame{Op: OpRead, ID: i, LPN: 7}); r.Status != StatusOK {
			t.Fatalf("read %d beside a stalled connection: %v", i, r.Status)
		}
	}
	if srv.Stats().Responses != last+198 {
		t.Fatalf("the stalled connection moved: %d responses, want %d", srv.Stats().Responses, last+198)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want the context's deadline", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	st := srv.Stats()
	if st.Conns != 0 || st.Accepted != st.Responses || srv.adm.load() != 0 {
		t.Fatalf("after forced shutdown: %+v, %d slots held", st, srv.adm.load())
	}
}

// TestPeerDisconnectsMidFrame: a peer that goes away half way through a
// frame is accounted for byte by byte and leaves nothing behind.
func TestPeerDisconnectsMidFrame(t *testing.T) {
	srv, addr := startServer(t, testDevice(t), Config{})
	base := runtime.NumGoroutine()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	whole, _ := AppendFrame(nil, Frame{Op: OpWrite, ID: 1, LPN: 3, Payload: []byte("whole")})
	half, _ := AppendFrame(nil, Frame{Op: OpWrite, ID: 2, LPN: 4, Payload: make([]byte, 512)})
	half = half[:len(half)/2]
	if _, err := nc.Write(append(whole, half...)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the whole frame's response", func() bool { return srv.Stats().Responses == 1 })
	nc.Close()
	checkSettled(t, srv, base)
	if st := srv.Stats(); st.Accepted != 1 || st.BytesIn != uint64(len(whole)+len(half)) {
		t.Fatalf("accepted %d frames in %d bytes, want 1 in %d", st.Accepted, st.BytesIn, len(whole)+len(half))
	}
}

// TestPeerDisconnectsWithPacedResponsesPending: paced responses are the one
// thing that outlives the connection goroutine's loop iteration. A peer that
// disconnects while they are pending must still get every one counted, every
// slot released, and the connection's goroutines gone.
func TestPeerDisconnectsWithPacedResponsesPending(t *testing.T) {
	srv, addr := startServer(t, testDevice(t), Config{Pace: 200})
	base := runtime.NumGoroutine()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	// Enough sequential writes to flush super word lines: those carry real
	// program latency, hundreds of wall milliseconds at this pace.
	const writes = 48
	var buf []byte
	for i := 0; i < writes; i++ {
		buf, _ = AppendFrame(buf, Frame{Op: OpWrite, ID: uint64(i), LPN: int64(i), Payload: []byte("paced page")})
	}
	if _, err := nc.Write(buf); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the writes to be accepted", func() bool { return srv.Stats().Accepted == writes })
	if st := srv.Stats(); st.Responses == st.Accepted {
		t.Fatal("no paced response pending at disconnect; raise Pace")
	}
	nc.Close()
	checkSettled(t, srv, base)
}
