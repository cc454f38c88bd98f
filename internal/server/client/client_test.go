package client

import (
	"bytes"
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"
	"unsafe"

	"superfast/internal/flash"
	"superfast/internal/ftl"
	"superfast/internal/pv"
	"superfast/internal/server"
	"superfast/internal/ssd"
	"superfast/internal/telemetry"
)

// startServer spins a real block service on a loopback listener.
func startServer(t testing.TB, cfg server.Config) (*server.Server, string) {
	t.Helper()
	g := flash.TestGeometry()
	g.BlocksPerPlane = 12
	g.Layers = 12
	p := pv.DefaultParams()
	p.Layers = g.Layers
	p.Strings = g.Strings
	arr := flash.MustNewArray(g, pv.New(p), flash.DefaultECC())
	dcfg := ssd.DefaultConfig()
	dcfg.FTL.Overprovision = 0.25
	dev, err := ssd.NewConcurrent(arr, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dev.Close)
	srv := server.New(dev, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

func dialTest(t testing.TB, addr string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestClientSugar(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	c := dialTest(t, addr)

	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	data := []byte("client page payload")
	wr, err := c.Write(3, data, ftl.HintSmall)
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	if wr.Status != server.StatusOK {
		t.Fatalf("write status %v", wr.Status)
	}
	rd, err := c.Read(3)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !strings.HasPrefix(string(rd.Payload), string(data)) {
		t.Fatalf("read %q, want prefix %q", rd.Payload, data)
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if _, err := c.Trim(3); err != nil {
		t.Fatalf("trim: %v", err)
	}
	// The trimmed page now reads as BAD_REQUEST, surfaced through the error.
	if _, err := c.Read(3); err == nil || !strings.Contains(err.Error(), "BAD_REQUEST") {
		t.Fatalf("read after trim: %v", err)
	}

	snap, err := c.Stat()
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	if snap.Capacity <= 0 || snap.PageSize <= 0 {
		t.Fatalf("stat snapshot %+v", snap)
	}
	// The failed post-trim read never reached the flash, so only the
	// successful one counts.
	if snap.Device.Writes != 1 || snap.Device.Reads != 1 || snap.Device.Trims != 1 {
		t.Fatalf("device counters %+v", snap.Device)
	}
	if snap.Server.Conns != 1 {
		t.Fatalf("server counters %+v", snap.Server)
	}
}

func TestClientPipelining(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	c := dialTest(t, addr)

	const n = 64
	calls := make([]*Call, n)
	for i := 0; i < n; i++ {
		call, err := c.Start(server.Frame{Op: server.OpWrite, LPN: int64(i % 16), Payload: []byte("pipelined")})
		if err != nil {
			t.Fatalf("start %d: %v", i, err)
		}
		calls[i] = call
	}
	for i, call := range calls {
		r, err := call.Wait()
		if err != nil {
			t.Fatalf("wait %d: %v", i, err)
		}
		if r.Status != server.StatusOK {
			t.Fatalf("call %d: %v", i, r.Status)
		}
	}
	if err := c.Err(); err != nil {
		t.Fatalf("healthy connection reports %v", err)
	}
}

func TestClientClose(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := c.Err(); err == nil {
		t.Fatal("closed client should report an error")
	}
	if _, err := c.Start(server.Frame{Op: server.OpPing}); err == nil {
		t.Fatal("start after close should fail")
	}
	if err := c.Close(); err == nil {
		// Double close surfaces the net.Conn error; both outcomes are fine,
		// it just must not panic or hang.
		t.Log("double close returned nil")
	}
}

func TestClientServerGone(t *testing.T) {
	srv, addr := startServer(t, server.Config{})
	c := dialTest(t, addr)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	// The connection is gone; calls must fail promptly, not hang.
	if _, err := c.Do(server.Frame{Op: server.OpPing}); err == nil {
		t.Fatal("call against a drained server should fail")
	}
}

func TestClientBadAddress(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Fatal("dial to a closed port should fail")
	}
}

// TestClientConnLostFailsInFlight is the reconnect/error-surfacing
// regression test: a backend that dies with a pipeline of unanswered
// requests must fail every in-flight call promptly with an error wrapping
// ErrConnLost — none may hang, and later Starts must fail the same way.
func TestClientConnLostFailsInFlight(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		accepted <- nc
	}()

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srvConn := <-accepted

	// Fill a pipeline the server will never answer.
	const inFlight = 32
	calls := make([]*Call, inFlight)
	for i := range calls {
		if calls[i], err = c.Start(server.Frame{Op: server.OpWrite, LPN: int64(i), Payload: []byte("doomed")}); err != nil {
			t.Fatalf("start %d: %v", i, err)
		}
	}

	// The backend dies mid-pipeline.
	srvConn.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i, call := range calls {
			_, err := call.Wait()
			if err == nil {
				t.Errorf("call %d: resolved without error on a dead connection", i)
				continue
			}
			if !errors.Is(err, ErrConnLost) {
				t.Errorf("call %d: error %v does not wrap ErrConnLost", i, err)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight calls hung after the connection died")
	}

	if err := c.Err(); !errors.Is(err, ErrConnLost) {
		t.Fatalf("Err() = %v, want ErrConnLost", err)
	}
	if _, err := c.Start(server.Frame{Op: server.OpPing}); !errors.Is(err, ErrConnLost) {
		t.Fatalf("Start after loss = %v, want ErrConnLost", err)
	}
}

// TestClientCloseIsTyped: calls interrupted by a local Close surface
// ErrClosed, distinguishable from a lost connection.
func TestClientCloseIsTyped(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := c.Err(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Err() after close = %v, want ErrClosed", err)
	}
	if errors.Is(c.Err(), ErrConnLost) {
		t.Fatal("local close must not read as a lost connection")
	}
}

// TestClientOversizedFrameNotTerminal: an unencodable frame fails only its
// own call — the connection stays healthy for the pipeline behind it.
func TestClientOversizedFrameNotTerminal(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	c := dialTest(t, addr)
	if _, err := c.Start(server.Frame{
		Op: server.OpWrite, LPN: 1, Payload: make([]byte, server.MaxPayload+1),
	}); err == nil {
		t.Fatal("oversized frame should fail")
	} else if errors.Is(err, ErrConnLost) {
		t.Fatalf("encoding error marked terminal: %v", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("connection unusable after encoding error: %v", err)
	}
}

// TestClientHelloAndTraceLedger: Hello surfaces the server's capability
// tokens, SupportsTrace keys off TraceCap, and a wired ledger records one
// wall-only HopClient entry per traced frame — and nothing for untraced ones.
func TestClientHelloAndTraceLedger(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	c := dialTest(t, addr)

	caps, err := c.Hello()
	if err != nil {
		t.Fatalf("hello: %v", err)
	}
	found := false
	for _, tok := range caps {
		if tok == server.TraceCap {
			found = true
		}
	}
	if !found {
		t.Fatalf("capabilities %v lack %q", caps, server.TraceCap)
	}
	if ok, err := c.SupportsTrace(); err != nil || !ok {
		t.Fatalf("SupportsTrace: %v %v", ok, err)
	}

	led := telemetry.NewLedger("ftlload")
	c.SetLedger(led)
	if r, err := c.Write(4, []byte("untraced"), ftl.HintNone); err != nil || r.Status != server.StatusOK {
		t.Fatalf("untraced write: %v %v", err, r.Status)
	}
	if led.Len() != 0 {
		t.Fatalf("untraced frame recorded %d entries", led.Len())
	}
	r, err := c.Do(server.Frame{
		Op: server.OpRead, LPN: 4, Flags: server.FlagTrace,
		Trace: 9, ParentHop: telemetry.HopClient,
	})
	if err != nil || r.Status != server.StatusOK {
		t.Fatalf("traced read: %v %v", err, r.Status)
	}
	recs := led.Records()
	if len(recs) != 1 {
		t.Fatalf("traced frame recorded %d entries, want 1", len(recs))
	}
	hr := recs[0]
	if hr.Hop != telemetry.HopClient || hr.Parent != telemetry.HopNone ||
		hr.Trace != 9 || hr.LPN != 4 || hr.SimTS != -1 || hr.WallNS < 0 || hr.Proc != "ftlload" {
		t.Fatalf("client hop record %+v", hr)
	}
}

// TestCallSizeClass: a Call is allocated per request, so its size class is on
// every wire workload's alloc_bytes_per_op. A hook pointer fits in 80 bytes
// only because a failed call points at its client instead of carrying the
// error; a 16-byte field more and every Call costs 96.
func TestCallSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Call{}); n > 80 {
		t.Fatalf("Call is %d bytes, want <= 80", n)
	}
}

// TestQueueStaysOffTheWireUntilPush: queued frames share one write at the
// next Push, in queue order, and each hook runs once its call has resolved.
func TestQueueStaysOffTheWireUntilPush(t *testing.T) {
	srv, addr := startServer(t, server.Config{})
	c := dialTest(t, addr)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	before := srv.Stats().Accepted
	const n = 8
	hooked := make(chan int, n)
	hooks := make([]Hook, n)
	calls := make([]*Call, n)
	for i := range calls {
		hooks[i] = Hook{Fn: func(owner any) { hooked <- owner.(int) }, Owner: i}
		var err error
		calls[i], err = c.Queue(server.Frame{Op: server.OpWrite, LPN: 5, Payload: []byte{byte(i)}}, &hooks[i])
		if err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(20 * time.Millisecond)
	if got := srv.Stats().Accepted; got != before {
		t.Fatalf("%d queued frames reached the server before Push", got-before)
	}
	c.Push()
	seen := make(map[int]bool)
	for range calls {
		i := <-hooked
		if seen[i] {
			t.Fatalf("hook %d ran twice", i)
		}
		seen[i] = true
		if r, err := calls[i].Wait(); err != nil || r.Status != server.StatusOK {
			t.Fatalf("hook %d ran before its call resolved OK: %v %v", i, err, r.Status)
		}
	}
	// The last frame queued is the last one written.
	if r, err := c.Read(5); err != nil || r.Payload[0] != n-1 {
		t.Fatalf("read back %v %v, want the last queued write", r.Payload[:1], err)
	}
	// Start pushes what was queued ahead of it.
	q, err := c.Queue(server.Frame{Op: server.OpRead, LPN: 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestFailRunsHooksUnlocked: a connection's death resolves every queued call
// through its hook, and a hook may call back into the client — it runs with
// no client lock held.
func TestFailRunsHooksUnlocked(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	c := dialTest(t, addr)
	hooked := make(chan error, 2)
	hook := Hook{Fn: func(owner any) {
		cl := owner.(*Client)
		_, err := cl.Start(server.Frame{Op: server.OpPing})
		hooked <- errors.Join(cl.Err(), err)
	}, Owner: c}
	var calls [2]*Call
	for i := range calls {
		var err error
		if calls[i], err = c.Queue(server.Frame{Op: server.OpRead, LPN: int64(i)}, &hook); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	for i, call := range calls {
		select {
		case err := <-hooked:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("hook saw %v, want ErrClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("hook did not run (or deadlocked on a client lock)")
		}
		if _, err := call.Wait(); !errors.Is(err, ErrClosed) {
			t.Fatalf("call %d: %v, want ErrClosed", i, err)
		}
	}
	if _, err := c.Queue(server.Frame{Op: server.OpPing}, &hook); !errors.Is(err, ErrClosed) {
		t.Fatalf("Queue on a closed client: %v", err)
	}
	c.Push() // a no-op on a dead connection
	if err := c.Err(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Push replaced the terminal error: %v", err)
	}
}

// TestHookLendsPayloadBuffer: a payload leaves the connection's read buffer
// once — for the buffer its call's hook lent, when that is big enough, else for
// a slice of its own. Either way it is the caller's: later responses on the
// connection, which land on the same read-buffer bytes, do not reach it.
func TestHookLendsPayloadBuffer(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	c := dialTest(t, addr)
	page := func(b byte) []byte { return bytes.Repeat([]byte{b}, flash.TestGeometry().PageSize) }
	for lpn := int64(0); lpn < 3; lpn++ {
		if _, err := c.Write(lpn, page(byte('a'+lpn)), ftl.HintNone); err != nil {
			t.Fatal(err)
		}
	}
	lent, small := make([]byte, 0, len(page(0))), make([]byte, 0, 8)
	done := make(chan struct{}, 2)
	hooks := []Hook{
		{Fn: func(any) { done <- struct{}{} }, Buf: lent},
		{Fn: func(any) { done <- struct{}{} }, Buf: small},
	}
	var calls [3]*Call
	for i := range calls {
		var hook *Hook
		if i < len(hooks) {
			hook = &hooks[i]
		}
		var err error
		if calls[i], err = c.Queue(server.Frame{Op: server.OpRead, LPN: int64(i)}, hook); err != nil {
			t.Fatal(err)
		}
	}
	c.Push()
	var got [3][]byte
	for i, call := range calls {
		r, err := call.Wait()
		if err != nil || r.Status != server.StatusOK {
			t.Fatalf("read %d: %v %v", i, err, r.Status)
		}
		got[i] = r.Payload
	}
	<-done
	<-done
	// More traffic over the same read buffer.
	for i := 0; i < 4; i++ {
		if _, err := c.Read(2); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range got {
		if !bytes.Equal(p, page(byte('a'+i))) {
			t.Fatalf("read %d: payload starts %q, want %q", i, p[:4], page(byte('a' + i))[:4])
		}
	}
	if &got[0][0] != &lent[:1][0] {
		t.Error("a lent buffer big enough was not used")
	}
	if &got[1][0] == &small[:1][0] {
		t.Error("a lent buffer too small was used")
	}
}
