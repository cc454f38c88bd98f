package volume

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"superfast/internal/ftl"
	"superfast/internal/server"
	"superfast/internal/server/client"
)

// stampedPage is a full page that names its LPN and generation in every word,
// so a payload that was cut, mixed with another or overwritten while somebody
// still read it cannot pass for the right one.
func stampedPage(size int, lpn int64, gen uint32) []byte {
	p := make([]byte, size)
	for off := 0; off+8 <= size; off += 8 {
		binary.BigEndian.PutUint32(p[off:], uint32(lpn))
		binary.BigEndian.PutUint32(p[off+4:], gen^uint32(off))
	}
	return p
}

// proxyConnOf returns the proxy's only connection.
func proxyConnOf(t *testing.T, p *Proxy) *proxyConn {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.conns) != 1 {
		t.Fatalf("%d proxy connections, want 1", len(p.conns))
	}
	for _, c := range p.conns {
		return c
	}
	return nil
}

// pipelineReads keeps depth READs of pages [0, span) in flight on c for
// rounds×span ops and checks every payload against want.
func pipelineReads(t *testing.T, c *client.Client, depth int, span int64, rounds int, want func(lpn int64) []byte, each func()) {
	t.Helper()
	type inflight struct {
		call *client.Call
		lpn  int64
	}
	ring := make([]inflight, depth)
	total := rounds * int(span)
	for i := 0; i < total+depth; i++ {
		slot := &ring[i%depth]
		if slot.call != nil {
			r, err := slot.call.Wait()
			if err != nil || r.Status != server.StatusOK {
				t.Fatalf("read %d: %v %v", slot.lpn, err, r.Status)
			}
			if !bytes.Equal(r.Payload, want(slot.lpn)) {
				t.Fatalf("read %d answered with another page's bytes (starts %x)", slot.lpn, r.Payload[:16])
			}
			slot.call = nil
			if each != nil {
				each()
			}
		}
		if i >= total {
			continue
		}
		lpn := int64(i) % span
		call, err := c.Start(server.Frame{Op: server.OpRead, LPN: lpn})
		if err != nil {
			t.Fatal(err)
		}
		*slot = inflight{call, lpn}
	}
}

// TestLentBufferOnePerOp: a plain READ borrows a page buffer of its proxy
// connection for the backend's answer, and the buffer goes back once the
// response is encoded. With one slow backend and one fast, responses overtake
// each other and buffers change hands in every order; each of 64 reads in
// flight must still come back with its own page, and the connection keeps at
// most MaxPerConn buffers.
func TestLentBufferOnePerOp(t *testing.T) {
	slow, fast := startBackend(t, server.Config{Pace: 20}), startBackend(t, server.Config{})
	v, err := Dial([]string{slow.addr, fast.addr}, Config{Stripe: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(v.Close)
	p, addr := startProxy(t, v)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const span = 48
	for lpn := int64(0); lpn < span; lpn++ {
		if r, err := c.Write(lpn, stampedPage(v.PageSize(), lpn, 1), ftl.HintNone); err != nil || r.Status != server.StatusOK {
			t.Fatalf("write %d: %v %v", lpn, err, r.Status)
		}
	}
	pc := proxyConnOf(t, p)
	most := 0
	pipelineReads(t, c, 64, span, 8, func(lpn int64) []byte { return stampedPage(v.PageSize(), lpn, 1) }, func() {
		most = max(most, len(pc.bufs))
	})
	if most == 0 || most > p.cfg.MaxPerConn {
		t.Fatalf("free list peaked at %d buffers, want 1..%d", most, p.cfg.MaxPerConn)
	}
	// Every buffer is one of a read that found the list empty: no more were
	// ever made than reads were in flight at once.
	if n := len(pc.bufs); n == 0 || cap(pc.bufs) != p.cfg.MaxPerConn {
		t.Fatalf("free list holds %d of %d buffers after the run", n, cap(pc.bufs))
	}
}

// TestLentBufferHeldUntilEncoded: a buffer is lent again only after its
// response is encoded, not while it waits in the writer's queue. The client
// here lets far more page-sized responses pile up than the socket buffers
// between the two ends hold, so the writer blocks with its queue full while
// reads keep completing; every response must still carry its own page.
func TestLentBufferHeldUntilEncoded(t *testing.T) {
	v, _ := startCluster(t, 2, server.Config{}, Config{Stripe: 2})
	p, addr := startProxy(t, v)
	const span = 48
	for lpn := int64(0); lpn < span; lpn++ {
		if r, err := v.Write(lpn, stampedPage(v.PageSize(), lpn, 1), ftl.HintNone); err != nil || r.Status != server.StatusOK {
			t.Fatalf("write %d: %v %v", lpn, err, r.Status)
		}
	}
	raw := dialRaw(t, addr)
	const reads = 1 << 13
	sent := make(chan error, 1)
	go func() {
		var buf []byte
		for i := uint64(0); i < reads; i++ {
			buf, _ = server.AppendFrame(buf, server.Frame{Op: server.OpRead, ID: i, LPN: int64(i*7) % span})
		}
		_, err := raw.nc.Write(buf)
		sent <- err
	}()
	last := uint64(0)
	waitFor(t, "the unread connection to stall", func() bool {
		time.Sleep(20 * time.Millisecond)
		now := p.Stats().Responses
		stalled := now == last
		last = now
		return stalled
	})
	seen := make(map[uint64]bool)
	for i := 0; i < reads; i++ {
		r := raw.recv()
		if seen[r.ID] || r.ID >= reads || r.Status != server.StatusOK {
			t.Fatalf("response %d %v (seen before: %v)", r.ID, r.Status, seen[r.ID])
		}
		seen[r.ID] = true
		if lpn := int64(r.ID*7) % span; !bytes.Equal(r.Payload, stampedPage(v.PageSize(), lpn, 1)) {
			t.Fatalf("read %d of page %d answered with other bytes (starts %x)", r.ID, lpn, r.Payload[:16])
		}
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
}

// TestProxyVerifiedReadsOwnTheirPayloads: with VerifyReads every replica's leg
// shares its op's hook, so no buffer may be lent — two backend readers would
// copy into it at once (run under -race). The payloads are compared, so each
// must be a slice of its own.
func TestProxyVerifiedReadsOwnTheirPayloads(t *testing.T) {
	v, _ := startCluster(t, 3, server.Config{}, Config{Stripe: 2, Replicas: 2, VerifyReads: true})
	p, addr := startProxy(t, v)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const span = 32
	for lpn := int64(0); lpn < span; lpn++ {
		if r, err := c.Write(lpn, stampedPage(v.PageSize(), lpn, 2), ftl.HintNone); err != nil || r.Status != server.StatusOK {
			t.Fatalf("write %d: %v %v", lpn, err, r.Status)
		}
	}
	pipelineReads(t, c, 32, span, 16, func(lpn int64) []byte { return stampedPage(v.PageSize(), lpn, 2) }, nil)
	if n := len(proxyConnOf(t, p).bufs); n != 0 {
		t.Fatalf("%d buffers on the free list of a verifying proxy, want none lent or kept", n)
	}
	if got := v.ClusterStat().Volume.Repairs; got != 0 {
		t.Fatalf("%d read-repairs of replicas that never diverged", got)
	}
}

// TestProxyPayloadOutlivesNothing: a WRITE's payload is forwarded from where it
// lies in the connection's read buffer, so it must be in every leg's writer
// before the reader moves on. Two WRITEs arrive in one segment, a third frame
// behind them lands on the same buffer bytes; afterwards every replica holds
// exactly what was sent. A frame larger than the read buffer takes the
// allocating path, end to end in both directions.
func TestProxyPayloadOutlivesNothing(t *testing.T) {
	v, bks := startCluster(t, 3, server.Config{}, Config{Stripe: 2, Replicas: 2})
	_, addr := startProxy(t, v)
	c := dialRaw(t, addr)
	size := v.PageSize()
	lpns := []int64{0, 3, 5}
	c.send(
		server.Frame{Op: server.OpWrite, ID: 0, LPN: lpns[0], Payload: stampedPage(size, lpns[0], 7)},
		server.Frame{Op: server.OpWrite, ID: 1, LPN: lpns[1], Payload: stampedPage(size, lpns[1], 8)},
	)
	c.send(server.Frame{Op: server.OpWrite, ID: 2, LPN: lpns[2], Payload: stampedPage(size, lpns[2], 9)})
	for range lpns {
		if r := c.recv(); r.Status != server.StatusOK {
			t.Fatalf("write %d: %v %s", r.ID, r.Status, r.Payload)
		}
	}
	direct := make([]*client.Client, len(bks))
	for i, b := range bks {
		var err error
		if direct[i], err = client.Dial(b.addr); err != nil {
			t.Fatal(err)
		}
		defer direct[i].Close()
	}
	for i, lpn := range lpns {
		v.mu.Lock()
		locs, err := v.place.Locate(lpn, nil)
		v.mu.Unlock()
		if err != nil || len(locs) != 2 {
			t.Fatalf("locate %d: %v %v", lpn, locs, err)
		}
		for _, l := range locs {
			r, err := direct[l.Backend].Read(l.SLPN)
			if err != nil || !bytes.Equal(r.Payload, stampedPage(size, lpn, uint32(7+i))) {
				t.Fatalf("page %d on backend %d: %v, not the payload sent", lpn, l.Backend, err)
			}
		}
	}
}

// TestProxyFrameLargerThanReadBuffer: a payload the 64 KiB read buffers cannot
// hold takes the allocating path at the proxy's reader and at its backend
// connection's reader, and arrives whole both ways.
func TestProxyFrameLargerThanReadBuffer(t *testing.T) {
	const size = 128 << 10
	b := startBackendPages(t, server.Config{}, size)
	v, err := Dial([]string{b.addr}, Config{Stripe: 2})
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
	for gen := uint32(0); gen < 3; gen++ {
		page := stampedPage(size, 1, gen)
		if r, err := c.Write(1, page, ftl.HintNone); err != nil || r.Status != server.StatusOK {
			t.Fatalf("write: %v %v", err, r.Status)
		}
		if r, err := c.Read(1); err != nil || !bytes.Equal(r.Payload, page) {
			t.Fatalf("read back %d bytes (%v), not the %d written", len(r.Payload), err, size)
		}
	}
}
