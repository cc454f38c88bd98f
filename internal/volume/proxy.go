package volume

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"superfast/internal/ftl"
	"superfast/internal/server"
)

// Proxy serves the block-service wire protocol over a Volume: clients speak
// to it exactly as they would to one ftlserve backend, and it scatters their
// requests across the shard set. STAT answers with the merged cluster
// snapshot (a superset of a single server's), so unmodified clients decode
// it.
type Proxy struct {
	v   *Volume
	cfg ProxyConfig

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]*proxyConn
	draining bool
	connWG   sync.WaitGroup

	connsNow  atomic.Int64
	connsEver atomic.Uint64
	accepted  atomic.Uint64
	responses atomic.Uint64
	rejected  atomic.Uint64
}

// ProxyConfig parameterizes the proxy.
type ProxyConfig struct {
	// MaxPerConn caps the frames one connection has had accepted and not
	// yet handed to its socket writer (default 64), bounding the
	// per-connection response queue.
	MaxPerConn int
}

// NewProxy wraps a volume. The caller owns the volume's lifetime.
func NewProxy(v *Volume, cfg ProxyConfig) *Proxy {
	if cfg.MaxPerConn <= 0 {
		cfg.MaxPerConn = 64
	}
	return &Proxy{v: v, cfg: cfg, conns: make(map[net.Conn]*proxyConn)}
}

// Volume returns the proxied volume.
func (p *Proxy) Volume() *Volume { return p.v }

// Stats returns the proxy's serving-layer counters (the frontend view; each
// backend keeps its own).
func (p *Proxy) Stats() server.ServerStats {
	return server.ServerStats{
		Conns:     p.connsNow.Load(),
		ConnsEver: p.connsEver.Load(),
		Accepted:  p.accepted.Load(),
		Responses: p.responses.Load(),
		Rejected:  p.rejected.Load(),
	}
}

// Serve accepts connections on ln until Shutdown closes it.
func (p *Proxy) Serve(ln net.Listener) error {
	p.mu.Lock()
	if p.draining {
		p.mu.Unlock()
		ln.Close()
		return fmt.Errorf("volume: proxy already shut down")
	}
	p.ln = ln
	p.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			p.mu.Lock()
			draining := p.draining
			p.mu.Unlock()
			if draining {
				return nil
			}
			return err
		}
		p.startConn(nc)
	}
}

func (p *Proxy) startConn(nc net.Conn) {
	p.mu.Lock()
	if p.draining {
		p.mu.Unlock()
		nc.Close()
		return
	}
	n := p.cfg.MaxPerConn
	c := &proxyConn{p: p, nc: nc, slots: make(chan struct{}, n), out: make(chan proxyResp, n), bufs: make(chan []byte, n)}
	p.conns[nc] = c
	p.connWG.Add(1)
	p.mu.Unlock()
	p.connsNow.Add(1)
	p.connsEver.Add(1)
	go c.run()
}

func (p *Proxy) forgetConn(nc net.Conn) {
	p.mu.Lock()
	delete(p.conns, nc)
	p.mu.Unlock()
	p.connsNow.Add(-1)
	p.connWG.Done()
}

// Shutdown drains the proxy: stop accepting, stop reading request frames,
// answer everything already read (in-flight requests run to completion,
// later ones get StatusRejected), flush responses, close connections. The
// backends stay up — the caller owns the volume.
func (p *Proxy) Shutdown(ctx context.Context) error {
	p.mu.Lock()
	p.draining = true
	ln := p.ln
	conns := make([]net.Conn, 0, len(p.conns))
	for nc := range p.conns {
		conns = append(conns, nc)
	}
	p.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, nc := range conns {
		nc.SetReadDeadline(time.Now())
	}
	done := make(chan struct{})
	go func() {
		p.connWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		p.mu.Lock()
		for nc := range p.conns {
			nc.Close()
		}
		p.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// proxyConn is one client connection, two goroutines: a reader that admits
// frames and queues their legs on the backend connections, and a writer that
// encodes responses in completion order. An op completes on the reader of the
// backend connection that answers its last leg, which every client of the
// volume shares: the writer is what keeps that reader off this client's
// socket (DESIGN.md §11).
type proxyConn struct {
	p  *Proxy
	nc net.Conn

	// One token per frame accepted whose response the writer has not taken
	// yet; out has a place for each, so queueing a response never blocks.
	slots chan struct{}
	out   chan proxyResp

	// Page buffers between reads: the reader lends one to each plain READ, the
	// backend connection's reader fills it, the writer puts it back once it is
	// encoded — or, for a READ that found none, the slice allocated for it.
	bufs chan []byte
}

// proxyResp is a queued response; page marks a payload that goes to bufs.
type proxyResp struct {
	server.Response
	page bool
}

func (c *proxyConn) run() {
	defer c.p.forgetConn(c.nc)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		c.writer()
	}()
	c.reader()
	c.waitIdle(0)
	close(c.out)
	<-writerDone
	if tc, ok := c.nc.(*net.TCPConn); ok {
		tc.CloseWrite()
		c.nc.SetReadDeadline(time.Now().Add(time.Second))
		io.Copy(io.Discard, c.nc)
	}
	c.nc.Close()
}

func (c *proxyConn) reader() {
	p := c.p
	v := p.v
	br := bufio.NewReaderSize(c.nc, 64<<10)
	var f server.Frame
	var held int
	var err error
	for {
		// f.Payload lay in br's buffer while f was served — every leg has its
		// copy by now. Let go of it first: held bytes count as buffered input.
		br.Discard(held)
		// The server's rule: push before anything that can block; while input
		// is buffered the legs queued per backend share one write. The waits
		// inside the volume push for themselves.
		if br.Buffered() < server.MinFrameLen {
			v.pushQueued()
		}
		if f, held, err = server.PeekFrame(br); err != nil {
			return
		}
		p.accepted.Add(1)
		if len(c.slots) == cap(c.slots) {
			v.pushQueued()
		}
		c.slots <- struct{}{}
		switch f.Op {
		case server.OpPing:
			// Advertise the trace extension like a backend would, so clients
			// stamp trace context toward the proxy too.
			c.respond(server.Response{Status: server.StatusOK, ID: f.ID, Payload: []byte(server.TraceCap)})
		case server.OpStat:
			c.respond(p.statResponse(f.ID))
		case server.OpFault: // as a backend without EnableFaults answers
			c.respond(server.Response{Status: server.StatusBadRequest, ID: f.ID, Payload: []byte("fault injection is not supported by the proxy")})
		case server.OpFlush:
			// Pipeline barrier: this connection's in-flight requests first,
			// then every backend pipeline.
			c.waitIdle(1)
			if err := v.Flush(); err != nil {
				c.respond(server.Response{Status: server.StatusInternal, ID: f.ID, Payload: []byte(err.Error())})
				continue
			}
			c.respond(server.Response{Status: server.StatusOK, ID: f.ID})
		case server.OpRead, server.OpWrite, server.OpTrim:
			if f.Sequenced() != v.cfg.Sequenced {
				c.respond(server.Response{
					Status: server.StatusBadRequest, ID: f.ID,
					Payload: []byte(fmt.Sprintf("sequenced flag %v but volume sequenced=%v", f.Sequenced(), v.cfg.Sequenced)),
				})
				continue
			}
			p.mu.Lock()
			draining := p.draining
			p.mu.Unlock()
			if draining {
				p.rejected.Add(1)
				// A rejected sequenced ticket still advances the global
				// cursor, or the chain behind it wedges.
				v.SkipSeq(f.Seq)
				c.respond(server.Response{Status: server.StatusRejected, ID: f.ID, Payload: []byte("volume: draining")})
				continue
			}
			if err := c.startOp(f); err != nil {
				// Only an LPN outside the volume is the caller's fault.
				status := server.StatusInternal
				if errors.Is(err, ErrOutOfRange) {
					status = server.StatusBadRequest
					p.rejected.Add(1)
				}
				c.respond(server.Response{Status: status, ID: f.ID, Payload: []byte(err.Error())})
			}
		}
	}
}

// startOp maps one wire frame onto the volume; the response arrives through
// complete. In sequenced mode the call blocks until the frame's global ticket
// is admitted — per-connection seq must therefore ascend, exactly as on a
// sequenced backend. An invalid LPN consumes the ticket (the volume advances
// its cursor either way).
func (c *proxyConn) startOp(f server.Frame) error {
	// Pass the client's trace context through: the volume's HopProxy records
	// then point back at the hop that sent the frame.
	ca := &Call{
		op: f.Op, lpn: f.LPN, seq: f.Seq, tr: TraceRef{ID: f.Trace, Parent: f.ParentHop},
		sink: c, id: f.ID,
	}
	if f.Op != server.OpWrite {
		f.Hint = ftl.HintNone
	}
	if c.lends(f.Op) {
		select {
		case ca.hook.Buf = <-c.bufs:
		default:
		}
	}
	_, err := c.p.v.start(ca, f.Payload, f.Hint, f.Arrival)
	return err
}

// lends reports whether op's answer lands in a page buffer of c. Only a READ
// with a single leg may borrow: every replica's leg of a verified read shares
// the op's hook, and two backend readers would fill one buffer.
func (c *proxyConn) lends(op server.Op) bool {
	return op == server.OpRead && !c.p.v.cfg.VerifyReads
}

// complete gathers an op whose legs have all resolved and queues its response.
func (c *proxyConn) complete(ca *Call) {
	r, err := ca.Wait()
	if err != nil {
		r = server.Response{Status: server.StatusInternal, Payload: []byte(err.Error())}
	}
	r.ID = ca.id
	c.p.responses.Add(1)
	c.out <- proxyResp{r, c.lends(ca.op)}
}

func (c *proxyConn) respond(r server.Response) {
	c.p.responses.Add(1)
	c.out <- proxyResp{Response: r}
}

// writer encodes everything queued and flushes when the queue runs empty. Only
// a socket error is sticky, and even then it keeps taking, so a dead socket
// never backs completions up.
func (c *proxyConn) writer() {
	bw := bufio.NewWriterSize(c.nc, 64<<10)
	var err error
	for r := range c.out {
		<-c.slots
		if err == nil {
			// The header is encoded in bw's own free space; only the payload moves.
			head, herr := server.AppendResponseHead(bw.AvailableBuffer(), r.Response)
			if herr != nil {
				// Unencodable: the ID still gets an answer, as from a backend.
				r.Response = server.Response{Status: server.StatusInternal, ID: r.ID, Payload: []byte(herr.Error())}
				head, _ = server.AppendResponseHead(bw.AvailableBuffer(), r.Response)
			}
			if _, err = bw.Write(head); err == nil {
				_, err = bw.Write(r.Payload)
			}
			if err == nil && len(c.out) == 0 {
				err = bw.Flush()
			}
		}
		if r.page && cap(r.Payload) > 0 {
			select {
			case c.bufs <- r.Payload[:0]:
			default:
			}
		}
	}
	if err == nil {
		bw.Flush()
	}
}

// waitIdle blocks until only the reader's own frame (own is 0 or 1) holds a
// slot, by taking every other. Only the reader puts tokens in.
func (c *proxyConn) waitIdle(own int) {
	c.p.v.pushQueued()
	n := cap(c.slots) - own
	for i := 0; i < n; i++ {
		c.slots <- struct{}{}
	}
	for i := 0; i < n; i++ {
		<-c.slots
	}
}

func (p *Proxy) statResponse(id uint64) server.Response {
	snap := p.v.ClusterStat()
	// The frontend's own serving counters ride in the merged server block's
	// conns fields so `ftlload` probes see this proxy, not the backend sum,
	// for connection-level numbers.
	snap.Server.Conns = p.connsNow.Load()
	snap.Server.ConnsEver = p.connsEver.Load()
	payload, err := json.Marshal(snap)
	if err != nil {
		return server.Response{Status: server.StatusInternal, ID: id, Payload: []byte(err.Error())}
	}
	return server.Response{Status: server.StatusOK, ID: id, Payload: payload}
}
