package main

import (
	"io"
	"net"
	"os"
	"sync"
	"time"
)

// memPipe is one direction of an in-memory connection: a 64 KiB ring with
// blocking reads and writes. Unlike net.Pipe a write returns as soon as its
// bytes are buffered, so the peer is not forced to rendezvous per write —
// the same contract a socket buffer gives, minus the kernel.
type memPipe struct {
	mu       sync.Mutex
	cond     sync.Cond
	buf      [64 << 10]byte
	r, n     int // read position, bytes buffered
	closed   bool
	deadline time.Time // read deadline; only "already expired" is honoured
}

func newMemPipe() *memPipe {
	p := &memPipe{}
	p.cond.L = &p.mu
	return p
}

func (p *memPipe) read(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.n == 0 {
		if p.closed {
			return 0, io.EOF
		}
		if !p.deadline.IsZero() && !p.deadline.After(time.Now()) {
			return 0, os.ErrDeadlineExceeded
		}
		p.cond.Wait()
	}
	n := 0
	for n < len(b) && p.n > 0 {
		c := copy(b[n:], p.buf[p.r:min(p.r+p.n, len(p.buf))])
		p.r = (p.r + c) % len(p.buf)
		p.n -= c
		n += c
	}
	p.cond.Broadcast()
	return n, nil
}

func (p *memPipe) write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for n < len(b) {
		if p.closed {
			return n, io.ErrClosedPipe
		}
		if p.n == len(p.buf) {
			p.cond.Wait()
			continue
		}
		w := (p.r + p.n) % len(p.buf)
		c := copy(p.buf[w:min(w+len(p.buf)-p.n, len(p.buf))], b[n:])
		p.n += c
		n += c
		p.cond.Broadcast()
	}
	return n, nil
}

func (p *memPipe) close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
}

// memConn is one end of an in-memory connection.
type memConn struct {
	in, out *memPipe
}

// newMemConnPair returns the two ends of a buffered in-memory connection.
func newMemConnPair() (*memConn, *memConn) {
	a, b := newMemPipe(), newMemPipe()
	return &memConn{in: a, out: b}, &memConn{in: b, out: a}
}

func (c *memConn) Read(b []byte) (int, error)  { return c.in.read(b) }
func (c *memConn) Write(b []byte) (int, error) { return c.out.write(b) }

func (c *memConn) Close() error {
	c.in.close()
	c.out.close()
	return nil
}

type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "mem" }

func (c *memConn) LocalAddr() net.Addr  { return memAddr{} }
func (c *memConn) RemoteAddr() net.Addr { return memAddr{} }

// SetReadDeadline supports the one use the server makes of it: a deadline
// of "now" kicks a blocked reader out during shutdown.
func (c *memConn) SetReadDeadline(t time.Time) error {
	c.in.mu.Lock()
	c.in.deadline = t
	c.in.mu.Unlock()
	c.in.cond.Broadcast()
	return nil
}

func (c *memConn) SetDeadline(t time.Time) error    { return c.SetReadDeadline(t) }
func (c *memConn) SetWriteDeadline(time.Time) error { return nil }

// memListener hands a server the far end of connections made with dial.
type memListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newMemListener() *memListener {
	return &memListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *memListener) dial() (net.Conn, error) {
	a, b := newMemConnPair()
	select {
	case l.conns <- b:
		return a, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *memListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *memListener) Addr() net.Addr { return memAddr{} }
