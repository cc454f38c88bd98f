package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"superfast/internal/flash"
	"superfast/internal/ftl"
	"superfast/internal/pv"
	"superfast/internal/server"
	"superfast/internal/server/client"
	"superfast/internal/ssd"
	"superfast/internal/volume"
)

// The fixed device of every workload: flash.TestGeometry with 32 blocks per
// plane and 12 layers (4 chips x 2 planes, 4 KiB pages), 25% overprovision,
// QSTR-MED (the default organizer): 27,648 logical pages. Tests shrink
// blocksPerPlane through params.blocks.
const (
	blocksPerPlane = 32
	layers         = 12
	overprovision  = 0.25
	volBackends    = 4
	volStripe      = 8
	volReplicas    = 2
)

func newArray(idx int, blocks int) *flash.Array {
	g := flash.TestGeometry()
	g.BlocksPerPlane = blocks
	g.Layers = layers
	p := pv.DefaultParams()
	p.Layers = g.Layers
	p.Strings = g.Strings
	// The backends of a volume are different chips; across -seed values the
	// chips stay the same and only the op stream changes.
	p.Seed += uint64(idx)
	return flash.MustNewArray(g, pv.New(p), flash.DefaultECC())
}

func deviceConfig(w *workload) ssd.Config {
	cfg := ssd.DefaultConfig()
	cfg.FTL.Overprovision = overprovision
	cfg.FTL.GCStepPages = w.gcStep
	return cfg
}

// result is what the generator sees when an op completes.
type result struct {
	simUS float64 // simulated host-visible latency (0 at the ftl rung)
	data  []byte  // read payload
}

// target is one rung as the closed-loop generator drives it: start begins
// an op in an in-flight slot, wait resolves the op in that slot. A non-nil
// error is a failed op (transport error or non-OK status).
type target interface {
	start(slot int, o op, payload []byte) error
	wait(slot int) (result, error)
	// borrows reports whether the rung keeps the payload slice it is given,
	// so the generator must hand it a fresh one per write.
	borrows() bool
}

// ftlTarget calls the translation layer directly, in the payload-ownership
// mode the device runs it in (it keeps the slice it is given). Nothing
// schedules stepped GC below the device, so one debt step follows each op
// that leaves GC needed — the device's closed-loop policy, minus its clocks.
type ftlTarget struct {
	f   *ftl.FTL
	res []result // per slot: the call is synchronous, the collection is not
}

func (t *ftlTarget) borrows() bool { return true }

func (t *ftlTarget) start(slot int, o op, payload []byte) error {
	t.res[slot] = result{}
	if o.write {
		if _, err := t.f.Write(o.lpn, payload); err != nil {
			return err
		}
	} else {
		r, err := t.f.Read(o.lpn)
		if err != nil {
			return err
		}
		t.res[slot].data = r.Data
	}
	if t.f.GCStepPages() > 0 && t.f.GCNeeded() {
		if _, err := t.f.GCStep(t.f.GCStepPages()); err != nil {
			return err
		}
	}
	return nil
}

func (t *ftlTarget) wait(slot int) (result, error) { return t.res[slot], nil }

// ssdTarget submits to the device in process and keeps the GC-time share
// only an in-process completion exposes.
type ssdTarget struct {
	dev   *ssd.ConcurrentDevice
	res   []result
	gcUS  float64 // sum of Completion.GCTime
	latUS float64 // sum of Completion.Latency
}

func (t *ssdTarget) borrows() bool { return true }

func (t *ssdTarget) start(slot int, o op, payload []byte) error {
	req := ssd.Request{Kind: ssd.OpRead, LPN: o.lpn, Arrival: o.arrival}
	if o.write {
		req.Kind, req.Data = ssd.OpWrite, payload
	}
	c, err := t.dev.Submit(req)
	if err != nil {
		return err
	}
	t.res[slot] = result{simUS: c.Latency, data: c.Data}
	t.gcUS += c.GCTime
	t.latUS += c.Latency
	return nil
}

func (t *ssdTarget) wait(slot int) (result, error) { return t.res[slot], nil }

func frameFor(o op, payload []byte) server.Frame {
	f := server.Frame{Op: server.OpRead, LPN: o.lpn, Arrival: o.arrival}
	if o.write {
		f.Op, f.Payload = server.OpWrite, payload
	}
	return f
}

func respResult(r server.Response, err error) (result, error) {
	if err != nil {
		return result{}, err
	}
	if err := r.Err(); err != nil {
		return result{}, err
	}
	return result{simUS: r.Latency, data: r.Payload}, nil
}

// clientTarget drives a server (or the proxy) through the pipelining client
// with plain v1 frames.
type clientTarget struct {
	cl    *client.Client
	calls []*client.Call
}

func (t *clientTarget) borrows() bool { return false }

func (t *clientTarget) start(slot int, o op, payload []byte) (err error) {
	t.calls[slot], err = t.cl.Start(frameFor(o, payload))
	return err
}

func (t *clientTarget) wait(slot int) (result, error) { return respResult(t.calls[slot].Wait()) }

// volTarget drives the volume library directly, without the proxy.
type volTarget struct {
	v     *volume.Volume
	calls []*volume.Call
}

func (t *volTarget) borrows() bool { return false }

func (t *volTarget) start(slot int, o op, payload []byte) (err error) {
	if o.write {
		t.calls[slot], err = t.v.StartWrite(o.lpn, payload, ftl.HintNone, 0, o.arrival, volume.TraceRef{})
	} else {
		t.calls[slot], err = t.v.StartRead(o.lpn, 0, o.arrival, volume.TraceRef{})
	}
	return err
}

func (t *volTarget) wait(slot int) (result, error) { return respResult(t.calls[slot].Wait()) }

// stack is one rung, built and ready to drive, with handles on every layer
// below it so public counters can be read around the timed phase.
type stack struct {
	tgt   target
	space int64 // logical pages the generator addresses

	arrs  []*flash.Array
	ftl   *ftl.FTL // the ftl rung's; a device owns its own
	devs  []*ssd.ConcurrentDevice
	srvs  []*server.Server
	vol   *volume.Volume
	proxy *volume.Proxy

	closers []func() error
}

// eachFTL calls fn with every translation layer of the stack (index-aligned
// with arrs), under the owning device's lock where there is one.
func (s *stack) eachFTL(fn func(i int, f *ftl.FTL)) {
	if s.ftl != nil {
		fn(0, s.ftl)
	}
	for i, dev := range s.devs {
		dev.WithFTL(func(f *ftl.FTL) { fn(i, f) })
	}
}

func (s *stack) close() error {
	var errs []error
	for i := len(s.closers) - 1; i >= 0; i-- {
		errs = append(errs, s.closers[i]())
	}
	return errors.Join(errs...)
}

// serve starts srv on ln and registers its shutdown. Serve returning an
// error other than the graceful-shutdown nil surfaces at close.
func (s *stack) serve(srv interface {
	Serve(net.Listener) error
	Shutdown(context.Context) error
}, ln net.Listener) {
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	s.closers = append(s.closers, func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return errors.Join(srv.Shutdown(ctx), <-served)
	})
}

// addDevice builds one array + device; with a listener it also serves it.
func (s *stack) addDevice(w *workload, p params, idx int, ln net.Listener) error {
	arr := newArray(idx, p.blocks)
	dev, err := ssd.NewConcurrent(arr, deviceConfig(w))
	if err != nil {
		return err
	}
	s.arrs = append(s.arrs, arr)
	s.devs = append(s.devs, dev)
	if ln != nil {
		srv := server.New(dev, server.Config{})
		s.srvs = append(s.srvs, srv)
		s.serve(srv, ln)
	}
	return nil
}

func (s *stack) addClient(w *workload, nc net.Conn) {
	cl := client.New(nc)
	s.closers = append(s.closers, cl.Close)
	s.tgt = &clientTarget{cl: cl, calls: make([]*client.Call, maxDepth)}
}

func listenTCP() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// buildStack assembles rung r for workload w. Everything runs in this
// process; sockets are real TCP on ephemeral loopback ports.
func buildStack(w *workload, r rung, p params) (s *stack, err error) {
	s = &stack{}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	switch r {
	case rungFTL:
		arr := newArray(0, p.blocks)
		f, err := ftl.New(arr, deviceConfig(w).FTL)
		if err != nil {
			return nil, err
		}
		f.SetPayloadOwnership(ftl.BorrowHost)
		s.arrs, s.ftl = []*flash.Array{arr}, f
		s.tgt = &ftlTarget{f: f, res: make([]result, maxDepth)}
	case rungSSD:
		if err := s.addDevice(w, p, 0, nil); err != nil {
			return nil, err
		}
		s.tgt = &ssdTarget{dev: s.devs[0], res: make([]result, maxDepth)}
	case rungMem:
		ln := newMemListener()
		if err := s.addDevice(w, p, 0, ln); err != nil {
			return nil, err
		}
		nc, err := ln.dial()
		if err != nil {
			return nil, err
		}
		s.addClient(w, nc)
	case rungTCP:
		ln, err := listenTCP()
		if err != nil {
			return nil, err
		}
		if err := s.addDevice(w, p, 0, ln); err != nil {
			return nil, err
		}
		nc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return nil, err
		}
		s.addClient(w, nc)
	case rungVolume, rungProxy:
		addrs := make([]string, volBackends)
		for i := range addrs {
			ln, err := listenTCP()
			if err != nil {
				return nil, err
			}
			if err := s.addDevice(w, p, i, ln); err != nil {
				return nil, err
			}
			addrs[i] = ln.Addr().String()
		}
		v, err := volume.Dial(addrs, volume.Config{Stripe: volStripe, Replicas: volReplicas})
		if err != nil {
			return nil, err
		}
		s.vol = v
		s.closers = append(s.closers, func() error { v.Close(); return nil })
		s.space = v.Space()
		if r == rungVolume {
			s.tgt = &volTarget{v: v, calls: make([]*volume.Call, maxDepth)}
			break
		}
		ln, err := listenTCP()
		if err != nil {
			return nil, err
		}
		s.proxy = volume.NewProxy(v, volume.ProxyConfig{})
		s.serve(s.proxy, ln)
		nc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return nil, err
		}
		s.addClient(w, nc)
	default:
		return nil, fmt.Errorf("unknown rung %d", r)
	}
	if s.space == 0 {
		s.eachFTL(func(_ int, f *ftl.FTL) { s.space = f.Capacity() })
	}
	return s, nil
}
