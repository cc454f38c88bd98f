package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"

	"superfast/internal/telemetry"
)

// sameErrorClass reports whether a buffer decoder's error and a streaming
// decoder's error over the same bytes say the same thing: both nil, both the
// same protocol violation, or both "the input ends before the frame does"
// (ErrShortFrame from a buffer, io.EOF or io.ErrUnexpectedEOF from a stream).
func sameErrorClass(buffered, streamed error) bool {
	switch {
	case buffered == nil || streamed == nil:
		return buffered == nil && streamed == nil
	case errors.Is(buffered, ErrShortFrame):
		return streamed == io.EOF || streamed == io.ErrUnexpectedEOF
	case errors.Is(buffered, ErrBadFrame):
		return errors.Is(streamed, ErrBadFrame)
	default:
		return errors.Is(buffered, ErrFrameSize) && errors.Is(streamed, ErrFrameSize)
	}
}

// peekSizes are the read-buffer sizes the in-place decoders are held to their
// copying twins over: the smallest that holds a request head, so every larger
// payload goes the allocating way; one a short frame fits and a page does not;
// and bufio's default, where most inputs lie whole. (bufio's minimum of 16
// bytes holds neither kind of header, which readWire requires of its reader.)
var peekSizes = []int{4 + reqHeaderLen + maxExtLen, 256, 4096}

// checkInPlace runs an in-place decoder over b once per peekSizes entry and
// holds it to what the copying decoder returned over the same stream: the same
// value, the same error and — once the held payload is let go — the reader
// left in the same place, on every path. A payload is held exactly when it
// fits the buffer, and then it is the buffer's own bytes.
func checkInPlace[T any](t *testing.T, b []byte, peek func(*bufio.Reader) (T, int, error), payload func(T) []byte, want T, used int, wantErr error) {
	t.Helper()
	for _, size := range peekSizes {
		br := bufio.NewReaderSize(bytes.NewReader(b), size)
		got, held, err := peek(br)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("%d-byte reader: in place %v, copying %v", size, err, wantErr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%d-byte reader: in place %+v, copying %+v", size, got, want)
		}
		wantHeld := 0
		if pay := payload(got); err == nil && len(pay) <= size {
			wantHeld = len(pay)
		}
		if held != wantHeld {
			t.Fatalf("%d-byte reader: %d bytes held, want %d (err %v)", size, held, wantHeld, err)
		}
		if in, _ := br.Peek(held); held > 0 && &in[0] != &payload(got)[0] {
			t.Fatalf("%d-byte reader: held payload is not the buffer's bytes", size)
		}
		br.Discard(held)
		if rest, _ := io.ReadAll(br); len(b)-len(rest) != used {
			t.Fatalf("%d-byte reader: in place consumed %d of %d bytes, copying %d (err %v)", size, len(b)-len(rest), len(b), used, err)
		}
	}
}

func framePayload(f Frame) []byte       { return f.Payload }
func responsePayload(r Response) []byte { return r.Payload }

// FuzzDecodeFrame feeds arbitrary bytes to both request-frame decoders: they
// must never panic, never allocate beyond the validated payload bound, reject
// truncated and oversized lengths with the right error class, round-trip
// whatever they accept — and agree with each other on frame, length and
// error class, since ReadFrame is what a connection runs and DecodeFrame what
// the other properties are stated on. PeekFrame, which a forwarder runs, is
// held to ReadFrame in turn (checkInPlace).
func FuzzDecodeFrame(f *testing.F) {
	valid, _ := AppendFrame(nil, Frame{Op: OpWrite, ID: 7, LPN: 42, Payload: []byte("seed page")})
	f.Add(valid)
	f.Add(valid[:3])                            // truncated length prefix
	f.Add(valid[:len(valid)-2])                 // truncated body
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 1}) // hostile oversized length
	f.Add([]byte{0, 0, 0, 36, 1, 99, 0, 0})     // bad opcode
	short, _ := AppendFrame(nil, Frame{Op: OpPing, ID: 1})
	f.Add(short)
	seq, _ := AppendFrame(nil, Frame{Op: OpRead, ID: 2, LPN: 3, Flags: FlagSequenced, Seq: 9, Arrival: 1.5})
	f.Add(seq)
	page, _ := AppendFrame(nil, Frame{Op: OpWrite, ID: 3, LPN: 4, Payload: bytes.Repeat([]byte("page"), 1<<10)})
	f.Add(page)                                         // fits no reader of peekSizes: the allocating way
	f.Add(append(page[:len(page):len(page)], short...)) // and the frame behind it
	f.Add(page[:len(page)-1])

	f.Fuzz(func(t *testing.T, b []byte) {
		fr, n, err := DecodeFrame(b)
		sfr, sn, serr := ReadFrame(bufio.NewReader(bytes.NewReader(b)))
		if !sameErrorClass(err, serr) {
			t.Fatalf("DecodeFrame says %v, ReadFrame %v", err, serr)
		}
		if sn > len(b) || (err == nil && (sn != n || !reflect.DeepEqual(sfr, fr))) {
			t.Fatalf("DecodeFrame %+v in %d bytes, ReadFrame %+v in %d of %d", fr, n, sfr, sn, len(b))
		}
		checkInPlace(t, b, PeekFrame, framePayload, sfr, sn, serr)
		if err != nil {
			if n != 0 {
				t.Fatalf("error %v consumed %d bytes", err, n)
			}
			// A hostile length prefix must be classified before any payload
			// allocation could happen.
			if len(b) >= 4 {
				if l := int(binary.BigEndian.Uint32(b)); l > reqHeaderLen+maxExtLen+MaxPayload && !errors.Is(err, ErrFrameSize) {
					t.Fatalf("oversized length %d not ErrFrameSize: %v", l, err)
				}
			}
			return
		}
		if n < 4+reqHeaderLen || n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		if fr.Op < OpRead || fr.Op > OpFault {
			t.Fatalf("accepted invalid opcode %d", fr.Op)
		}
		if len(fr.Payload) > MaxPayload {
			t.Fatalf("accepted payload of %d bytes", len(fr.Payload))
		}
		if len(fr.Payload) > 0 && fr.Op != OpWrite && fr.Op != OpFault {
			t.Fatalf("accepted %v with payload", fr.Op)
		}
		// Accepted frames re-encode to the exact bytes consumed.
		re, err := AppendFrame(nil, fr)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(re, b[:n]) {
			t.Fatalf("round trip mismatch:\n in %x\nout %x", b[:n], re)
		}
	})
}

// FuzzDecodeTraceExt hammers the trace-extension decode path specifically:
// frames with FlagTrace set must validate the extension (parent hop, reserved
// bytes), frames without it must never grow trace context, and — exactly as
// in FuzzDecodeFrame — whatever the decoder accepts must re-encode to the
// bytes consumed. The seeds cover a traced write, a traced frame whose
// extension is truncated, hostile reserved bytes, and an invalid parent hop.
func FuzzDecodeTraceExt(f *testing.F) {
	traced, _ := AppendFrame(nil, Frame{
		Op: OpWrite, ID: 11, LPN: 9, Flags: FlagTrace | FlagSequenced, Seq: 4,
		Trace: 77, ParentHop: telemetry.HopProxy, Leg: 1, Payload: []byte("traced page"),
	})
	f.Add(traced)
	root, _ := AppendFrame(nil, Frame{
		Op: OpRead, ID: 12, LPN: 3, Flags: FlagTrace,
		Trace: 1, ParentHop: telemetry.HopNone,
	})
	f.Add(root)
	f.Add(traced[:len(traced)-len("traced page")-3]) // extension cut short
	// Flip a reserved extension byte: must be rejected, never silently eaten.
	dirty := append([]byte(nil), root...)
	dirty[4+reqHeaderLen+10] = 0xaa
	f.Add(dirty)
	// Parent hop outside the taxonomy (and not HopNone).
	badHop := append([]byte(nil), root...)
	badHop[4+reqHeaderLen+8] = 0x20
	f.Add(badHop)
	// Trace flag set but the length claims a bare v1 header.
	short := append([]byte(nil), root[:4+reqHeaderLen]...)
	binary.BigEndian.PutUint32(short, reqHeaderLen)
	f.Add(short)

	f.Fuzz(func(t *testing.T, b []byte) {
		fr, n, err := DecodeFrame(b)
		if err != nil {
			if n != 0 {
				t.Fatalf("error %v consumed %d bytes", err, n)
			}
			return
		}
		if fr.Traced() {
			if !fr.ParentHop.Valid() && fr.ParentHop != telemetry.HopNone {
				t.Fatalf("accepted parent hop %d", fr.ParentHop)
			}
			if n < 4+reqHeaderLen+traceExtLen {
				t.Fatalf("traced frame consumed only %d bytes", n)
			}
		} else if fr.Trace != 0 || fr.ParentHop != 0 || fr.Leg != 0 {
			t.Fatalf("untraced frame grew trace context: %+v", fr)
		}
		re, err := AppendFrame(nil, fr)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(re, b[:n]) {
			t.Fatalf("round trip mismatch:\n in %x\nout %x", b[:n], re)
		}
	})
}

// FuzzDecodeTenantExt hammers the tenant-extension decode path: frames with
// FlagTenant must carry a valid extension (nonzero tenant id, zero reserved
// bytes) after any trace extension, frames without it must never grow a
// tenant id, and accepted frames re-encode to the bytes consumed. The seeds
// cover a tenanted write, a tenanted+traced read (both extensions), a zero
// tenant id, dirty reserved bytes, a truncated extension, and a FAULT frame.
func FuzzDecodeTenantExt(f *testing.F) {
	tenanted, _ := AppendFrame(nil, Frame{
		Op: OpWrite, ID: 21, LPN: 5, Flags: FlagTenant, Tenant: 2, Payload: []byte("ns page"),
	})
	f.Add(tenanted)
	both, _ := AppendFrame(nil, Frame{
		Op: OpRead, ID: 22, LPN: 9, Flags: FlagTrace | FlagTenant,
		Trace: 31, ParentHop: telemetry.HopNone, Tenant: 1,
	})
	f.Add(both)
	// Tenant id zero: reserved as "untenanted", must be rejected on the wire.
	zero := append([]byte(nil), both...)
	zero[4+reqHeaderLen+traceExtLen] = 0
	zero[4+reqHeaderLen+traceExtLen+1] = 0
	f.Add(zero)
	// Dirty reserved bytes must be rejected, never silently eaten.
	dirty := append([]byte(nil), both...)
	dirty[4+reqHeaderLen+traceExtLen+5] = 0x5a
	f.Add(dirty)
	f.Add(tenanted[:4+reqHeaderLen+3]) // extension cut short
	fault, _ := AppendFrame(nil, Frame{Op: OpFault, ID: 23, Payload: []byte(`{"kind":"chip-dropout","chip":1}`)})
	f.Add(fault)

	f.Fuzz(func(t *testing.T, b []byte) {
		fr, n, err := DecodeFrame(b)
		if err != nil {
			if n != 0 {
				t.Fatalf("error %v consumed %d bytes", err, n)
			}
			return
		}
		if fr.Tenanted() {
			if fr.Tenant == 0 {
				t.Fatal("accepted tenant extension with id 0")
			}
			if n < 4+reqHeaderLen+tenantExtLen {
				t.Fatalf("tenanted frame consumed only %d bytes", n)
			}
		} else if fr.Tenant != 0 {
			t.Fatalf("untenanted frame grew a tenant id: %+v", fr)
		}
		re, err := AppendFrame(nil, fr)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(re, b[:n]) {
			t.Fatalf("round trip mismatch:\n in %x\nout %x", b[:n], re)
		}
	})
}

// FuzzDecodeResponse gives the two response decoders the same treatment.
func FuzzDecodeResponse(f *testing.F) {
	ok, _ := AppendResponse(nil, Response{Status: StatusOK, ID: 1, Latency: 12.5, Payload: []byte("data")})
	f.Add(ok)
	rej, _ := AppendResponse(nil, Response{Status: StatusRejected, ID: 2})
	f.Add(rej)
	f.Add(ok[:2])
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 0})
	page, _ := AppendResponse(nil, Response{Status: StatusOK, ID: 3, Payload: bytes.Repeat([]byte("page"), 1<<10)})
	f.Add(page)
	f.Add(append(page[:len(page):len(page)], rej...))
	f.Add(page[:len(page)-1])

	f.Fuzz(func(t *testing.T, b []byte) {
		r, n, err := DecodeResponse(b)
		sr, sn, serr := ReadResponse(bufio.NewReader(bytes.NewReader(b)))
		if !sameErrorClass(err, serr) {
			t.Fatalf("DecodeResponse says %v, ReadResponse %v", err, serr)
		}
		if sn > len(b) || (err == nil && (sn != n || !reflect.DeepEqual(sr, r))) {
			t.Fatalf("DecodeResponse %+v in %d bytes, ReadResponse %+v in %d of %d", r, n, sr, sn, len(b))
		}
		checkInPlace(t, b, PeekResponse, responsePayload, sr, sn, serr)
		if err != nil {
			return
		}
		if n < 4+respHeaderLen || n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		if r.Status > StatusInternal {
			t.Fatalf("accepted invalid status %d", r.Status)
		}
		re, err := AppendResponse(nil, r)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(re, b[:n]) {
			t.Fatalf("round trip mismatch:\n in %x\nout %x", b[:n], re)
		}
	})
}
