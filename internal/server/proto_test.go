package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"superfast/internal/flash"
	"superfast/internal/ftl"
	"superfast/internal/telemetry"
)

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Op: OpRead, ID: 1, LPN: 42},
		{Op: OpWrite, ID: 2, LPN: 7, Payload: []byte("hello"), Hint: ftl.HintSmall},
		{Op: OpTrim, ID: 3, LPN: 0},
		{Op: OpFlush, ID: 4},
		{Op: OpStat, ID: 5},
		{Op: OpPing, ID: 6},
		{Op: OpWrite, ID: 7, LPN: 9, Flags: FlagSequenced, Seq: 123, Arrival: 4.5, Payload: []byte{0}},
	}
	var buf []byte
	for _, f := range frames {
		var err error
		buf, err = AppendFrame(buf, f)
		if err != nil {
			t.Fatalf("append %+v: %v", f, err)
		}
	}
	off := 0
	for i, want := range frames {
		got, n, err := DecodeFrame(buf[off:])
		if err != nil {
			t.Fatalf("decode frame %d: %v", i, err)
		}
		off += n
		if got.Op != want.Op || got.Flags != want.Flags || got.Hint != want.Hint ||
			got.ID != want.ID || got.LPN != want.LPN || got.Seq != want.Seq ||
			got.Arrival != want.Arrival || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d: got %+v want %+v", i, got, want)
		}
	}
	if off != len(buf) {
		t.Fatalf("consumed %d of %d bytes", off, len(buf))
	}
}

func TestReadFrameStream(t *testing.T) {
	var buf []byte
	buf, _ = AppendFrame(buf, Frame{Op: OpWrite, ID: 9, LPN: 3, Payload: []byte("abc")})
	buf, _ = AppendFrame(buf, Frame{Op: OpRead, ID: 10, LPN: 3})
	r := bufio.NewReader(bytes.NewReader(buf))
	f1, n1, err := ReadFrame(r)
	if err != nil || f1.ID != 9 || string(f1.Payload) != "abc" || cap(f1.Payload) != 3 {
		t.Fatalf("frame 1: %+v, %v", f1, err)
	}
	f2, n2, err := ReadFrame(r)
	if err != nil || f2.ID != 10 {
		t.Fatalf("frame 2: %+v, %v", f2, err)
	}
	if n1+n2 != len(buf) {
		t.Fatalf("accounted %d of %d wire bytes", n1+n2, len(buf))
	}
	if _, n, err := ReadFrame(r); err != io.EOF || n != 0 {
		t.Fatalf("empty stream: %d bytes, %v; want 0, io.EOF", n, err)
	}
}

// TestReadConsumedOnError pins transfer accounting on rejected frames: the
// streaming decoders report the wire bytes they took off the reader on every
// error path, and leave the reader exactly that far along — the in-place ones
// too, whether or not the frame fits their reader.
func TestReadConsumedOnError(t *testing.T) {
	write, _ := AppendFrame(nil, Frame{Op: OpWrite, ID: 1, LPN: 2, Payload: bytes.Repeat([]byte("p"), 100)})
	traced, _ := AppendFrame(nil, Frame{Op: OpRead, ID: 2, Flags: FlagTrace, Trace: 5, ParentHop: telemetry.HopNone})
	resp, _ := AppendResponse(nil, Response{Status: StatusOK, ID: 1, Payload: []byte("data")})
	mut := func(b []byte, f func(b []byte)) []byte {
		b = append([]byte(nil), b...)
		f(b)
		return b
	}
	const tail = "next frame's bytes"
	// A frame rejected at its header has consumed what was examined: the
	// prefix and as much of the frame as a header with every extension spans.
	const examined = 4 + reqHeaderLen + maxExtLen
	cases := []struct {
		name     string
		b        []byte
		response bool
		want     error
		used     int
	}{
		{"bad version", mut(write, func(b []byte) { b[4] = 9 }), false, ErrBadFrame, examined},
		{"bad flags", mut(write, func(b []byte) { b[6] = 0x40 }), false, ErrBadFrame, examined},
		{"payload on READ", mut(write, func(b []byte) { b[5] = byte(OpRead) }), false, ErrBadFrame, examined},
		{"bad trace ext", mut(traced, func(b []byte) { b[4+reqHeaderLen+10] = 1 }), false, ErrBadFrame, len(traced)},
		{"oversize length", mut(write, func(b []byte) { b[0] = 0xff }), false, ErrFrameSize, 4},
		{"undersize length", mut(write, func(b []byte) { b[3] = reqHeaderLen - 1 }), false, ErrFrameSize, 4},
		{"truncated payload", write[:len(write)-3], false, io.ErrUnexpectedEOF, len(write) - 3},
		{"truncated header", write[:20], false, io.EOF, 20},
		{"truncated prefix", write[:2], false, io.EOF, 2},
		{"response bad version", mut(resp, func(b []byte) { b[4] = 9 }), true, ErrBadFrame, 4 + respHeaderLen},
		{"response reserved set", mut(resp, func(b []byte) { b[7] = 1 }), true, ErrBadFrame, 4 + respHeaderLen},
		{"response oversize length", mut(resp, func(b []byte) { b[0] = 0xff }), true, ErrFrameSize, 4},
		{"response truncated payload", resp[:len(resp)-1], true, io.ErrUnexpectedEOF, len(resp) - 1},
	}
	for _, tc := range cases {
		truncated := tc.want == io.EOF || tc.want == io.ErrUnexpectedEOF
		in := tc.b
		if !truncated {
			in = append(append([]byte(nil), tc.b...), tail...)
		}
		br := bufio.NewReader(bytes.NewReader(in))
		var n int
		var err error
		if tc.response {
			_, n, err = ReadResponse(br)
		} else {
			_, n, err = ReadFrame(br)
		}
		if !errors.Is(err, tc.want) || n != tc.used {
			t.Errorf("%s: consumed %d, err %v; want %d, %v", tc.name, n, err, tc.used, tc.want)
		}
		rest, _ := io.ReadAll(br)
		if len(rest) != len(in)-tc.used {
			t.Errorf("%s: %d bytes left on the reader, want %d", tc.name, len(rest), len(in)-tc.used)
		}
		t.Run(tc.name, func(t *testing.T) {
			if tc.response {
				checkInPlace(t, in, PeekResponse, responsePayload, Response{}, tc.used, err)
			} else {
				checkInPlace(t, in, PeekFrame, framePayload, Frame{}, tc.used, err)
			}
		})
	}
}

func TestDecodeFrameErrors(t *testing.T) {
	valid, _ := AppendFrame(nil, Frame{Op: OpWrite, ID: 1, LPN: 2, Payload: []byte("xy")})
	mut := func(f func(b []byte)) []byte {
		b := append([]byte(nil), valid...)
		f(b)
		return b
	}
	cases := []struct {
		name string
		b    []byte
		want error
	}{
		{"empty", nil, ErrShortFrame},
		{"short prefix", valid[:3], ErrShortFrame},
		{"truncated body", valid[:len(valid)-1], ErrShortFrame},
		{"length below header", mut(func(b []byte) { b[3] = reqHeaderLen - 1; b[2] = 0; b[1] = 0; b[0] = 0 }), ErrFrameSize},
		{"length oversized", mut(func(b []byte) { b[0] = 0xff }), ErrFrameSize},
		{"bad version", mut(func(b []byte) { b[4] = 99 }), ErrBadFrame},
		{"opcode zero", mut(func(b []byte) { b[5] = 0 }), ErrBadFrame},
		{"opcode high", mut(func(b []byte) { b[5] = byte(OpFault) + 1 }), ErrBadFrame},
		{"unknown flag", mut(func(b []byte) { b[6] = 0x80 }), ErrBadFrame},
		{"bad hint", mut(func(b []byte) { b[7] = byte(ftl.HintBatch) + 1 }), ErrBadFrame},
		{"payload on read", mut(func(b []byte) { b[5] = byte(OpRead) }), ErrBadFrame},
	}
	for _, tc := range cases {
		if _, _, err := DecodeFrame(tc.b); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}

	// Negative and non-finite arrivals are rejected.
	for _, arr := range []float64{-1, math.NaN(), math.Inf(1)} {
		b, _ := AppendFrame(nil, Frame{Op: OpRead, ID: 1})
		bits := math.Float64bits(arr)
		for i := 0; i < 8; i++ {
			b[4+28+i] = byte(bits >> (56 - 8*i))
		}
		if _, _, err := DecodeFrame(b); !errors.Is(err, ErrBadFrame) {
			t.Errorf("arrival %v: err = %v, want ErrBadFrame", arr, err)
		}
	}

	if _, err := AppendFrame(nil, Frame{Op: OpWrite, Payload: make([]byte, MaxPayload+1)}); !errors.Is(err, ErrFrameSize) {
		t.Errorf("oversized append: %v", err)
	}
	if _, err := AppendFrame(nil, Frame{Op: 0}); !errors.Is(err, ErrBadFrame) {
		t.Errorf("bad opcode append: %v", err)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resps := []Response{
		{Status: StatusOK, ID: 1, Latency: 123.5, Payload: []byte("data")},
		{Status: StatusUncorrectable, ID: 2, Payload: []byte("ecc failed")},
		{Status: StatusRejected, ID: 3},
	}
	var buf []byte
	for _, r := range resps {
		var err error
		buf, err = AppendResponse(buf, r)
		if err != nil {
			t.Fatal(err)
		}
	}
	sr := bufio.NewReader(bytes.NewReader(buf))
	total := 0
	for i, want := range resps {
		got, n, err := ReadResponse(sr)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		total += n
		if got.Status != want.Status || got.ID != want.ID || got.Latency != want.Latency ||
			!bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("response %d: got %+v want %+v", i, got, want)
		}
	}
	if total != len(buf) {
		t.Fatalf("accounted %d of %d bytes", total, len(buf))
	}
}

func TestDecodeResponseErrors(t *testing.T) {
	valid, _ := AppendResponse(nil, Response{Status: StatusOK, ID: 1, Latency: 2, Payload: []byte("p")})
	mut := func(f func(b []byte)) []byte {
		b := append([]byte(nil), valid...)
		f(b)
		return b
	}
	cases := []struct {
		name string
		b    []byte
		want error
	}{
		{"empty", nil, ErrShortFrame},
		{"truncated", valid[:len(valid)-1], ErrShortFrame},
		{"undersized length", mut(func(b []byte) { b[0], b[1], b[2], b[3] = 0, 0, 0, respHeaderLen-1 }), ErrFrameSize},
		{"oversized length", mut(func(b []byte) { b[0] = 0xff }), ErrFrameSize},
		{"bad version", mut(func(b []byte) { b[4] = 7 }), ErrBadFrame},
		{"reserved set", mut(func(b []byte) { b[6] = 1 }), ErrBadFrame},
		{"bad status", mut(func(b []byte) { b[5] = byte(StatusInternal) + 1 }), ErrBadFrame},
	}
	for _, tc := range cases {
		if _, _, err := DecodeResponse(tc.b); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	b := mut(func(b []byte) {
		bits := math.Float64bits(math.NaN())
		for i := 0; i < 8; i++ {
			b[4+12+i] = byte(bits >> (56 - 8*i))
		}
	})
	if _, _, err := DecodeResponse(b); !errors.Is(err, ErrBadFrame) {
		t.Errorf("NaN latency: %v", err)
	}
	if _, err := AppendResponse(nil, Response{Payload: make([]byte, MaxPayload+1)}); !errors.Is(err, ErrFrameSize) {
		t.Errorf("oversized append: %v", err)
	}
	if _, _, err := ReadResponse(bufio.NewReader(bytes.NewReader(nil))); err == nil {
		t.Error("empty reader should error")
	}
	if _, _, err := ReadResponse(bufio.NewReader(bytes.NewReader([]byte{0, 0, 0, 1}))); !errors.Is(err, ErrFrameSize) {
		t.Error("bad stream length should error")
	}
	if _, _, err := ReadFrame(bufio.NewReader(bytes.NewReader([]byte{0, 0, 0, 1}))); !errors.Is(err, ErrFrameSize) {
		t.Error("bad frame stream length should error")
	}
}

func TestStatusFor(t *testing.T) {
	cases := []struct {
		err  error
		want Status
	}{
		{nil, StatusOK},
		{ftl.ErrDataLoss, StatusDataLoss},
		{fmt.Errorf("wrap: %w", flash.ErrUncorrectable), StatusUncorrectable},
		{ftl.ErrOutOfRange, StatusBadRequest},
		{ftl.ErrUnmapped, StatusBadRequest},
		{errors.New("boom"), StatusInternal},
	}
	for _, tc := range cases {
		if got := StatusFor(tc.err); got != tc.want {
			t.Errorf("StatusFor(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

func TestEnumStrings(t *testing.T) {
	for op := OpRead; op <= OpPing; op++ {
		if strings.HasPrefix(op.String(), "Op(") {
			t.Errorf("opcode %d has no name", op)
		}
	}
	if !strings.HasPrefix(Op(0).String(), "Op(") {
		t.Error("unknown opcode should fall back")
	}
	for st := StatusOK; st <= StatusInternal; st++ {
		if strings.HasPrefix(st.String(), "Status(") {
			t.Errorf("status %d has no name", st)
		}
	}
	if !strings.HasPrefix(Status(200).String(), "Status(") {
		t.Error("unknown status should fall back")
	}
}

func TestResponseErr(t *testing.T) {
	if err := (Response{Status: StatusOK}).Err(); err != nil {
		t.Fatalf("OK: %v", err)
	}
	err := (Response{Status: StatusDataLoss, Payload: []byte("gone")}).Err()
	if err == nil || !strings.Contains(err.Error(), "DATA_LOSS") || !strings.Contains(err.Error(), "gone") {
		t.Fatalf("err = %v", err)
	}
	if err := (Response{Status: StatusRejected}).Err(); err == nil || !strings.Contains(err.Error(), "REJECTED") {
		t.Fatalf("err = %v", err)
	}
}
