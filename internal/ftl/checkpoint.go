package ftl

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"

	"superfast/internal/core"
	"superfast/internal/flash"
)

// ErrCheckpointCorrupt reports a checkpoint image that fails framing
// validation: wrong magic, torn/truncated body, or checksum mismatch. A
// power cut mid-checkpoint-write produces exactly this; callers should fall
// back to RecoverByScan, which rebuilds the mapping from OOB tags.
var ErrCheckpointCorrupt = errors.New("ftl: checkpoint corrupt")

// Checkpoint framing: a 12-byte header — magic, body length, body CRC32
// (IEEE), all big-endian — wrapped around the gob-encoded state. The length
// catches truncation (a torn write keeps a prefix), the CRC catches torn
// middles and bit rot, and validation happens before gob ever sees the
// bytes so corruption surfaces as one typed error instead of whatever
// decode error the mangled stream happens to trip first.
const (
	checkpointMagic     = "SFCP"
	checkpointHeaderLen = 12
)

// Checkpoint captures the FTL's RAM state — mapping tables, the superblock
// table, open-superblock positions, statistics and the QSTR-MED metadata
// snapshot — so a power cycle can restore the device without rescanning
// flash. Pending write buffers are flushed first (padded word-lines), the
// same policy real controllers apply on power-loss interrupts.
func (f *FTL) Checkpoint() ([]byte, error) {
	// Finish any in-flight partial collection first: its victim is in
	// neither the superblock table nor the free pool, so snapshotting
	// mid-collection would leak the blocks across the power cycle.
	if _, err := f.DrainGC(); err != nil {
		return nil, fmt.Errorf("ftl: checkpoint gc drain: %w", err)
	}
	if _, err := f.Flush(); err != nil {
		return nil, fmt.Errorf("ftl: checkpoint flush: %w", err)
	}
	st := checkpointState{
		Version:  checkpointVersion,
		L2P:      f.l2p,
		NextSBID: f.nextSBID,
		WriteSeq: f.writeSeq,
		Stats:    f.stats,
		Scheme:   f.scheme.Snapshot(),
	}
	for _, sb := range f.sbs {
		st.Superblocks = append(st.Superblocks, sbState{
			ID: sb.id, Members: sb.members, Speed: int(sb.speed),
			Valid: sb.valid, Sealed: sb.sealed, SealedAt: sb.sealedAt,
		})
	}
	for speed, open := range f.open {
		st.Open = append(st.Open, openSBState{
			Speed: int(speed), ID: open.sb.id, NextWL: open.nextWL,
		})
	}
	var buf bytes.Buffer
	buf.Write(make([]byte, checkpointHeaderLen)) // header placeholder
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("ftl: checkpoint encode: %w", err)
	}
	out := buf.Bytes()
	body := out[checkpointHeaderLen:]
	copy(out, checkpointMagic)
	binary.BigEndian.PutUint32(out[4:], uint32(len(body)))
	binary.BigEndian.PutUint32(out[8:], crc32.ChecksumIEEE(body))
	return out, nil
}

const checkpointVersion = 1

type sbState struct {
	ID       int
	Members  []flash.BlockAddr
	Speed    int
	Valid    int
	Sealed   bool
	SealedAt uint64
}

type openSBState struct {
	Speed  int
	ID     int
	NextWL int
}

type checkpointState struct {
	Version     int
	L2P         []int64
	Superblocks []sbState
	Open        []openSBState
	NextSBID    int
	WriteSeq    uint64
	Stats       Stats
	Scheme      []byte
}

// checkpointBody validates the framing header and returns the gob body.
func checkpointBody(checkpoint []byte) ([]byte, error) {
	if len(checkpoint) < checkpointHeaderLen {
		return nil, fmt.Errorf("%w: %d bytes, header needs %d", ErrCheckpointCorrupt, len(checkpoint), checkpointHeaderLen)
	}
	if string(checkpoint[:4]) != checkpointMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCheckpointCorrupt, checkpoint[:4])
	}
	want := binary.BigEndian.Uint32(checkpoint[4:])
	body := checkpoint[checkpointHeaderLen:]
	if uint32(len(body)) != want {
		return nil, fmt.Errorf("%w: body is %d bytes, header says %d", ErrCheckpointCorrupt, len(body), want)
	}
	if sum := crc32.ChecksumIEEE(body); sum != binary.BigEndian.Uint32(checkpoint[8:]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCheckpointCorrupt)
	}
	return body, nil
}

// Restore builds an FTL over the (data-retaining) array from a checkpoint
// taken with the same geometry and configuration.
func Restore(arr *flash.Array, cfg Config, checkpoint []byte) (*FTL, error) {
	body, err := checkpointBody(checkpoint)
	if err != nil {
		return nil, err
	}
	var st checkpointState
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&st); err != nil {
		return nil, fmt.Errorf("ftl: checkpoint decode: %w", err)
	}
	if st.Version != checkpointVersion {
		return nil, fmt.Errorf("ftl: checkpoint version %d, want %d", st.Version, checkpointVersion)
	}
	f, err := New(arr, cfg)
	if err != nil {
		return nil, err
	}
	if len(st.L2P) != len(f.l2p) {
		return nil, fmt.Errorf("ftl: checkpoint maps %d pages, device has %d", len(st.L2P), len(f.l2p))
	}
	if err := f.scheme.RestoreSnapshot(st.Scheme); err != nil {
		return nil, err
	}
	// New() freed every block; pull back the ones that live in superblocks.
	f.sbs = make(map[int]*superblock)
	clear(f.bySB)
	inSB := map[flash.BlockAddr]bool{}
	for _, s := range st.Superblocks {
		sb := &superblock{
			id: s.ID, members: s.Members, speed: core.Speed(s.Speed),
			valid: s.Valid, sealed: s.Sealed, sealedAt: s.SealedAt,
		}
		f.sbs[sb.id] = sb
		for _, m := range sb.members {
			f.bySB[f.blockIdx(m)] = sb
			inSB[m] = true
		}
	}
	// Rebuild the free pools from scratch: free = not in a superblock and
	// not retired, keyed by the restored gathered metadata.
	f.scheme = nil
	scheme, err := core.NewScheme(f.geo, cfg.K)
	if err != nil {
		return nil, err
	}
	if err := scheme.RestoreSnapshot(st.Scheme); err != nil {
		return nil, err
	}
	f.scheme = scheme
	for lane := 0; lane < f.geo.Lanes(); lane++ {
		chip, plane := f.geo.LaneChipPlane(lane)
		for b := 0; b < f.geo.BlocksPerPlane; b++ {
			addr := flash.BlockAddr{Chip: chip, Plane: plane, Block: b}
			if inSB[addr] || scheme.Retired(addr) {
				continue
			}
			if err := scheme.AddFree(addr); err != nil {
				return nil, err
			}
		}
	}
	copy(f.l2p, st.L2P)
	for i := range f.p2l {
		f.p2l[i] = -1
	}
	for lpn, ppn := range f.l2p {
		if ppn >= 0 {
			f.p2l[ppn] = int64(lpn)
		}
	}
	// Reattach open superblocks at their write positions.
	f.open = make(map[core.Speed]*openState)
	for _, o := range st.Open {
		sb := f.sbs[o.ID]
		if sb == nil {
			return nil, fmt.Errorf("ftl: checkpoint open superblock %d missing", o.ID)
		}
		nl := len(sb.members)
		stt := &openState{sb: sb, nextWL: o.NextWL, parity: f.parityLane(sb.id, nl),
			data: make([][][]byte, nl), lpns: make([][]int64, nl), seqs: make([][]uint64, nl)}
		for i := 0; i < nl; i++ {
			stt.data[i] = make([][]byte, flash.PagesPerLWL)
			stt.lpns[i] = make([]int64, flash.PagesPerLWL)
			stt.seqs[i] = make([]uint64, flash.PagesPerLWL)
			for t := range stt.lpns[i] {
				stt.lpns[i][t] = -1
			}
		}
		f.open[core.Speed(o.Speed)] = stt
	}
	f.nextSBID = st.NextSBID
	f.writeSeq = st.WriteSeq
	f.stats = st.Stats
	if f.journal {
		f.ops = nil
	}
	return f, nil
}
