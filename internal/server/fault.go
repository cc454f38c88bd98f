package server

import (
	"bytes"
	"encoding/json"
	"fmt"

	"superfast/internal/ftl"
)

// FaultRequest is the OpFault payload: one JSON-encoded fault-injection
// command. Kind selects the fault; the other fields parameterize it and are
// ignored when they do not apply. Unknown fields are rejected so a campaign
// typo cannot silently inject the wrong fault.
type FaultRequest struct {
	// Kind is one of:
	//   "bad-blocks"       — mark Count sealed blocks bad, drawn with Seed
	//   "chip-read-errors" — next Count reads on Chip fail ECC
	//   "chip-dropout"     — every read on Chip fails until revived
	//   "chip-revive"      — undo a chip-dropout
	//   "retention-bake"   — age all stored data by Units retention units
	//   "power-cut"        — checkpoint, power-cycle, restore; the device is
	//                        unavailable for RecoverUS simulated microseconds
	//   "die"              — invoke Config.OnFaultDie (process kill)
	Kind      string  `json:"kind"`
	Count     int     `json:"count,omitempty"`
	Seed      uint64  `json:"seed,omitempty"`
	Chip      int     `json:"chip,omitempty"`
	Units     float64 `json:"units,omitempty"`
	RecoverUS float64 `json:"recover_us,omitempty"`
}

// FaultReport is the OpFault response payload.
type FaultReport struct {
	Kind string `json:"kind"`
	// Marked is how many blocks a bad-blocks storm actually marked (the
	// device may hold fewer sealed blocks than requested).
	Marked int `json:"marked,omitempty"`
	// Power-cut timeline on the simulated clock, plus the checkpoint size.
	CutAt           float64 `json:"cut_at,omitempty"`
	RecoveredAt     float64 `json:"recovered_at,omitempty"`
	CheckpointBytes int     `json:"checkpoint_bytes,omitempty"`
}

// handleFault applies one fault-injection command. Like everything else it
// runs on the connection's goroutine, so a fault is ordered against the same
// connection's later data frames (a campaign injects, then immediately sends
// the traffic that should see the fault).
func (s *Server) handleFault(f Frame) Response {
	if !s.cfg.EnableFaults {
		return Response{Status: StatusBadRequest, ID: f.ID, Payload: []byte("fault injection disabled")}
	}
	dec := json.NewDecoder(bytes.NewReader(f.Payload))
	dec.DisallowUnknownFields()
	var req FaultRequest
	if err := dec.Decode(&req); err != nil {
		return Response{Status: StatusBadRequest, ID: f.ID, Payload: []byte("fault payload: " + err.Error())}
	}
	rep := FaultReport{Kind: req.Kind}
	var err error
	switch req.Kind {
	case "bad-blocks":
		s.dev.WithFTL(func(ft *ftl.FTL) {
			blocks, merr := ft.MarkBadBlocks(req.Count, req.Seed)
			rep.Marked = len(blocks)
			err = merr
		})
	case "chip-read-errors":
		s.dev.WithFTL(func(ft *ftl.FTL) {
			err = ft.Array().FailNextReads(req.Chip, req.Count)
		})
	case "chip-dropout":
		s.dev.WithFTL(func(ft *ftl.FTL) {
			err = ft.Array().SetChipReadFailure(req.Chip, true)
		})
	case "chip-revive":
		s.dev.WithFTL(func(ft *ftl.FTL) {
			err = ft.Array().SetChipReadFailure(req.Chip, false)
		})
	case "retention-bake":
		s.dev.WithFTL(func(ft *ftl.FTL) {
			ft.Array().AddRetention(req.Units)
		})
	case "power-cut":
		report, perr := s.dev.PowerCycle(req.RecoverUS)
		if perr != nil {
			err = perr
		} else {
			rep.CutAt = report.CutAt
			rep.RecoveredAt = report.RecoveredAt
			rep.CheckpointBytes = report.CheckpointBytes
		}
	case "die":
		if s.cfg.OnFaultDie == nil {
			return Response{Status: StatusBadRequest, ID: f.ID, Payload: []byte("die fault not armed")}
		}
		// Respond first, kill after: OnFaultDie runs on its own goroutine so
		// the acknowledgement can be written and flushed before shutdown tears
		// the connection down.
		s.dieOnce.Do(func() { go s.cfg.OnFaultDie() })
	default:
		return Response{Status: StatusBadRequest, ID: f.ID, Payload: []byte(fmt.Sprintf("unknown fault kind %q", req.Kind))}
	}
	if err != nil {
		return Response{Status: StatusBadRequest, ID: f.ID, Payload: []byte(err.Error())}
	}
	payload, merr := json.Marshal(rep)
	if merr != nil {
		return Response{Status: StatusInternal, ID: f.ID, Payload: []byte(merr.Error())}
	}
	return Response{Status: StatusOK, ID: f.ID, Payload: payload}
}
