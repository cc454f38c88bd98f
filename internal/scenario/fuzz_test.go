package scenario

import (
	"encoding/json"
	"testing"
)

// FuzzCampaignSpec hammers the strict spec parser: whatever bytes arrive,
// it must never panic, and any spec it accepts must be internally
// consistent and survive a marshal/re-parse round trip (the property the
// ftlstorm driver relies on when echoing the resolved spec).
func FuzzCampaignSpec(f *testing.F) {
	f.Add([]byte(`{"name":"x","seed":9}`))
	f.Add([]byte(`{"name":"smoke","seed":42,"backends":3,"replicas":2,"ops":600,` +
		`"working_set":512,"events":[` +
		`{"at_op":60,"kind":"retention-bake","backend":2,"units":0.5},` +
		`{"at_op":120,"kind":"bad-blocks","backend":0,"count":4},` +
		`{"at_op":420,"kind":"power-cut","backend":1,"recover_us":5000},` +
		`{"at_op":480,"kind":"kill-backend","backend":0},` +
		`{"at_op":560,"kind":"restart-backend","backend":0}],` +
		`"tenants":{"noisy_quota":2}}`))
	f.Add([]byte(`{"events":[{"at_op":5,"kind":"chip-dropout","backend":1,"chip":2},` +
		`{"at_op":9,"kind":"chip-revive","backend":1,"chip":2}]}`))
	f.Add([]byte(`{"events":[{"at_op":9,"kind":"kill-backend"}]}`))  // never restarted
	f.Add([]byte(`{"events":[{"at_op":9,"kind":"meteor-strike"}]}`)) // unknown kind
	f.Add([]byte(`{"name":"x","sedd":9}`))                           // typoed field
	f.Add([]byte(`{"name":"x"} trailing`))                           // trailing bytes
	f.Add([]byte(`{"ops":-1}`))                                      // bad scalar
	f.Add([]byte(`{"tenants":{"noisy_quota":0,"noisy_factor":-3}}`)) // bad tenant phase
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if err != nil {
			return
		}
		// Accepted specs carry their defaults.
		if s.Backends < 1 || s.Replicas < 1 || s.Replicas > s.Backends ||
			s.Ops < 1 || s.WorkingSet < 1 || s.GapUS < 0 ||
			s.WriteFrac < 0 || s.WriteFrac > 1 {
			t.Fatalf("accepted spec with bad scalars: %+v", s)
		}
		for i, e := range s.Events {
			if !eventKinds[e.Kind] {
				t.Fatalf("accepted unknown event kind %q", e.Kind)
			}
			if e.AtOp < 0 || e.AtOp > s.Ops || e.Backend < 0 || e.Backend >= s.Backends {
				t.Fatalf("accepted out-of-range event %d: %+v", i, e)
			}
			if i > 0 && e.AtOp < s.Events[i-1].AtOp {
				t.Fatalf("accepted unsorted events: %+v", s.Events)
			}
			if e.Kind == KindBadBlocks && e.Seed == 0 {
				t.Fatalf("bad-blocks event %d kept seed 0", i)
			}
		}
		// Round trip: marshal and re-parse must accept and agree.
		out, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		s2, err := ParseSpec(out)
		if err != nil {
			t.Fatalf("round trip rejected: %v\n%s", err, out)
		}
		out2, err := json.Marshal(s2)
		if err != nil {
			t.Fatal(err)
		}
		if string(out) != string(out2) {
			t.Fatalf("round trip drifted:\n%s\n%s", out, out2)
		}
	})
}
