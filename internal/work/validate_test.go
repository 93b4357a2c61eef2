package work

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parbw/internal/bsp"
	"parbw/internal/model"
)

// slotIR wraps one superstep of sends into an IR on a p-processor machine.
func slotIR(p int, sends []Send) *IR {
	return &IR{Version: Version, P: p, M: 1, L: 1, Steps: []Step{{Sends: sends}}}
}

// The slot-schedule rejection contract: Validate rejects, with a clean
// error, everything the engines would panic on, accepts contention across
// processors, and never reorders its input.
func TestValidateSlotScheduleTable(t *testing.T) {
	cases := []struct {
		name    string
		sends   []Send
		wantErr string
	}{
		{"empty", nil, ""},
		{"valid", []Send{{Proc: 0, Slot: 0, Dst: 1}, {Proc: 0, Slot: 1, Dst: 2}, {Proc: 1, Slot: 0, Dst: 0}}, ""},
		{"shared slot across procs ok", []Send{{Proc: 0, Slot: 3, Dst: 1}, {Proc: 1, Slot: 3, Dst: 1}}, ""},
		{"long send then gap", []Send{{Proc: 2, Slot: 0, Dst: 0, Len: 3}, {Proc: 2, Slot: 3, Dst: 0}}, ""},
		{"negative slot", []Send{{Proc: 0, Slot: -1, Dst: 1}}, "negative slot -1"},
		{"dst out of range", []Send{{Proc: 0, Slot: 0, Dst: 4}}, "invalid dst 4"},
		{"dst negative", []Send{{Proc: 0, Slot: 0, Dst: -2}}, "invalid dst -2"},
		{"proc out of range", []Send{{Proc: 4, Slot: 0, Dst: 0}}, "invalid proc 4"},
		{"proc negative", []Send{{Proc: -1, Slot: 0, Dst: 0}}, "invalid proc -1"},
		{"negative len", []Send{{Proc: 0, Slot: 0, Dst: 1, Len: -7}}, "negative length -7"},
		{"duplicate slot-proc", []Send{{Proc: 1, Slot: 5, Dst: 0}, {Proc: 1, Slot: 5, Dst: 2}}, "two flits in slot 5"},
		{"long send overlap", []Send{{Proc: 1, Slot: 0, Dst: 0, Len: 4}, {Proc: 1, Slot: 3, Dst: 2}}, "two flits in slot 3"},
		{"unsorted input still caught", []Send{{Proc: 1, Slot: 3, Dst: 2}, {Proc: 1, Slot: 0, Dst: 0, Len: 4}}, "two flits in slot 3"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			before := append([]Send(nil), c.sends...)
			err := slotIR(4, c.sends).Validate()
			for i := range before {
				if c.sends[i] != before[i] {
					t.Fatal("Validate reordered its input")
				}
			}
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("Validate = %v, want error containing %q", err, c.wantErr)
			}
		})
	}
}

// CheckSends is the endpoint-and-length rule alone: no resource cap, no
// slot or overlap check, and it reports the offending send's index.
func TestCheckSendsTable(t *testing.T) {
	cases := []struct {
		name    string
		p       int
		sends   []Send
		wantErr string // substring of the error, "" = valid
		index   int
	}{
		{"empty", 2, nil, "", 0},
		{"valid unit", 2, []Send{{Proc: 0, Dst: 1}, {Proc: 1, Dst: 0}}, "", 0},
		{"valid long", 2, []Send{{Proc: 0, Dst: 1, Len: 5}}, "", 0},
		{"nil rows", 3, []Send{{Proc: 0, Dst: 2}}, "", 0},
		{"slots ignored", 2, []Send{{Proc: 0, Slot: -4, Dst: 1}, {Proc: 0, Slot: -4, Dst: 1}}, "", 0},
		{"above the IR caps", 4 * MaxP, []Send{{Proc: 4*MaxP - 1, Dst: 3 * MaxP, Len: 4 * MaxMsgLen}}, "", 0},
		{"proc too big", 2, []Send{{Proc: 0, Dst: 1}, {Proc: 2, Dst: 0}}, "send 1 from invalid proc 2", 1},
		{"proc negative", 2, []Send{{Proc: -1, Dst: 0}}, "invalid proc -1", 0},
		{"dst too big", 2, []Send{{Proc: 0, Dst: 2}}, "invalid dst 2", 0},
		{"dst negative", 2, []Send{{Proc: 1, Dst: -1}}, "invalid dst -1", 0},
		{"negative len", 2, []Send{{Proc: 0, Dst: 0, Len: -3}}, "negative length -3", 0},
		{"negative procs", -1, []Send{{Proc: 0, Dst: 0}}, "invalid proc 0", 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := CheckSends(c.p, c.sends)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("CheckSends = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("CheckSends = %v, want error containing %q", err, c.wantErr)
			}
			var we *Error
			if !errors.As(err, &we) || we.Step != -1 || we.Index != c.index {
				t.Fatalf("error %#v, want *Error with Step -1 and Index %d", err, c.index)
			}
		})
	}
}

// clampInt8 folds an int into the int8-coded byte format the fuzz harness
// decodes, saturating rather than wrapping so the seed keeps the sign and
// rough magnitude of the corpus value.
func clampInt8(v int) byte {
	return byte(int8(max(-128, min(127, v))))
}

// addCorpusSeeds adds every superstep of every checked-in oracle corpus
// entry as a (procs, bytes) seed: each send serializes to a 4-byte
// (proc, slot, dst, len) group.
func addCorpusSeeds(f *testing.F) {
	dir := filepath.Join("..", "oracle", "testdata", "corpus")
	files, err := os.ReadDir(dir)
	if err != nil {
		f.Fatalf("corpus at %s: %v", dir, err)
	}
	for _, fi := range files {
		if !strings.HasSuffix(fi.Name(), ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, fi.Name()))
		if err != nil {
			f.Fatal(err)
		}
		var entry struct {
			Workload *IR `json:"workload"`
		}
		if err := json.Unmarshal(data, &entry); err != nil || entry.Workload == nil {
			f.Fatalf("%s: undecodable corpus entry: %v", fi.Name(), err)
		}
		for _, step := range entry.Workload.Steps {
			var b []byte
			for _, s := range step.Sends {
				b = append(b, clampInt8(s.Proc), clampInt8(s.Slot), clampInt8(s.Dst), clampInt8(s.Len))
			}
			f.Add(entry.Workload.P, b)
		}
	}
}

// FuzzValidateSlotSchedule decodes an arbitrary byte string into one
// superstep of sends and checks the rejection contract: Validate never
// panics, and any schedule it accepts drives a real BSP machine without
// panicking (the engines' own schedule validation agrees with ours). It is
// seeded by hand-written edge cases plus every superstep of the shrunk
// regression corpus in internal/oracle/testdata/corpus.
func FuzzValidateSlotSchedule(f *testing.F) {
	f.Add(4, []byte{0, 0, 1, 1, 0, 0, 2, 1})
	f.Add(2, []byte{0, 255, 0, 3})           // negative-ish slot byte patterns
	f.Add(3, []byte{1, 5, 0, 0, 1, 5, 2, 0}) // duplicate (slot, proc)
	f.Add(8, []byte{7, 0, 7, 4, 7, 2, 7, 1}) // long send overlap
	f.Add(1, []byte{0, 0, 0, 0})             // self-send on p=1
	addCorpusSeeds(f)
	f.Fuzz(func(t *testing.T, procs int, data []byte) {
		if procs < 0 || procs > 64 {
			procs = 1 + (procs&0x7fffffff)%64
		}
		var sends []Send
		for i := 0; i+4 <= len(data) && len(sends) < 256; i += 4 {
			sends = append(sends, Send{
				Proc: int(int8(data[i])),
				Slot: int(int8(data[i+1])),
				Dst:  int(int8(data[i+2])),
				Len:  int(int8(data[i+3])),
			})
		}
		ir := slotIR(procs, sends)
		if err := ir.Validate(); err != nil || len(sends) == 0 { // must never panic
			return
		}
		m := bsp.New(bsp.Config{P: procs, Cost: model.BSPm(ir.M, ir.L), Seed: 1})
		m.Superstep(func(c *bsp.Ctx) {
			for _, s := range sends {
				if s.Proc == c.ID() {
					c.SendAt(s.Slot, s.Dst, s.Msg())
				}
			}
		})
	})
}
