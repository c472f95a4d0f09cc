package cluster

import (
	"encoding/json"
	"testing"

	"profitlb/internal/dispatch"
)

// FuzzFromWire feeds raw bytes down the path a join-mode replica runs on
// whatever its control plane sends: JSON decode, dispatch.FromWire, the
// topology gate, subdivision, install — and then serves every stream from
// the result the way `profitlb serve` and the controller do, looking the
// decision's center and level up in the replica's own topology. A payload
// is refused with an error or served; it never panics.
func FuzzFromWire(f *testing.F) {
	sys := testSystem()
	dcfg := dispatch.Config{Seed: 5, SlotSeconds: 60}
	ccfg := testClusterConfig(0)
	p := NewPublisher(ccfg, testDriver(sys, dcfg, nil), nil)
	p.Beat("r0", 0)
	pub, err := p.PublishSlot(0)
	if err != nil {
		f.Fatal(err)
	}
	good, err := json.Marshal(pub.Table)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte(`{"epoch":1,"slot":0,"slotLen":1,"seed":1,"objective":0,"idleCost":0,"serversOn":[1,1],"k":2,"s":2,` +
		`"lanes":[{"K":1,"Q":7,"S":0,"L":9,"Rate":10,"MaxRate":0,"Burst":8}],"arrivals":[[1,1],[1,1]]}`))
	f.Add([]byte(`{"k":1,"s":1,"slotLen":1e308,"lanes":[{"Rate":1e308,"Burst":1e308}],"arrivals":[[-1]]}`))
	f.Add([]byte(`{"k":-1}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var w dispatch.TableWire
		if json.Unmarshal(data, &w) != nil {
			return
		}
		w.Epoch, w.Sub = 1, 0 // past the fence, which is not what is fuzzed
		r := NewReplica("r0", sys, dcfg, ccfg, nil)
		installed, err := r.Apply(&Publication{Epoch: 1, Slot: w.Slot, Members: []string{"a", "r0", "b"}, Table: &w}, 0)
		if err != nil {
			if installed || r.Ready() {
				t.Fatalf("refused (%v) yet installed", err)
			}
			return
		}
		if !installed {
			t.Fatal("a fresh replica fenced epoch 1")
		}
		gw := r.Gateway()
		for k := 0; k < sys.K(); k++ {
			for s := 0; s < sys.S(); s++ {
				for i := 0; i < 64; i++ {
					if d := gw.Handle(k, s, float64(i)); d.Outcome == dispatch.Admitted {
						_ = sys.Centers[d.Center].Name
						_ = sys.Classes[k].TUF.Level(int(d.Level))
					}
				}
			}
		}
		gw.Stats(64)
	})
}

// FuzzReplicaFence drives one replica through a byte-decoded sequence of
// deliveries — (epoch, sub, member or not, slot), four bytes each — and
// staleness ticks, and holds it to the fence's contract after every step:
// the served (epoch, sub) is the largest stamp ever accepted, every
// refused delivery is counted exactly once as stale, duplicate or
// not-member (the reason the order predicts), and a refused delivery or a
// tick never moves the stamp — a refused one does not touch the serving
// table at all.
func FuzzReplicaFence(f *testing.F) {
	sys := testSystem()
	dcfg := dispatch.Config{Seed: 5, SlotSeconds: 60}
	ccfg := testClusterConfig(0)
	p := NewPublisher(ccfg, testDriver(sys, dcfg, nil), nil)
	p.Beat("r0", 0)
	pub, err := p.PublishSlot(0)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{2, 1, 0, 0, 2, 1, 1, 0, 2, 1, 1, 0, 2, 1, 0, 0, 1, 0, 0, 3, 0, 2, 0, 4, 6, 3, 0, 4})
	f.Add([]byte{2, 0, 0, 0, 2, 5, 2, 1, 2, 4, 9, 1, 1, 0, 0, 9, 1, 0, 0, 12, 2, 5, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReplica("r0", sys, dcfg, ccfg, nil)
		var best dispatch.Header // the largest stamp accepted so far
		for ; len(data) >= 4; data = data[4:] {
			op, slot := data[0], int(data[3]%16)
			before, served := r.Gateway().Stats(0), r.Gateway().Table()
			if op&1 == 1 {
				r.Tick(slot, float64(slot)*sys.Slot())
			} else {
				w := *pub.Table
				w.Epoch, w.Sub, w.Slot = uint64(data[1]%8), uint64(data[2]%4), slot
				d := &Publication{Epoch: w.Epoch, Sub: w.Sub, Slot: slot, Members: []string{"r0"}, Table: &w}
				if op&2 == 0 {
					d.Members = []string{"other"}
				} else if op&4 != 0 {
					d.Members = []string{"a", "r0"}
				}
				notMember := r.FencedNotMember()
				installed, err := r.Apply(d, float64(slot)*sys.Slot())
				if err != nil {
					t.Fatalf("delivery (%d, %d): %v", w.Epoch, w.Sub, err)
				}
				after := r.Gateway().Stats(0)
				counted := [3]int64{r.FencedNotMember() - notMember,
					after.FencedStale - before.FencedStale, after.FencedDup - before.FencedDup}
				want, order := [3]int64{}, best.Cmp(w.Epoch, w.Sub)
				switch {
				case op&2 == 0:
					want[0] = 1
				case order > 0:
					want[1] = 1
				case order == 0:
					want[2] = 1
				}
				if installed != (want == [3]int64{}) || counted != want {
					t.Fatalf("delivery (%d, %d) member %v after (%d, %d): installed %v, counted (not-member, stale, dup) %v, want %v",
						w.Epoch, w.Sub, op&2 != 0, best.Epoch, best.Sub, installed, counted, want)
				}
				if installed {
					best.Epoch, best.Sub = w.Epoch, w.Sub
				} else if r.Gateway().Table() != served {
					t.Fatalf("refused delivery (%d, %d) swapped the serving table", w.Epoch, w.Sub)
				}
			}
			if got := r.Gateway().Stats(0); got.Epoch != best.Epoch || got.Sub != best.Sub ||
				r.Epoch() != best.Epoch || r.Sub() != best.Sub {
				t.Fatalf("serving (%d, %d), replica says (%d, %d), largest accepted (%d, %d)",
					got.Epoch, got.Sub, r.Epoch(), r.Sub(), best.Epoch, best.Sub)
			}
		}
	})
}
