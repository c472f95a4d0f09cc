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
