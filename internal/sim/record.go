package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"profitlb/internal/core"
	"profitlb/internal/datacenter"
	"profitlb/internal/obs"
)

// record traces, under a scope with a trace sink only, what slot abs's
// planner is handed: one slot-input event carrying the input's numbers —
// prices, arrivals and the servers up at each center — beside the run's
// topology, which goes in once, before the first slot that names its
// hash. DecodeInputs rebuilds the input from the two.
func (src *InputSource) record(in *core.Input) {
	sc := src.cfg.Obs
	if sc == nil || sc.Trace == nil {
		return
	}
	if src.topology == "" {
		body, err := json.Marshal(src.cfg.Sys)
		var doc any
		if err == nil {
			err = json.Unmarshal(body, &doc)
		}
		if err != nil {
			return // observability never aborts a run
		}
		sum := sha256.Sum256(body)
		src.topology = hex.EncodeToString(sum[:8])
		sc.Emit(obs.Event{Kind: obs.KindTopology, Slot: in.Slot, Topology: src.topology, Data: doc})
	}
	sys := in.Sys
	values := make(map[string]float64, 2*sys.L()+sys.S()*sys.K())
	for l, p := range in.Prices {
		values[priceKey(l)] = p
		values[serversKey(l)] = float64(sys.Centers[l].Servers)
	}
	for s, row := range in.Arrivals {
		for k, v := range row {
			values[arrivalKey(s, k)] = v
		}
	}
	sc.Emit(obs.Event{Kind: obs.KindSlotInput, Slot: in.Slot, Epoch: in.Epoch, Topology: src.topology, Values: values})
}

func priceKey(l int) string      { return fmt.Sprintf("price.%d", l) }
func serversKey(l int) string    { return fmt.Sprintf("servers.%d", l) }
func arrivalKey(s, k int) string { return fmt.Sprintf("arrival.%d.%d", s, k) }

// DecodeInputs rebuilds, in event order, the input of every slot-input
// event of a trace from it and the topology event it names: the
// topology with each center's servers up, the arrivals and prices, the
// slot and the epoch — the core.Input the slot's planner was handed, bit
// for bit. It fails on a slot-input whose topology the trace has not
// given, or whose numbers do not fit it.
func DecodeInputs(events []obs.Event) ([]*core.Input, error) {
	topologies := map[string]*datacenter.System{}
	var out []*core.Input
	for _, ev := range events {
		switch ev.Kind {
		case obs.KindTopology:
			sys := new(datacenter.System)
			body, err := json.Marshal(ev.Data)
			if err == nil {
				err = json.Unmarshal(body, sys)
			}
			if err != nil {
				return nil, fmt.Errorf("sim: topology %s: %w", ev.Topology, err)
			}
			topologies[ev.Topology] = sys
		case obs.KindSlotInput:
			topo, ok := topologies[ev.Topology]
			if !ok {
				return nil, fmt.Errorf("sim: slot %d names topology %q, which the trace has not given", ev.Slot, ev.Topology)
			}
			in, err := decodeInput(topo, ev)
			if err != nil {
				return nil, fmt.Errorf("sim: slot %d: %w", ev.Slot, err)
			}
			out = append(out, in)
		}
	}
	return out, nil
}

// decodeInput is one slot-input event's input over topo.
func decodeInput(topo *datacenter.System, ev obs.Event) (*core.Input, error) {
	K, S, L := topo.K(), topo.S(), topo.L()
	if len(ev.Values) != 2*L+S*K {
		return nil, fmt.Errorf("%d numbers, a %d×%d×%d topology's input has %d", len(ev.Values), K, L, S, 2*L+S*K)
	}
	value := func(key string) (float64, error) {
		v, ok := ev.Values[key]
		if !ok {
			return 0, fmt.Errorf("no %s", key)
		}
		return v, nil
	}
	sys := topo.Clone()
	in := &core.Input{Sys: sys, Arrivals: make([][]float64, S), Prices: make([]float64, L), Slot: ev.Slot, Epoch: ev.Epoch}
	var err error
	for l := range in.Prices {
		if in.Prices[l], err = value(priceKey(l)); err != nil {
			return nil, err
		}
		servers, err := value(serversKey(l))
		if err != nil {
			return nil, err
		}
		sys.Centers[l].Servers = int(servers)
	}
	for s := range in.Arrivals {
		in.Arrivals[s] = make([]float64, K)
		for k := range in.Arrivals[s] {
			if in.Arrivals[s][k], err = value(arrivalKey(s, k)); err != nil {
				return nil, err
			}
		}
	}
	return in, nil
}
