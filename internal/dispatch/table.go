package dispatch

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"profitlb/internal/core"
	"profitlb/internal/datacenter"
)

// rateEps is the rate below which a commodity's dispatch entry is treated
// as LP noise and excluded from the routing table.
const rateEps = core.RateEps

// Lane is one (type, level, front-end, center) dispatch stream of the
// compiled plan, with the per-request economics frozen at compile time so
// the hot path and the load-test accounting never re-derive them.
type Lane struct {
	K, Q, S, L int
	// Rate is the plan's dispatch rate λ_{k,q,s,l}, requests per unit
	// virtual time.
	Rate float64
	// MaxRate is the lane's capacity headroom: the largest admission rate
	// the committed plan's shares (plus the center's unallocated share
	// slack, spread over the commodity's lanes in proportion to rate) can
	// sustain without violating the level deadline. A sub-slot controller
	// may boost the lane up to MaxRate and no further; MaxRate ≥ Rate
	// always, and 0 means "no headroom known" (treated as Rate).
	MaxRate float64
	// Burst is the lane's token-bucket capacity in requests.
	Burst float64
	// Delay is the commodity's expected M/M/1 delay under the plan, in
	// virtual time units (the closed-loop load generator's response time).
	Delay float64
	// Utility is the per-request revenue at the plan's expected delay for
	// the commodity (the TUF evaluated exactly as the simulator does).
	Utility float64
	// UnitEnergy and UnitTransfer are the per-request dollar costs at the
	// slot's electricity price and the (front-end, center) distance.
	UnitEnergy   float64
	UnitTransfer float64
}

// entry is the per-(k, s) routing state: a Walker alias table over the
// stream's lanes plus the stream's plan budgets.
type entry struct {
	lanes []int32   // lane index per alias cell
	prob  []float64 // alias acceptance probability per cell
	alias []int32   // alias cell redirect
	// planned is the stream's total planned dispatch rate Σ_q,l λ.
	planned float64
	// arrival is the arrival rate the planner budgeted for the stream.
	arrival float64
	// seed is the base of the stream's per-request draw sequence.
	seed uint64
}

// Header is what a table says about itself apart from its lanes: which
// plan it is, for which slot, and what that plan promised. Table and
// TableWire both embed it, so it crosses the wire, a subdivision or a
// rescale as one value. ServersOn is shared by tables derived from one
// another (tables are immutable) and copied at the wire boundary.
type Header struct {
	// Epoch is the monotonically increasing plan version stamped by the
	// minting Driver (or cluster publisher). Zero means unversioned — a
	// table compiled outside any epoch-fenced distribution path.
	Epoch uint64 `json:"epoch"`
	// Sub is the sub-epoch sequence within the epoch: 0 for the slot's
	// committed plan, ticking up for every in-slot controller correction
	// published against it. Installs are fenced on the lexicographic pair
	// (Epoch, Sub).
	Sub uint64 `json:"sub,omitempty"`
	// Slot is the absolute slot the plan was committed for.
	Slot int `json:"slot"`
	// SlotLen is the slot length T in virtual time units (sys.Slot()).
	SlotLen float64 `json:"slotLen"`
	// Seed is the routing seed the table was compiled under.
	Seed uint64 `json:"seed"`
	// Objective is the committed plan's predicted net profit.
	Objective float64 `json:"objective"`
	// IdleCost is the slot's idle-draw dollar cost of the powered-on
	// servers (zero under the paper's purely per-request energy model).
	IdleCost float64 `json:"idleCost"`
	// ServersOn mirrors the plan's powered-on counts.
	ServersOn []int `json:"serversOn"`
	// Degraded and Tier record how the plan was obtained: Tier is the
	// resilient fallback tier name when one fired, or "" for a primary
	// plan; an all-shed emergency table sets Degraded with Tier "shed".
	Degraded bool   `json:"degraded,omitempty"`
	Tier     string `json:"tier,omitempty"`
}

// Cmp orders the header's (Epoch, Sub) stamp against (epoch, sub)
// lexicographically: -1 when the header is older, 0 for the same stamp,
// +1 when it is newer. It is the serving plane's one order — the gateway
// fence, the long-poll, the controller's publish guard and every
// same-stamp check compare through it.
func (h Header) Cmp(epoch, sub uint64) int {
	if c := cmp.Compare(h.Epoch, epoch); c != 0 {
		return c
	}
	return cmp.Compare(h.Sub, sub)
}

// Table is a compiled routing table for one slot: the immutable part of
// the gateway's hot state. It is a header, the lanes, and an index of the
// lanes by (type, front-end) stream; every table, however it comes to
// exist, gets that index from index or derive. Mutable run state (token
// buckets, draw counters, tallies) lives in the gateway's compiled wrapper
// so a Table can be inspected, serialized or re-installed freely.
type Table struct {
	Header
	// Lanes lists every dispatch stream with positive planned rate.
	Lanes []Lane

	entries [][]entry // [k][s]
}

// K and S report the table's type and front-end dimensions.
func (t *Table) K() int { return len(t.entries) }
func (t *Table) S() int {
	if len(t.entries) == 0 {
		return 0
	}
	return len(t.entries[0])
}

// Planned returns the plan's total dispatch rate for stream (k, s), and
// the arrival rate the planner budgeted for it.
func (t *Table) Planned(k, s int) (planned, arrival float64) {
	e := &t.entries[k][s]
	return e.planned, e.arrival
}

// A table's storage is a fixed handful of slabs whatever its size: the
// entries are one []entry (plus the [k] row headers), every stream's lane
// list is cut from one []int32, and its alias table from one []float64
// and one []int32. Each cut is capped at its own length.

// carve cuts the next n entries off slab.
func carve[T any](slab *[]T, n int) []T {
	out := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return out
}

// grid returns a K×S grid of entries cut from one slab.
func grid(K, S int) [][]entry {
	rows, cells := make([][]entry, K), make([]entry, K*S)
	for k := range rows {
		rows[k] = carve(&cells, S)
	}
	return rows
}

// index builds the per-stream routing state over t.Lanes: a K×S grid of
// entries, each carrying the planner-budgeted rate arrival(k, s) and the
// stream's draw seed, every lane hung on its stream in lane order, then
// weigh. Lane coordinates must already be in range.
func (t *Table) index(K, S int, arrival func(k, s int) float64) {
	t.entries = grid(K, S)
	// Count each stream's lanes, cut its list off one slab, then deal the
	// lanes out in lane order.
	counts := make([]int32, K*S)
	for i := range t.Lanes {
		counts[t.Lanes[i].K*S+t.Lanes[i].S]++
	}
	lanes := make([]int32, len(t.Lanes))
	for k := range t.entries {
		for s := range t.entries[k] {
			t.entries[k][s] = entry{
				lanes:   carve(&lanes, int(counts[k*S+s]))[:0],
				arrival: arrival(k, s),
				seed:    streamSeed(t.Seed, t.Slot, k, s),
			}
		}
	}
	for i := range t.Lanes {
		e := &t.entries[t.Lanes[i].K][t.Lanes[i].S]
		e.lanes = append(e.lanes, int32(i))
	}
	t.weigh()
}

// weigh sets every stream's planned rate and alias table from its lanes'
// current rates. The alias slabs are always fresh, so a table that
// shares them with its parent can be re-weighed without touching it.
func (t *Table) weigh() {
	widest, cells := 0, 0
	for k := range t.entries {
		for s := range t.entries[k] {
			widest = max(widest, len(t.entries[k][s].lanes))
			cells += len(t.entries[k][s].lanes)
		}
	}
	v := newVose(widest)
	prob, alias := make([]float64, cells), make([]int32, cells)
	for k := range t.entries {
		for s := range t.entries[k] {
			e := &t.entries[k][s]
			n := len(e.lanes)
			weights := v.weights[:n]
			e.planned = 0
			for i, li := range e.lanes {
				weights[i] = t.Lanes[li].Rate
				e.planned += t.Lanes[li].Rate
			}
			e.prob, e.alias = carve(&prob, n), carve(&alias, n)
			v.fill(weights, e.prob, e.alias)
		}
	}
}

// derive returns a copy of the table — header by value, lanes and entries
// in fresh slabs — with lane applied to every lane and stream to every
// entry. Lane lists and alias tables stay shared with t: a transform that
// moves every lane of a stream by one factor leaves the rate ratios, and
// so the routing probabilities, where they were; one that does not calls
// weigh on the result.
func (t *Table) derive(lane func(i int, ln *Lane), stream func(e *entry)) *Table {
	out := *t
	out.Lanes = append([]Lane(nil), t.Lanes...)
	for i := range out.Lanes {
		lane(i, &out.Lanes[i])
	}
	out.entries = grid(t.K(), t.S())
	for k, row := range t.entries {
		copy(out.entries[k], row)
		for s := range out.entries[k] {
			stream(&out.entries[k][s])
		}
	}
	return &out
}

// ShedTable builds the emergency table for a slot with no usable plan:
// every stream exists with zero lanes, so each request is shed as
// unplanned and the gateway stays up.
func ShedTable(sys *datacenter.System, slot int, cfg Config) *Table {
	t := &Table{Header: Header{
		Slot:      slot,
		SlotLen:   sys.Slot(),
		Seed:      cfg.Seed,
		ServersOn: make([]int, sys.L()),
		Degraded:  true,
		Tier:      "shed",
	}}
	t.index(sys.K(), sys.S(), func(int, int) float64 { return 0 })
	return t
}

// Compile freezes a committed plan into a routing table: one alias table
// per (type, front-end) stream over the plan's positive (level, center)
// lanes, per-lane token-bucket capacities, and the per-request economics
// at the slot's prices. The input must be the one the plan was committed
// against (it supplies the topology, budgets and prices). Compile does
// not re-verify feasibility — the Driver gates plans through core.Verify
// before compiling.
func Compile(in *core.Input, plan *core.Plan, cfg Config) (*Table, error) {
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("dispatch: %w", err)
	}
	cfg = cfg.WithDefaults()
	sys := in.Sys
	K, S, L := sys.K(), sys.S(), sys.L()
	if len(plan.Rate) != K || len(plan.ServersOn) != L {
		return nil, fmt.Errorf("dispatch: plan shaped %d types × %d centers, system has %d × %d",
			len(plan.Rate), len(plan.ServersOn), K, L)
	}
	T := sys.Slot()
	t := &Table{Header: Header{
		Slot:      in.Slot,
		SlotLen:   T,
		Seed:      cfg.Seed,
		Objective: plan.Objective,
		ServersOn: append([]int(nil), plan.ServersOn...),
	}}
	for l := 0; l < L; l++ {
		t.IdleCost += sys.IdleCost(l, in.Prices[l]) * float64(plan.ServersOn[l])
	}
	// Per-center committed share totals: whatever the plan left unallocated
	// is slack a sub-slot controller may draw on. Spreading the slack over
	// a center's commodities in proportion to their committed shares keeps
	// the boosted shares summing to exactly 1, so every lane serving at its
	// MaxRate simultaneously still meets the capacity and deadline
	// constraints core.Verify enforces.
	sumPhi := make([]float64, L)
	for l := 0; l < L; l++ {
		for k := range plan.Rate {
			for q := range plan.Phi[l][k] {
				sumPhi[l] += plan.Phi[l][k][q]
			}
		}
	}
	// headroom returns MaxRate/Rate for commodity (k, q, l): the factor by
	// which the commodity's aggregate rate can grow — under its share plus
	// its proportional cut of the center's slack — before the M/M/1 delay
	// hits the level deadline. Never below 1.
	headroom := func(k, q, l int, deadline float64) float64 {
		lam := plan.CenterRate(k, q, l)
		n := float64(plan.ServersOn[l])
		if lam <= rateEps || n == 0 || deadline <= 0 {
			return 1
		}
		phi := plan.Phi[l][k][q]
		boosted := phi
		if slack := 1 - sumPhi[l]; slack > 0 && sumPhi[l] > 0 {
			boosted += slack * phi / sumPhi[l]
		}
		dc := &sys.Centers[l]
		lamMax := n * (boosted*dc.Capacity*dc.ServiceRate[k] - 1/deadline)
		if math.IsNaN(lamMax) || lamMax <= lam {
			return 1
		}
		return lamMax / lam
	}
	// The first pass checks the plan and counts its lanes, so the second
	// fills a lane slab sized once (nil for none, which /admin/plan shows
	// as null).
	lanes := 0
	for k := 0; k < K; k++ {
		if nq := sys.Classes[k].TUF.NumLevels(); len(plan.Rate[k]) != nq {
			return nil, fmt.Errorf("dispatch: type %d plan has %d levels, TUF has %d", k, len(plan.Rate[k]), nq)
		}
		for s := 0; s < S; s++ {
			for q := range plan.Rate[k] {
				if len(plan.Rate[k][q]) != S {
					return nil, fmt.Errorf("dispatch: type %d level %d plan has %d front-ends, system has %d",
						k, q, len(plan.Rate[k][q]), S)
				}
				if len(plan.Rate[k][q][s]) != L {
					return nil, fmt.Errorf("dispatch: type %d level %d front-end %d plan has %d centers, system has %d",
						k, q, s, len(plan.Rate[k][q][s]), L)
				}
				for l, rate := range plan.Rate[k][q][s] {
					if rate <= rateEps {
						continue
					}
					if math.IsNaN(rate) || math.IsInf(rate, 0) {
						return nil, fmt.Errorf("dispatch: invalid rate %g at k=%d q=%d s=%d l=%d", rate, k, q, s, l)
					}
					lanes++
				}
			}
		}
	}
	t.Lanes = slices.Grow(t.Lanes, lanes)
	for k := 0; k < K; k++ {
		cls := sys.Classes[k].TUF
		for s := 0; s < S; s++ {
			for q := range plan.Rate[k] {
				for l, rate := range plan.Rate[k][q][s] {
					if rate <= rateEps {
						continue
					}
					d := plan.AchievedDelay(sys, k, q, l)
					t.Lanes = append(t.Lanes, Lane{
						K: k, Q: q, S: s, L: l,
						Rate:         rate,
						MaxRate:      rate * headroom(k, q, l, cls.Level(q).Deadline),
						Burst:        cfg.burst(rate, T),
						Delay:        d,
						Utility:      cls.Utility(d),
						UnitEnergy:   sys.EnergyCost(k, l, in.Prices[l]),
						UnitTransfer: sys.TransferCost(k, s, l),
					})
				}
			}
		}
	}
	t.index(K, S, func(k, s int) float64 { return in.Arrivals[s][k] })
	return t, nil
}

// Rescale returns a copy of the table with every lane i's admission rate
// set to mult[i]·Rate, capped at the lane's MaxRate headroom (when known)
// so a boosted table can never violate the committed plan's capacity or
// deadline envelope. Lanes of one stream move by different factors, so the
// copy is re-weighed; bucket capacities follow the scaled rates; the
// frozen per-lane economics (Delay, Utility, unit costs) and MaxRate
// itself are carried unchanged, as are every stream's arrival budget and
// draw seed — an all-ones mult reproduces the base routing bit for bit.
// The result keeps the base Epoch and carries sub as its sub-epoch
// sequence. Rescale is meant for fleet-level (undivided) tables: bucket
// sizing is the plain rule, without Subdivide's √n slack and σ floor.
func (t *Table) Rescale(mult []float64, sub uint64, cfg Config) (*Table, error) {
	if len(mult) != len(t.Lanes) {
		return nil, fmt.Errorf("dispatch: rescale got %d multipliers for %d lanes", len(mult), len(t.Lanes))
	}
	for i, m := range mult {
		if math.IsNaN(m) || math.IsInf(m, 0) || m <= 0 {
			return nil, fmt.Errorf("dispatch: rescale multiplier %g for lane %d", m, i)
		}
	}
	cfg = cfg.WithDefaults()
	out := t.derive(func(i int, ln *Lane) {
		ln.Rate *= mult[i]
		if ln.MaxRate > 0 && ln.Rate > ln.MaxRate {
			ln.Rate = ln.MaxRate
		}
		ln.Burst = cfg.burst(ln.Rate, t.SlotLen)
	}, func(*entry) {})
	out.Sub = sub
	out.weigh()
	return out, nil
}

// vose is the scratch of Vose's alias construction, sized for the widest
// stream and reused by every stream of one weigh.
type vose struct {
	weights, scaled []float64
	small, large    []int32
}

func newVose(n int) vose {
	f, i := make([]float64, 2*n), make([]int32, 2*n)
	return vose{weights: f[:n:n], scaled: f[n:], small: i[:n:n], large: i[n:]}
}

// fill constructs a Walker alias table (Vose's algorithm) over the
// weights into prob and alias, both len(weights). Sampling cell i accepts
// i with probability prob[i] and otherwise redirects to alias[i]; the
// stationary distribution is weights/Σweights. The construction is
// deterministic: worklists are filled in ascending index order.
func (v *vose) fill(weights, prob []float64, alias []int32) {
	n := len(weights)
	if n == 0 {
		return
	}
	var sum float64
	for _, w := range weights {
		sum += w
	}
	scaled, small, large := v.scaled[:n], v.small[:0], v.large[:0]
	for i, w := range weights {
		scaled[i] = w * float64(n) / sum
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		prob[s] = scaled[s]
		alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	// Numerical leftovers: whatever remains has weight 1 up to rounding.
	for _, i := range large {
		prob[i] = 1
	}
	for _, i := range small {
		prob[i] = 1
	}
}

// draw samples a lane index for the stream's seq-th request. It returns
// -1 when the stream has no lanes. Allocation-free.
func (e *entry) draw(seq uint64) int32 {
	n := uint64(len(e.lanes))
	if n == 0 {
		return -1
	}
	u := splitmix64(e.seed + seq*0x9e3779b97f4a7c15)
	cell := (u >> 32) * n >> 32
	frac := float64(u&0xffffffff) / (1 << 32)
	if frac < e.prob[cell] {
		return e.lanes[cell]
	}
	return e.lanes[e.alias[cell]]
}
