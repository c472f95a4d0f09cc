package mpc

import (
	"sort"

	"profitlb/internal/core"
	"profitlb/internal/datacenter"
	"profitlb/internal/obs"
)

// drainEps is the volume below which a due residue is not worth forcing
// (CommitSlot's dust clamp absorbs it anyway).
const drainEps = 1e-9

// ForceDrain implements core.DeferralPlanner: augment a committed plan in
// place so buckets due this slot (r=0) are dispatched wherever capacity
// remains, and return the volume placed. The horizon LP's backlog budget
// rows are ≤, so it may leave a due bucket unserved when serving it is
// unprofitable; the contract says the work must run anyway. Placement is
// a greedy three-stage escalation per center — fill existing commodity
// slack, grow CPU shares out of the center's free share, power on more
// servers — and is deterministic. Work that still does not fit stays in
// the bucket for CommitSlot to shed.
func (p *Planner) ForceDrain(in *core.Input, plan *core.Plan) float64 {
	K, S := in.Sys.K(), in.Sys.S()
	p.lazyInit(K, S)
	for k := range p.forced {
		p.forced[k] = 0
	}
	var total float64
	for s := 0; s < S; s++ {
		for k := 0; k < K; k++ {
			buckets := p.backlog[s][k]
			if len(buckets) == 0 || buckets[0] <= drainEps {
				continue
			}
			// CommitSlot attributes served volume to the oldest bucket
			// first, so the due bucket is covered up to the plan's existing
			// dispatch; only the shortfall needs forcing.
			need := buckets[0] - plan.ServedFrom(k, s)
			if need <= drainEps {
				continue
			}
			placed := placeVolume(in, plan, k, s, need)
			p.forced[k] += placed
			total += placed
		}
	}
	if total > 0 && p.sc.Enabled() {
		p.sc.Counter("mpc_force_drains_total", obs.L("planner", p.Name())).Add(1)
	}
	return total
}

// placeVolume routes up to need rate units of class k from front-end s
// into the plan, preserving feasibility (share sums ≤ 1, level deadlines
// met at the resulting loads), and returns the volume placed. Centers are
// tried in index order; within a center, levels loosest-deadline first —
// the cheapest share reservation per unit of capacity, and force-drained
// work only needs completion, not a premium utility level. Escalation per
// center: fill the free share, power on more servers, and finally reclaim
// other commodities' over-sized share reservations (plans consolidated
// onto few servers carry per-server shares far above what the now-larger
// server count requires).
func placeVolume(in *core.Input, plan *core.Plan, k, s int, need float64) float64 {
	sys := in.Sys
	levels := sys.Classes[k].TUF.Levels()
	order := make([]int, len(levels))
	for q := range order {
		order[q] = q
	}
	sort.SliceStable(order, func(a, b int) bool {
		return levels[order[a]].Deadline > levels[order[b]].Deadline
	})
	var placed float64
	for l := 0; l < sys.L() && need > drainEps; l++ {
		dc := &sys.Centers[l]
		mu := dc.Capacity * dc.ServiceRate[k]
		if mu <= 0 || dc.Servers == 0 {
			continue
		}
		reclaimed := false
		for _, q := range order {
			D := levels[q].Deadline
			for need > drainEps {
				n := float64(plan.ServersOn[l])
				if n > 0 {
					// Capacity for (k,q,l) if its share may grow into the
					// center's free share: n·μ·(φ+free) − n/D − Λ.
					lam := plan.CenterRate(k, q, l)
					phi := plan.Phi[l][k][q]
					free := 1 - centerShare(plan, l)
					if free < 0 {
						free = 0
					}
					avail := n*mu*(phi+free) - n/D - lam
					if avail > drainEps {
						d := need
						if d > avail {
							d = avail
						}
						// Re-derive the exact share at the new load; never
						// shrink an existing reservation.
						if req := (lam+d)/(n*mu) + 1/(D*mu); req > phi {
							plan.Phi[l][k][q] = req
						}
						plan.Rate[k][q][s][l] += d
						need -= d
						placed += d
						continue
					}
				}
				if plan.ServersOn[l] < dc.Servers {
					// Powering on another server never hurts: per-server
					// shares are unchanged and every commodity's per-server
					// load only falls.
					plan.ServersOn[l]++
					continue
				}
				if !reclaimed {
					reclaimed = true
					if reclaimShares(in.Sys, plan, l) {
						continue
					}
				}
				break
			}
		}
	}
	return placed
}

// reclaimShares re-derives every commodity's share reservation at center
// l's current server count and shrinks over-sized ones down to the exact
// delay requirement φ = Λ/(n·μ) + 1/(D·μ) (a commodity with no load needs
// none at all). Only ever shrinks — growth is placeVolume's business — so
// every commodity stays exactly feasible. Returns whether any share was
// released.
func reclaimShares(sys *datacenter.System, plan *core.Plan, l int) bool {
	n := float64(plan.ServersOn[l])
	if n <= 0 {
		return false
	}
	dc := &sys.Centers[l]
	changed := false
	for k := range plan.Phi[l] {
		mu := dc.Capacity * dc.ServiceRate[k]
		if mu <= 0 {
			continue
		}
		levels := sys.Classes[k].TUF.Levels()
		for q := range plan.Phi[l][k] {
			phi := plan.Phi[l][k][q]
			if phi <= 0 {
				continue
			}
			var req float64
			if lam := plan.CenterRate(k, q, l); lam > 0 {
				req = lam/(n*mu) + 1/(levels[q].Deadline*mu)
			}
			// Tighten only past round-off: dust, as for bucket volumes.
			if req < phi-dust {
				plan.Phi[l][k][q] = req
				changed = true
			}
		}
	}
	return changed
}

// centerShare sums the per-server CPU shares granted at center l.
func centerShare(plan *core.Plan, l int) float64 {
	var sum float64
	for k := range plan.Phi[l] {
		for _, phi := range plan.Phi[l][k] {
			sum += phi
		}
	}
	return sum
}
