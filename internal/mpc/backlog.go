package mpc

import (
	"profitlb/internal/core"
	"profitlb/internal/obs"
)

// dust is the bucket floor: volumes below it are clamped to zero so
// floating-point residue cannot keep buckets (and their LP variables)
// alive forever.
const dust = 1e-12

// BacklogBudget implements core.DeferralPlanner: the current buffered
// volume per [frontEnd][class], a fresh copy.
func (p *Planner) BacklogBudget() [][]float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([][]float64, len(p.backlog))
	for s := range p.backlog {
		out[s] = make([]float64, len(p.backlog[s]))
		for k := range p.backlog[s] {
			for _, v := range p.backlog[s][k] {
				out[s][k] += v
			}
		}
	}
	return out
}

// CommitSlot implements core.DeferralPlanner: settle the slot against the
// committed plan. The served volume of each (front-end, class) drains the
// oldest buckets first — work within a class is fungible, so earliest-
// deadline-first attribution is pure bookkeeping — then the residue of
// the due bucket is shed, unserved arrivals are deferred (classes with an
// allowance, within the run's end) or lost, and every surviving bucket
// ages one slot. A nil or empty committed plan settles a shed slot:
// nothing drains, due work expires.
func (p *Planner) CommitSlot(actual *core.Input, committed *core.Plan) core.BacklogSlot {
	p.mu.Lock()
	defer p.mu.Unlock()
	K, S := actual.Sys.K(), actual.Sys.S()
	p.lazyInit(K, S)
	bs := core.BacklogSlot{
		CarriedIn:   make([]float64, K),
		Drained:     make([]float64, K),
		Forced:      append([]float64(nil), p.forced...),
		Shed:        make([]float64, K),
		DeferredNew: make([]float64, K),
		LostNew:     make([]float64, K),
		BacklogOut:  make([]float64, K),
	}
	for k := range p.forced {
		p.forced[k] = 0
	}
	for s := 0; s < S; s++ {
		for k := 0; k < K; k++ {
			buckets := p.backlog[s][k]
			for _, v := range buckets {
				bs.CarriedIn[k] += v
			}
			var served float64
			if committed != nil {
				served = committed.ServedFrom(k, s)
			}
			// Earliest deadline first: service drains bucket r=0, then 1, …
			rem := served
			var drained float64
			for r := range buckets {
				take := buckets[r]
				if take > rem {
					take = rem
				}
				buckets[r] -= take
				rem -= take
				drained += take
			}
			bs.Drained[k] += drained
			// The due bucket's residue missed its deadline.
			if len(buckets) > 0 && buckets[0] > 0 {
				if buckets[0] > dust {
					bs.Shed[k] += buckets[0]
				}
				buckets[0] = 0
			}
			// Unserved arrivals: defer within the allowance, else lose.
			servedNew := served - drained
			if servedNew > actual.Arrivals[s][k] {
				servedNew = actual.Arrivals[s][k] // numeric guard
			}
			unserved := actual.Arrivals[s][k] - servedNew
			rNew := p.deferWindow(k, actual.Slot)
			if unserved <= dust {
				unserved = 0
			}
			if unserved > 0 && rNew < 0 {
				bs.LostNew[k] += unserved
				unserved = 0
			}
			// Age: bucket r becomes bucket r−1 of the next slot; the new
			// deferral joins at its own remaining allowance.
			var next []float64
			if len(buckets) > 1 {
				next = buckets[1:]
			}
			if unserved > 0 {
				for len(next) <= rNew {
					next = append(next, 0)
				}
				next[rNew] += unserved
				bs.DeferredNew[k] += unserved
			}
			for r := range next {
				if next[r] < dust {
					next[r] = 0
				}
			}
			for len(next) > 0 && next[len(next)-1] == 0 {
				next = next[:len(next)-1]
			}
			p.backlog[s][k] = next
			for _, v := range next {
				bs.BacklogOut[k] += v
			}
		}
	}
	if p.sc.Enabled() {
		T := actual.Sys.Slot()
		lbl := obs.L("planner", p.Name())
		count := func(name string, v []float64) {
			p.sc.Counter(name, lbl).Add(int64(core.Total(v)*T + 0.5))
		}
		count("mpc_deferred_requests_total", bs.DeferredNew)
		count("mpc_drained_requests_total", bs.Drained)
		count("mpc_forced_requests_total", bs.Forced)
		count("mpc_shed_requests_total", bs.Shed)
		count("mpc_lost_requests_total", bs.LostNew)
		p.sc.Gauge("mpc_backlog_rate", lbl).Set(core.Total(bs.BacklogOut))
	}
	return bs
}

// deferWindow returns the remaining-slot allowance a class-k arrival
// unserved in the given slot enters the backlog with (the bucket index
// after the age shift), or −1 when it cannot be deferred at all: no
// allowance, no lookahead, or no run slot left to serve it in.
func (p *Planner) deferWindow(k, slot int) int {
	if p.cfg.myopicOnly() {
		return -1
	}
	r := p.cfg.maxDefer(k) - 1
	if r < 0 {
		return -1
	}
	if p.cfg.EndSlot > 0 {
		// Deferred work is served no earlier than slot+1 and no later than
		// slot+1+r; both must precede EndSlot.
		if last := p.cfg.EndSlot - 2 - slot; last < r {
			r = last
		}
	}
	return r
}
