package feed

// Multi-step forecasting for receding-horizon planning. A rolling-horizon
// controller (internal/mpc) plans an H-slot window every slot, but only
// slot 0 has telemetry: the remaining H−1 slots must be forecast. This
// file extends each feed's estimator ladder from "stand in for one failed
// fetch" to "project h slots ahead", and bundles the per-feed projections
// into the core.ForecastSource shape the planner consumes — the planner's
// only forecaster.

// PredictAhead projects the feed i slots past its most recent Fetch for
// i in [1, h]: out[i-1] is the step-i estimate (same width as a Fetch
// reading). The estimator ladder mirrors the per-slot fallback chain,
// adapted to projection:
//
//	warmed Kalman filter (flat random-walk mean — Kalman.PredictH)
//	→ last-known-good, held flat
//	→ prior
//
// Unlike a failed fetch — where a young LKG sample outranks the filter —
// projection prefers the filter whenever it is warm: the filter already
// consumed every good sample including the LKG one, and holding a raw
// sample flat for i slots is strictly worse than the filter's smoothed
// state. Values are clamped to the feed's floor. PredictAhead never
// mutates feed state.
func (f *Feed) PredictAhead(h int) [][]float64 {
	out := make([][]float64, h)
	useFilter := f.filters[0].Warm(minObservations)
	var traj [][]float64 // traj[i] is element i's h-step estimate trajectory
	if useFilter {
		traj = make([][]float64, len(f.filters))
		for i, k := range f.filters {
			est, _, err := k.PredictH(h)
			if err != nil {
				traj[i] = nil
				useFilter = false
				break
			}
			traj[i] = est
		}
	}
	for step := 1; step <= h; step++ {
		row := make([]float64, len(f.prior))
		switch {
		case useFilter:
			for i := range row {
				row[i] = traj[i][step-1]
			}
		case f.hasLKG:
			f.held(row)
		default:
			copy(row, f.prior)
		}
		for i := range row {
			if row[i] < f.floor || row[i] != row[i] {
				row[i] = f.floor
			}
		}
		out[step-1] = row
	}
	return out
}

// ForecastHorizon implements core.ForecastSource over the whole set:
// prices[i-1][l] and arrivals[i-1][s][k] estimate the slot i steps past
// the most recent FetchSlot, for i in [1, h]. It composes each feed's
// PredictAhead, so degraded feeds degrade their own projections (LKG,
// then prior) without poisoning healthy ones.
func (st *Set) ForecastHorizon(h int) (prices [][]float64, arrivals [][][]float64) {
	if h < 1 {
		return nil, nil
	}
	prices = make([][]float64, h)
	arrivals = make([][][]float64, h)
	for i := 0; i < h; i++ {
		prices[i] = make([]float64, len(st.prices))
		arrivals[i] = make([][]float64, len(st.arrivals))
	}
	for l, f := range st.prices {
		proj := f.PredictAhead(h)
		for i := 0; i < h; i++ {
			prices[i][l] = proj[i][0]
		}
	}
	for s, f := range st.arrivals {
		proj := f.PredictAhead(h)
		for i := 0; i < h; i++ {
			arrivals[i][s] = proj[i]
		}
	}
	return prices, arrivals
}
