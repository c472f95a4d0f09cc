package core

import (
	"strconv"

	"profitlb/internal/datacenter"
)

// The dispatch LP's name kinds. A name is its kind's prefix and the
// indices the kind uses (−1 = unused), always in k, q, s, l, i order.
const (
	phiName = iota
	lamName
	capName
	arrName
	floorName
	shareName
	nameKinds
)

// dispatchName spells a name by appending — "lam", then "_k" and 3, … —
// byte for byte what fmt.Sprintf("lam_k%d…") printed.
func dispatchName(kind, k, q, s, l, g int) string {
	var buf [40]byte
	n := append(buf[:0], [nameKinds]string{"phi", "lam", "cap", "arr", "floor", "share"}[kind]...)
	for i, v := range [...]int{k, q, s, l, g} {
		if v >= 0 {
			n = strconv.AppendInt(append(n, [...]string{"_k", "_q", "_s", "_l", "_i"}[i]...), int64(v), 10)
		}
	}
	return string(n)
}

// dispatchNames memoises the aggregated layout's names across a planner's
// Plan calls. A name is a pure function of its indices, so an entry can
// never go stale — unlike anything numeric in the model, which is why
// names are all that is kept (DESIGN.md §7.6). Each kind has a dense
// slab strided by the dimensions it uses, filled on first use ("" is an
// entry not yet spelled).
type dispatchNames struct {
	k, q, s, l int // q counts branch-and-bound's NumLevels sentinel
	slab       [nameKinds][]string
}

// namesFor returns the planner's table, replaced when sys outgrows it.
func (e *EngineOptions) namesFor(sys *datacenter.System) *dispatchNames {
	q := 0
	for _, c := range sys.Classes {
		q = max(q, c.TUF.NumLevels()+1)
	}
	t := e.names
	if t == nil || t.k < sys.K() || t.q < q || t.s < sys.S() || t.l < sys.L() {
		t = &dispatchNames{k: sys.K(), q: q, s: sys.S(), l: sys.L()}
		kql := t.k * t.q * t.l
		for kind, n := range [nameKinds]int{phiName: kql, lamName: kql * t.s, capName: kql, arrName: t.k * t.s, floorName: t.k, shareName: t.l} {
			t.slab[kind] = make([]string, n)
		}
		e.names = t
	}
	return t
}

// name answers from the table; a nil table (the stateless DispatchModel)
// and the per-server layout (g ≥ 0) spell the name afresh.
func (t *dispatchNames) name(kind, k, q, s, l, g int) string {
	if t == nil || g >= 0 {
		return dispatchName(kind, k, q, s, l, g)
	}
	at := l // shareName
	switch kind {
	case lamName:
		at = ((k*t.q+q)*t.s+s)*t.l + l
	case phiName, capName:
		at = (k*t.q+q)*t.l + l
	case arrName:
		at = k*t.s + s
	case floorName:
		at = k
	}
	if t.slab[kind][at] == "" {
		t.slab[kind][at] = dispatchName(kind, k, q, s, l, g)
	}
	return t.slab[kind][at]
}
